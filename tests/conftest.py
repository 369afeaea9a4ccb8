import ast
import os

import pytest

from fatpoints import engine


@pytest.fixture(autouse=True)
def cold_memo():
    """Every test starts with the engine's memo of eliminated matrices
    empty, so what a test computes twice it computes afresh the first time,
    whatever the tests before it answered; a test that wants a warm memo
    warms it itself."""
    engine._profiles.clear()


class CallLog:
    """A list of values that this process and every process forked from it
    append to: one line per value, written with one os.write on an O_APPEND
    descriptor, so the lines of concurrent processes never interleave.
    Values are Python literals; each process's own appends keep their order."""

    def __init__(self, path):
        self.path = path
        self.fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def append(self, value) -> None:
        os.write(self.fd, (repr(value) + "\n").encode())

    def clear(self) -> None:
        os.ftruncate(self.fd, 0)

    def values(self) -> list:
        with open(self.path) as fh:
            return [ast.literal_eval(line) for line in fh]

    def __len__(self) -> int:
        return len(self.values())

    def __eq__(self, other) -> bool:
        return self.values() == other

    def __repr__(self) -> str:
        return repr(self.values())


@pytest.fixture
def call_log(tmp_path):
    log = CallLog(tmp_path / "calls.log")
    yield log
    os.close(log.fd)


@pytest.fixture
def build_calls(monkeypatch, call_log):
    """The number of points of each matrix the engine builds, in order
    within each process, also when a driver forks workers."""
    real = engine.build_matrix

    def counting(space, degree, scheme, **kwargs):
        call_log.append(len(scheme.points))
        return real(space, degree, scheme, **kwargs)

    monkeypatch.setattr(engine, "build_matrix", counting)
    return call_log


@pytest.fixture
def per_case_failures():
    """The ledger's reference rule: a lemma's predicate called on each case
    of its domain as ints, keeping the cases where it is false."""
    from fatpoints import arith

    def failures(lemma_id, bound):
        domain, predicate = arith._REGISTRY[lemma_id]
        cases = zip(*(c.tolist() for c in domain.columns(bound)))
        return [args for args in cases if not predicate(*args)]

    return failures


@pytest.fixture
def no_star_draw(monkeypatch):
    """degeneration's random.Random with every draw failing, so a test can
    tell that a star was refused before any of its coordinates was drawn."""
    from fatpoints import degeneration

    class Undrawn(degeneration.random.Random):
        def random(self):
            raise AssertionError("the star was drawn")

        def getrandbits(self, k):
            raise AssertionError("the star was drawn")

    monkeypatch.setattr(degeneration.random, "Random", Undrawn)
