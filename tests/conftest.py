import pytest

from fatpoints import engine


@pytest.fixture
def build_calls(monkeypatch):
    """The number of points of each matrix the engine builds, in order."""
    calls = []
    real = engine.build_matrix

    def counting(space, degree, scheme, **kwargs):
        calls.append(len(scheme.points))
        return real(space, degree, scheme, **kwargs)

    monkeypatch.setattr(engine, "build_matrix", counting)
    return calls


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
