import dataclasses
import hashlib
import json
import os
import signal
import threading
import time

import pytest

from fatpoints import replication
from fatpoints.engine import ALTERNATE_PRIME, PrimeFieldConfig
from fatpoints.replication import (
    BaseCase,
    load_bundled_registry,
    reconcile_specializations,
    run_basecases,
    verify_ah,
    verify_main_theorem,
)
from fatpoints.schemes import FatPoint, virtual_dim
from fatpoints.secant import (
    critical_r,
    is_defective,
    secant_dims,
    veronese_defective_rs,
)
from fatpoints.spaces import Multidegree, MultiProjectiveSpace


# SHA-256 of the canonical dump below.  Any change to a fixture changes it,
# so update it only together with a fixture changed on purpose.
REGISTRY_DIGEST = "15bea971a422c7094ffee440dec25056df90ac8810b7cca4fe391217dbd89c7c"


def _vanishing(sub):
    return [sorted(s) for s in sub.vanishing]


def test_registry_matches_golden_digest():
    dump = []
    for c in load_bundled_registry():
        # the dump leaves out pinned coordinates and jets, so none may exist
        assert all(p.spec.coords is None for p in c.scheme.points), c.case_id
        assert not c.scheme.jets, c.case_id
        points = [
            [p.multiplicity, None if p.spec.stratum is None else _vanishing(p.spec.stratum)]
            for p in c.scheme.points
        ]
        contained = [_vanishing(sub) for sub in c.scheme.contained]
        dump.append(
            [c.case_id, list(c.space.factor_dims), list(c.degree.degrees), c.expected,
             points, contained]
        )
    digest = hashlib.sha256(json.dumps(dump).encode()).hexdigest()
    assert digest == REGISTRY_DIGEST


def test_registry_size_and_coverage():
    cases = load_bundled_registry()
    assert len(cases) >= 20
    assert len({c.case_id for c in cases}) == len(cases)
    degrees = {c.degree.degrees for c in cases}
    # all three target bidegrees and their reductions appear
    assert {(3, 3), (3, 4), (4, 4), (2, 3), (3, 2), (3, 1), (2, 4)} <= degrees


def test_expected_status_consistent_with_vdim():
    for c in load_bundled_registry():
        vd = virtual_dim(c.space, c.degree, c.scheme)
        if c.expected == "Regular":
            assert vd >= 0, c.case_id
        else:
            assert vd <= 0, c.case_id


def test_specialization_tables_reconcile():
    assert reconcile_specializations() == []


def test_run_basecases_all_pass():
    report = run_basecases()
    assert report["passed"]
    assert report["failed"] == []
    assert report["total"] >= 20
    assert report["table_flags"] == []


def test_filter_44():
    report = run_basecases(filter="4,4")
    assert report["total"] == 4
    assert report["passed"]


def test_corrupted_fixture_reported():
    cases = load_bundled_registry()
    case = next(c for c in cases if c.case_id == "33-1x1-triple")
    bad_scheme = dataclasses.replace(case.scheme)
    bad_scheme.points = [FatPoint(p.multiplicity + 1, p.spec) for p in case.scheme.points]
    bad = BaseCase(case.case_id, case.space, case.degree, case.expected, bad_scheme)
    report = run_basecases(cases=[bad])
    assert not report["passed"]
    assert report["failed"] == ["33-1x1-triple"]


def test_statuses_stable_across_seed_and_prime():
    base = run_basecases(filter="3,4")
    other = run_basecases(
        filter="3,4",
        config=PrimeFieldConfig(prime=ALTERNATE_PRIME, seed=12345),
    )
    assert [(e["id"], e["status"]) for e in base["cases"]] == [
        (e["id"], e["status"]) for e in other["cases"]
    ]


def test_verify_main_theorem_small():
    report = verify_main_theorem(max_m=2, max_n=2)
    assert report["passed"]
    assert len(report["cases"]) == 12


def _main_theorem_every_system(max_m, max_n, config):
    """verify_main_theorem as it was before factor-swapped systems shared a
    report: one is_defective call per system."""
    entries = []
    for c, d in ((3, 3), (3, 4), (4, 4)):
        for m in range(1, max_m + 1):
            for n in range(1, max_n + 1):
                rep = is_defective(MultiProjectiveSpace((m, n)), Multidegree((c, d)), config)
                entries.append({
                    "space": [m, n],
                    "degree": [c, d],
                    "r_low": rep.r_low,
                    "r_high": rep.r_high,
                    "low_status": rep.low.status.value,
                    "high_status": rep.high.status.value,
                    "certified_nondefective": rep.certified_nondefective,
                })
    return {"cases": entries, "passed": all(e["certified_nondefective"] for e in entries)}


@pytest.mark.parametrize("seed", [0, 1])
def test_main_theorem_certifies_each_system_once_up_to_factor_order(
    monkeypatch, call_log, seed
):
    # (1,2)/(2,1), (1,3)/(3,1) and (2,3)/(3,2) in bidegrees (3,3) and (4,4)
    # are factor swaps of each other: 27 systems, 21 questions.  The log
    # counts the questions forked workers answer too.
    def counting(space, degree, config=None):
        call_log.append((space.factor_dims, degree.degrees))
        return is_defective(space, degree, config)

    monkeypatch.setattr(replication, "is_defective", counting)
    config = PrimeFieldConfig(seed=seed)
    report = verify_main_theorem(3, 3, config)
    asked = call_log.values()
    assert len(asked) == len(set(asked)) == 21
    assert report == _main_theorem_every_system(3, 3, config)
    assert report["passed"]


def test_verify_ah_examples():
    report = verify_ah(max_n=2, max_d=4)
    assert report["passed"]
    by_nd = {(e["n"], e["d"]): e for e in report["cases"]}
    assert by_nd[(2, 4)]["defects"] == {"5": 1}
    assert by_nd[(2, 3)]["certified_nondefective"]


def test_verify_ah_builds_one_matrix_per_attempt(build_calls):
    report = verify_ah(max_n=2, max_d=4)
    built = len(build_calls)
    attempts = 0
    for case in report["cases"]:
        space, degree = MultiProjectiveSpace((case["n"],)), Multidegree((case["d"],))
        rs = [*critical_r(space, degree), *veronese_defective_rs(case["n"], case["d"])]
        attempts += max(len(v.certificate.runs) for v in secant_dims(space, degree, rs))
    # the critical counts and every defective r share one draw per attempt
    assert built == attempts == 16


# --- the drivers' questions on every allowed CPU ---------------------------


@pytest.fixture
def blas_threads():
    """The OpenBLAS thread-count getter, which the fan-out needs."""
    found = replication._openblas_threads()
    if found is None:
        pytest.skip("no OpenBLAS thread control, so the drivers run serially")
    return found[0]


@pytest.fixture
def forks(monkeypatch):
    """Two allowed CPUs, whatever the machine allows, and a log of the
    forks made by this process."""
    made = []
    real = os.fork

    def counting():
        made.append(os.getpid())
        return real()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", counting)
    return made


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _forbid_fork(monkeypatch):
    def refuse():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", refuse)


@pytest.mark.parametrize("seed", [0, 1])
def test_fanned_out_reports_equal_the_serial_ones(monkeypatch, blas_threads, forks, seed):
    config = PrimeFieldConfig(seed=seed)
    before = blas_threads()
    fanned = [
        json.dumps(verify_main_theorem(3, 3, config)),
        json.dumps(verify_ah(config, 5, 6)),
    ]
    assert len(forks) == 2
    _assert_no_child_left()
    assert blas_threads() == before

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    _forbid_fork(monkeypatch)
    serial = [
        json.dumps(verify_main_theorem(3, 3, config)),
        json.dumps(verify_ah(config, 5, 6)),
    ]
    assert fanned == serial


# P^1 in degrees 2 and 3: the parent answers the costlier degree-3 question
# and the one child the degree-2 question
_TWO_QUESTIONS = [
    (MultiProjectiveSpace((1,)), Multidegree((2,))),
    (MultiProjectiveSpace((1,)), Multidegree((3,))),
]


def test_a_question_raising_in_a_child_raises_here(blas_threads, forks):
    def ask(space, degree):
        if degree.degrees == (2,):
            raise ValueError("no answer in the child")
        return degree.degrees

    before = blas_threads()
    with pytest.raises(ValueError, match="no answer in the child"):
        replication._answer_all(ask, _TWO_QUESTIONS)
    assert len(forks) == 1
    _assert_no_child_left()
    assert blas_threads() == before


def test_a_child_killed_without_answering_raises_runtime_error(blas_threads, forks):
    def ask(space, degree):
        if degree.degrees == (2,):
            os.kill(os.getpid(), signal.SIGKILL)
        return degree.degrees

    before = blas_threads()
    with pytest.raises(RuntimeError, match="exit status -9"):
        replication._answer_all(ask, _TWO_QUESTIONS)
    assert len(forks) == 1
    _assert_no_child_left()
    assert blas_threads() == before


def test_a_question_raising_here_kills_the_children(blas_threads, forks):
    def ask(space, degree):
        if degree.degrees == (2,):
            time.sleep(60)  # the child would answer only after a minute
        raise KeyError("no answer here")

    before = blas_threads()
    start = time.perf_counter()
    with pytest.raises(KeyError, match="no answer here"):
        replication._answer_all(ask, _TWO_QUESTIONS)
    assert time.perf_counter() - start < 30
    assert len(forks) == 1
    _assert_no_child_left()
    assert blas_threads() == before


def test_the_split_keeps_the_costliest_question_here():
    costs = [1, 5, 3, 2]
    shares = replication._split(costs, 2)
    assert sorted(i for share in shares for i in share) == [0, 1, 2, 3]
    assert 1 in shares[0]
    assert [sum(costs[i] for i in share) for share in shares] == [6, 5]


def _one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def _no_blas_control(monkeypatch):
    monkeypatch.setattr(replication, "_openblas_threads", lambda: None)


@pytest.mark.parametrize("serial_because", [_one_cpu, _no_blas_control, None])
def test_nothing_forks_where_the_drivers_stay_serial(monkeypatch, serial_because):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    expected = json.dumps(verify_ah(max_n=2, max_d=3))
    _forbid_fork(monkeypatch)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, args=(30,))
    if serial_because is None:  # a second live Python thread
        other.start()
    else:
        serial_because(monkeypatch)
    try:
        assert json.dumps(verify_ah(max_n=2, max_d=3)) == expected
    finally:
        stop.set()
        if other.is_alive():
            other.join(timeout=30)
    assert not other.is_alive()
