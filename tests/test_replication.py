import dataclasses
import hashlib
import json
import os
import signal
import threading
import time

import pytest

from fatpoints import engine, replication
from fatpoints.engine import ALTERNATE_PRIME, PrimeFieldConfig, dimension
from fatpoints.replication import (
    BaseCase,
    load_bundled_registry,
    reconcile_specializations,
    run_basecases,
    verify_ah,
    verify_main_theorem,
)
from fatpoints.schemes import FatPoint, make_scheme, virtual_dim
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


def test_specialization_table_flags_a_wrong_step(monkeypatch):
    # the table counts the rule the fixtures come from: one double point
    # dropped from one step is flagged, with its n and k
    chain = replication._strata_chain

    def short(n, k):
        groups = chain(n, k)
        if (n, k) == (17, 2):
            m, c, meet = groups[-1]
            groups[-1] = (m, c - 1, meet)
        return groups

    monkeypatch.setattr(replication, "_strata_chain", short)
    flags = reconcile_specializations()
    assert len(flags) == 1 and flags[0].startswith("n=17, k=2: "), flags
    assert run_basecases(filter="33-1x1-triple")["table_flags"] == flags


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


def _corrupted_registry():
    """The bundled registry with 33-1x1-triple's multiplicities raised by
    one, so that its expected status no longer holds."""
    cases = load_bundled_registry()
    i = next(i for i, c in enumerate(cases) if c.case_id == "33-1x1-triple")
    case = cases[i]
    bad_runs = [(FatPoint(p.multiplicity + 1, p.spec), n) for p, n in case.scheme.runs]
    bad_scheme = dataclasses.replace(case.scheme, runs=bad_runs)
    cases[i] = BaseCase(case.case_id, case.space, case.degree, case.expected, bad_scheme)
    return cases


def test_corrupted_fixture_reported():
    bad = next(c for c in _corrupted_registry() if c.case_id == "33-1x1-triple")
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


@pytest.mark.parametrize("max_m, max_n", [(0, 3), (3, 0), (-1, -1)])
def test_verify_main_theorem_refuses_an_empty_grid(max_m, max_n):
    # no system to check: a pass would check nothing
    with pytest.raises(ValueError):
        verify_main_theorem(max_m, max_n)


@pytest.mark.parametrize("max_n, max_d", [(0, 5), (4, 1), (0, 0)])
def test_verify_ah_refuses_an_empty_range(max_n, max_d):
    # the range would hold no (n, d), and the report only the quadrics on P^5
    with pytest.raises(ValueError):
        verify_ah(max_n=max_n, max_d=max_d)


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
    assert built == attempts == 10


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
    engine._profiles.clear()  # the serial run eliminates afresh
    serial = [
        json.dumps(verify_main_theorem(3, 3, config)),
        json.dumps(verify_ah(config, 5, 6)),
    ]
    assert fanned == serial


def _answer_two(ask):
    """_answer_all on two questions, each its own cost: this process
    answers 3, and the one child takes 2 from the queue unless this process
    gets to it first."""
    return replication._answer_all(ask, [2, 3], lambda q: q)


def _wait_for_a_child(call_log):
    """Hold this process until a forked child has logged that it took a
    question, so that the child's question cannot be taken here first."""
    deadline = time.monotonic() + 30
    while not len(call_log):
        assert time.monotonic() < deadline, "no child took a question"
        time.sleep(0.01)


def test_a_question_raising_in_a_child_raises_here(blas_threads, forks, call_log):
    here = os.getpid()

    def ask(q):
        if os.getpid() == here:
            _wait_for_a_child(call_log)
            return q
        call_log.append(os.getpid())
        raise ValueError("no answer in the child")

    before = blas_threads()
    with pytest.raises(ValueError, match="no answer in the child"):
        _answer_two(ask)
    assert len(forks) == 1
    _assert_no_child_left()
    assert blas_threads() == before


def test_a_child_killed_without_answering_raises_runtime_error(
    blas_threads, forks, call_log
):
    here = os.getpid()

    def ask(q):
        if os.getpid() == here:
            _wait_for_a_child(call_log)
            return q
        call_log.append(os.getpid())
        os.kill(os.getpid(), signal.SIGKILL)

    before = blas_threads()
    with pytest.raises(RuntimeError, match="exit status -9"):
        _answer_two(ask)
    assert len(forks) == 1
    _assert_no_child_left()
    assert blas_threads() == before


def test_a_question_raising_here_kills_the_children(blas_threads, forks, call_log):
    here = os.getpid()

    def ask(q):
        if os.getpid() == here:
            _wait_for_a_child(call_log)
            raise KeyError("no answer here")
        call_log.append(os.getpid())
        time.sleep(60)  # the child would answer only after a minute
        return q

    before = blas_threads()
    start = time.perf_counter()
    with pytest.raises(KeyError, match="no answer here"):
        _answer_two(ask)
    assert time.perf_counter() - start < 30
    assert len(forks) == 1
    _assert_no_child_left()
    assert blas_threads() == before


def test_this_process_answers_the_costliest_question_first(
    blas_threads, forks, call_log
):
    questions = [1, 5, 3, 2, 4]

    def ask(q):
        call_log.append((os.getpid(), q))
        return -q

    before = blas_threads()
    answers = replication._answer_all(ask, questions, lambda q: q)
    assert answers == [-q for q in questions]
    assert len(forks) == 1
    _assert_no_child_left()
    assert blas_threads() == before
    asked = call_log.values()
    assert sorted(q for _, q in asked) == sorted(questions)
    here = [q for pid, q in asked if pid == os.getpid()]
    assert here[0] == max(questions)


def test_the_largest_queue_answers_each_question_once_in_order(
    monkeypatch, blas_threads, forks, call_log
):
    # four allowed CPUs: on a smaller machine the workers outnumber the cores
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    questions = list(range(replication._MAX_QUESTIONS))

    def ask(q):
        call_log.append(q)
        return q * q

    before = blas_threads()
    answers = replication._answer_all(ask, questions, lambda q: q % 7)
    assert answers == [q * q for q in questions]
    assert sorted(call_log.values()) == questions
    assert len(forks) == 3
    _assert_no_child_left()
    assert blas_threads() == before


def test_a_workers_eliminations_join_this_processs_memo(blas_threads, forks, build_calls):
    # double points on P^2 quartics: this process answers the costliest
    # question, k = 5, first, and waits, so that the worker drains the queue
    space, degree = MultiProjectiveSpace((2,)), Multidegree((4,))
    here = os.getpid()

    def ask(k):
        if k == 5 and os.getpid() == here:
            time.sleep(0.5)
        return os.getpid(), dimension(space, degree, make_scheme([(2, k)])).to_json()

    counts = [2, 3, 4, 5]
    answers = replication._answer_all(ask, counts, lambda k: k)
    assert len(forks) == 1
    assert any(pid != here for pid, _ in answers)  # the worker answered some
    build_calls.clear()
    again = [dimension(space, degree, make_scheme([(2, k)])).to_json() for k in counts]
    assert again == [cert for _, cert in answers]
    assert build_calls == []  # every matrix, the worker's too, was remembered here


def test_one_question_more_than_the_queue_holds_is_refused(forks):
    questions = list(range(replication._MAX_QUESTIONS + 1))
    with pytest.raises(ValueError, match="exceed the queue"):
        replication._answer_all(lambda q: q, questions, lambda q: q)
    assert forks == []


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("registry", [None, _corrupted_registry])
def test_fanned_out_basecases_equal_the_serial_ones(
    monkeypatch, blas_threads, forks, seed, registry
):
    config = PrimeFieldConfig(seed=seed)
    cases = registry and registry()
    before = blas_threads()
    fanned = json.dumps(run_basecases(config=config, cases=cases))
    assert len(forks) == 1
    _assert_no_child_left()
    assert blas_threads() == before

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    _forbid_fork(monkeypatch)
    engine._profiles.clear()  # the serial run eliminates afresh
    serial = json.dumps(run_basecases(config=config, cases=cases))
    assert fanned == serial
    failed = json.loads(fanned)["failed"]
    assert failed == ([] if registry is None else ["33-1x1-triple"])


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
