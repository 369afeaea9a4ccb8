"""Golden base-case fixtures and desk-scale verification drivers.

The registry freezes every software-checked base case of the inductive
arguments: the expected verdict (Regular or Zero) of a specific linear
system, including the specialized schemes whose points sit on coordinate
subvarieties.  `run_basecases` replays them through the prime-field engine
and fails loudly on any mismatch.

`verify_main_theorem` and `verify_ah` are the desk-scale drivers: the
first certifies non-defectivity of the multidegree-(c,d) embeddings of
P^m x P^n for small m, n; the second spot-checks the classification of
defective Veronese embeddings.

Both drivers ask independent questions, one system each, and so does
`run_basecases`, one fixture each.  `_answer_all` answers them on every
CPU the process may run on: in this process and in one forked child per
further CPU.  Every process pulls its next question from one shared queue
when it finishes one, so the load balances by what the questions actually
cost; a cost model ordered by ideal_basis_size ** 3 gave one process 43 ms
and the other 100 ms of verify_ah(5, 6).  The queue is a pipe of
fixed-size records, one question index each.  The parent writes them all, costliest
first, in one write of at most PIPE_BUF bytes before it forks, which
cannot block on a new pipe, and closes the write end, so a worker that
reads end of file knows the queue is empty.  No record is split or read
twice: a Linux pipe read takes its bytes under the pipe's lock, the pipe
only ever holds whole records, and every read asks for exactly one record,
so each read takes one whole record from the head of the pipe.  The parent
answers the costliest question itself, before it reads the queue, so that
its peak memory still sees the largest matrix.  A worker sends back, with
its answers, the row rank profiles it added to the engine's memo, and the
parent remembers them, so a matrix a worker eliminated is not eliminated
again in the parent.  OpenBLAS is capped at
one thread for the length of the call, because a forked child that brings
its own pool of spinning BLAS threads makes the pass several times slower
on two CPUs, while a second BLAS thread buys nothing on matrices this
small.  The fork is safe here for three reasons.  OpenBLAS quiesces its
thread pool in its own pthread_atfork handler, so no child inherits a
lock held by a BLAS thread.  The package starts no thread, and the helper
forks only while the calling process runs a single Python thread.  And a
child leaves by os._exit after writing its answers, so it never returns
into its caller's stack, runs no exit handler and flushes no buffer it
inherited.  Python 3.12 and later warn (DeprecationWarning) on fork() in
a process with other live threads; the single-thread condition should
keep that warning away.  CI runs the tests on Python 3.10, 3.11 and 3.12,
and a warning there would show in pytest's warnings summary.

The OpenBLAS thread control is looked up after numpy is loaded: the package
binds numpy lazily, and its OpenBLAS is mapped only once numpy executes, so
a driver that is the first thing a process runs still fans out.
"""
from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass

from . import engine
from .arith import b, ell, j, k_down, k_up, s, v
from .engine import PrimeFieldConfig, dimension, status_matches
from .schemes import FatPoint, FatPointScheme, PointSpec
from .secant import (
    DefectivityReport,
    critical_r,
    is_defective,
    secant_dims,
    veronese_defective_rs,
)
from .spaces import (
    CoordinateSubvariety,
    Multidegree,
    MultiProjectiveSpace,
    ideal_basis_size,
)


@dataclass(frozen=True)
class BaseCase:
    case_id: str
    space: MultiProjectiveSpace
    degree: Multidegree
    expected: str  # "Regular" or "Zero"
    scheme: FatPointScheme


def _sub(nfac: int, factor: int, idxs) -> CoordinateSubvariety:
    return CoordinateSubvariety(
        tuple(frozenset(idxs) if k == factor else frozenset() for k in range(nfac))
    )


def _pts(*groups) -> list[FatPoint]:
    """groups = (mult, count, stratum-or-None), concatenated in order."""
    out = []
    for mult, count, stratum in groups:
        spec = PointSpec(stratum=stratum) if stratum is not None else PointSpec()
        out.extend(FatPoint(mult, spec) for _ in range(count))
    return out


def load_bundled_registry() -> list[BaseCase]:
    """The fixture registry, built in code: each fixture is defined here and
    nowhere else."""
    cases: list[BaseCase] = []

    def add(cid, dims, degs, expected, scheme):
        space = MultiProjectiveSpace(dims)
        scheme.check(space)
        cases.append(BaseCase(cid, space, Multidegree(degs), expected, scheme))

    # --- bidegree (3,3) family and its (2,3)/(3,2)/(3,1) reductions ----

    add(
        "33-1x1-triple", (1, 1), (3, 3), "Regular",
        FatPointScheme(_pts((3, 1, None), (2, k_up(3, 3, 1, 1), None))),
    )
    add(
        "33-2x1-quadruple", (2, 1), (3, 3), "Zero",
        FatPointScheme(_pts((4, 1, None), (2, k_down(3, 3, 2, 1), None))),
    )
    add(
        "23-2x2-triple", (2, 2), (2, 3), "Regular",
        FatPointScheme(_pts((3, 1, None), (2, ell(2, 2), None))),
    )
    for n in (2, 3):
        add(
            f"23-1x{n}-triple", (1, n), (2, 3), "Zero",
            FatPointScheme(_pts((3, 1, None), (2, s(n), None))),
        )
    # the chained specializations of the (2,3)-on-P1xPn argument (see
    # reconcile_specializations): the forms contain k codimension-2
    # coordinate subvarieties, and the triple point lies on all of them
    for n in (4, 5):
        A = _sub(2, 1, {0, 1})
        add(
            f"23-1x{n}-one-stratum", (1, n), (2, 3), "Zero",
            FatPointScheme(
                _pts((3, 1, A), (2, s(n - 2), A), (2, 2 * n + 1, None)),
                contained=[A],
            ),
        )
    for n in (6, 7):
        A = _sub(2, 1, {0, 1})
        B = _sub(2, 1, {2, 3})
        AB = _sub(2, 1, {0, 1, 2, 3})
        add(
            f"23-1x{n}-two-strata", (1, n), (2, 3), "Zero",
            FatPointScheme(
                _pts(
                    (3, 1, AB), (2, s(n - 4), AB),
                    (2, 2 * n - 3, A), (2, 2 * n - 3, B),
                    (2, 4, None),
                ),
                contained=[A, B],
            ),
        )
    for n in (8, 9):
        A = _sub(2, 1, {0, 1})
        B = _sub(2, 1, {2, 3})
        C = _sub(2, 1, {4, 5})
        AB = _sub(2, 1, {0, 1, 2, 3})
        AC = _sub(2, 1, {0, 1, 4, 5})
        BC = _sub(2, 1, {2, 3, 4, 5})
        ABC = _sub(2, 1, {0, 1, 2, 3, 4, 5})
        add(
            f"23-1x{n}-three-strata", (1, n), (2, 3), "Zero",
            FatPointScheme(
                _pts(
                    (3, 1, ABC), (2, s(n - 6), ABC),
                    (2, 2 * n - 7, AB), (2, 2 * n - 7, AC), (2, 2 * n - 7, BC),
                    (2, 4, A), (2, 4, B), (2, 4, C),
                ),
                contained=[A, B, C],
            ),
        )
    add(
        "32-2x2-triple", (2, 2), (3, 2), "Regular",
        FatPointScheme(_pts((3, 1, None), (2, b(2), None))),
    )
    # residual schemes of the (3,2)-on-P2xPn step
    for n in (3, 4, 5):
        D = _sub(2, 1, {0})
        add(
            f"31-2x{n}-divisor", (2, n), (3, 1), "Zero",
            FatPointScheme(
                _pts(
                    (2, 1, D), (2, b(n) - b(n - 1), None),
                    (1, b(n - 1), D), (1, v(n), None),
                )
            ),
        )
    # the residual scheme specialized onto a codimension-3 subvariety
    for n in (6, 7, 8):
        A = _sub(2, 1, {0, 1, 2})
        D = _sub(2, 1, {3})
        AD = _sub(2, 1, {0, 1, 2, 3})
        add(
            f"31-2x{n}-stratum", (2, n), (3, 1), "Zero",
            FatPointScheme(
                _pts(
                    (2, b(n - 3) - b(n - 4), A),
                    (2, 1, AD), (1, b(n - 4), AD),
                    (1, b(n - 1) - b(n - 4), D),
                    (1, v(n - 3), A),
                    (1, v(n) - v(n - 3), None),
                ),
                contained=[A],
            ),
        )

    # --- bidegree (3,4) family ----------------------------------------

    add(
        "34-1x1-triple", (1, 1), (3, 4), "Regular",
        FatPointScheme(_pts((3, 1, None), (2, k_up(3, 4, 1, 1), None))),
    )
    add(
        "34-1x2-quadruple", (1, 2), (3, 4), "Zero",
        FatPointScheme(_pts((4, 1, None), (2, k_down(3, 4, 1, 2), None))),
    )
    add(
        "33-1x3-triple", (1, 3), (3, 3), "Regular",
        FatPointScheme(
            _pts((3, 1, None), (2, k_down(3, 4, 1, 3) - k_down(3, 4, 1, 2), None))
        ),
    )
    add(
        "24-2x2-triple", (2, 2), (2, 4), "Regular",
        FatPointScheme(_pts((3, 1, None), (2, j(2), None))),
    )

    # --- bidegree (4,4) family ----------------------------------------

    add(
        "44-1x1-triple", (1, 1), (4, 4), "Regular",
        FatPointScheme(_pts((3, 1, None), (2, k_up(4, 4, 1, 1), None))),
    )
    add(
        "44-2x2-quadruple", (2, 2), (4, 4), "Zero",
        FatPointScheme(_pts((4, 1, None), (2, k_down(4, 4, 2, 2), None))),
    )
    for n, cnt in ((2, k_down(4, 4, 1, 2)), (3, k_down(4, 4, 1, 3))):
        add(
            f"44-1x{n}-quadruple", (1, n), (4, 4), "Zero",
            FatPointScheme(_pts((4, 1, None), (2, cnt, None))),
        )

    return cases


# --- specialization-table bookkeeping ----------------------------------


def reconcile_specializations() -> list[str]:
    """The chained specializations of the (2,3)-on-P1xPn argument must
    preserve the multiplicity profile (3, 2^{s(n)}) at every step.  Checks
    the component tables of each step against the previous one and returns
    a list of mismatch descriptions (expected empty); mismatches are
    reported, not repaired."""
    flags = []
    for n in range(10, 41):
        profiles = {
            "start": s(n),
            "one-stratum": s(n - 2) + (2 * n + 1),
            "two-strata": s(n - 4) + 2 * (2 * n - 3) + 4,
            "three-strata": s(n - 6) + 3 * (2 * n - 7) + 3 * 4,
            "four-strata": s(n - 8) + 4 * (2 * n - 11) + 6 * 4,
        }
        ref = profiles["start"]
        for name, doubles in profiles.items():
            if doubles != ref:
                flags.append(
                    f"n={n}: step {name} has {doubles} double points, expected {ref}"
                )
    return flags


# --- base-case runner ----------------------------------------------------


def _case_matches(case: BaseCase, pattern: str | None) -> bool:
    if not pattern:
        return True
    return pattern in case.case_id or pattern == case.degree.label()


def _basecase_entry(case: BaseCase, config: PrimeFieldConfig | None) -> dict:
    """run_basecases' entry for one fixture."""
    cert = dimension(case.space, case.degree, case.scheme, config)
    return {
        "id": case.case_id,
        "space": list(case.space.factor_dims),
        "degree": list(case.degree.degrees),
        "type": case.scheme.type_label(),
        "expected_status": case.expected,
        "status": cert.status.value,
        "computed_dim": cert.computed_dim,
        "virtual_dim": cert.virtual_dim,
        "rank": cert.rank,
        "rows": cert.rows,
        "cols": cert.cols,
        "prime": cert.prime,
        "seed": cert.seed,
        "ok": status_matches(case.expected, cert),
    }


def _fixture_cost(case: BaseCase) -> int:
    """cols * rows * min(cols, rows), the work of eliminating a fixture's
    matrix, counted from the fixture without building it."""
    cols = ideal_basis_size(case.space, case.degree, case.scheme.contained)
    rows = case.scheme.conditions(case.space.ambient_dim())
    return cols * rows * min(cols, rows)


def run_basecases(
    filter: str | None = None,
    config: PrimeFieldConfig | None = None,
    cases: list[BaseCase] | None = None,
) -> dict:
    """Replay the fixture registry through the engine, the fixtures on
    every allowed CPU (_answer_all).  The report is deterministic for a
    fixed config (no timestamps or timings) and is ordered by fixture id."""
    if cases is None:
        cases = load_bundled_registry()
    selected = [c for c in cases if _case_matches(c, filter)]
    if not selected:
        # an empty replay would pass nothing and fail nothing
        raise ValueError(f"no fixture matches the filter {filter!r}")
    selected.sort(key=lambda c: c.case_id)

    entries = _answer_all(
        lambda case: _basecase_entry(case, config), selected, _fixture_cost
    )
    failed = [e["id"] for e in entries if not e["ok"]]
    return {
        "cases": entries,
        "total": len(entries),
        "failed": failed,
        "passed": not failed,
        "table_flags": reconcile_specializations(),
    }


# --- answering independent questions on every allowed CPU ----------------

_PIPE_BUF = 4096  # Linux's PIPE_BUF: a new pipe takes this much in one write
_RECORD = 2  # bytes of one question index in the queue
_MAX_QUESTIONS = _PIPE_BUF // _RECORD + 1  # the first question is not queued


def _allowed_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call off Linux
        return 1


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS library numpy loaded,
    found through its own symbols; None when there is none (another BLAS,
    or no /proc/self/maps to find it in).  The library is looked up once
    per process, after numpy is loaded (the package binds it lazily, and
    its OpenBLAS is mapped only then); the count itself is read and set on
    every call."""
    import ctypes

    engine.np.ndarray  # loads numpy, if nothing has yet
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for prefix, suffix in (
            ("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")
        ):
            get = getattr(handle, f"{prefix}get_num_threads{suffix}", None)
            set_ = getattr(handle, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


def _take(ask, questions, queue: int) -> list[tuple[int, object]]:
    """(index, answer) for each question taken from the queue, until it is
    empty.  Each read takes one whole record (see the module docstring)."""
    pairs = []
    while record := os.read(queue, _RECORD):
        i = int.from_bytes(record, "little")
        pairs.append((i, ask(questions[i])))
    return pairs


def _answer_in_child(ask, questions, queue: int, r: int, w: int) -> None:
    """The body of a forked worker.  It writes (True, (index, answer)
    pairs, memo additions) or (False, exception, memo additions) to w and
    leaves by os._exit, whatever happens: it must never return into the
    stack it was forked from.  The memo additions are the (key, profile)
    entries of engine._profiles that this worker added, oldest first."""
    code = 1
    try:
        import pickle

        os.close(r)
        inherited = set(engine._profiles)
        try:
            answered, value = True, _take(ask, questions, queue)
        except Exception as exc:
            answered, value = False, exc
        added = [entry for entry in engine._profiles.items() if entry[0] not in inherited]
        payload = (answered, value, added)
        with open(w, "wb") as fh:
            fh.write(pickle.dumps(payload))
        code = 0
    finally:
        os._exit(code)


def _answer_all(ask, questions: list, cost) -> list:
    """[ask(q) for q in questions], in question order.

    The answers come from this process and from one forked child per
    further allowed CPU, with OpenBLAS capped at one thread for the length
    of the call (see the module docstring).  Each process takes the next
    question from one shared queue when it finishes one; cost(q) only
    orders the queue, costliest first, and this process answers the
    costliest question before it reads the queue.  More than _MAX_QUESTIONS
    questions are refused, before any is asked.  The plain loop runs
    instead when only one CPU is allowed, there are fewer than two
    questions, another Python thread is running, or no OpenBLAS thread
    control is found.  A question that raises in a child raises the same
    exception here; a child that dies without answering raises
    RuntimeError.  Every child is reaped before this returns or raises."""
    if len(questions) > _MAX_QUESTIONS:
        raise ValueError(
            f"{len(questions)} questions exceed the queue's {_MAX_QUESTIONS}"
        )
    workers = min(_allowed_cpus(), len(questions))
    blas = None
    if workers > 1 and threading.active_count() == 1:
        blas = _openblas_threads()
    if blas is None:
        return [ask(q) for q in questions]
    get_threads, set_threads = blas
    order = sorted(range(len(questions)), key=lambda i: -cost(questions[i]))
    before = get_threads()
    set_threads(1)
    try:
        return _fan_out(ask, questions, order, workers - 1)
    finally:
        set_threads(before)


def _fan_out(ask, questions, order: list[int], children: int) -> list:
    """_answer_all's answers: order[0] here, then the queue of order[1:],
    read here and in `children` forked children, which are killed if this
    process raises.  The matrices the children eliminated join this
    process's memo (engine._remember), each child's oldest first."""
    import pickle

    queue, fill = os.pipe()
    try:
        # one write of at most _PIPE_BUF bytes into a new pipe cannot block
        os.write(fill, b"".join(i.to_bytes(_RECORD, "little") for i in order[1:]))
    finally:
        os.close(fill)
    answers = [None] * len(questions)
    procs = []  # (pid, read end of its pipe), one per child
    outputs = None
    statuses = []
    try:
        for _ in range(children):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _answer_in_child(ask, questions, queue, r, w)
            os.close(w)
            procs.append((pid, os.fdopen(r, "rb")))
        answers[order[0]] = ask(questions[order[0]])
        for i, answer in _take(ask, questions, queue):
            answers[i] = answer
        outputs = [reader.read() for _, reader in procs]
    finally:
        os.close(queue)
        for pid, reader in procs:
            reader.close()
            if outputs is None:
                import signal  # here, so that importing the package adds no module

                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for data, status in zip(outputs, statuses):
        if status != 0:
            raise RuntimeError(
                f"a worker process ended without answering (exit status {status})"
            )
        answered, value, added = pickle.loads(data)
        if not answered:
            raise value
        for i, answer in value:
            answers[i] = answer
        for key, profile in added:
            engine._remember(key, profile)
    return answers


# --- theorem-scale drivers ------------------------------------------------


def verify_main_theorem(
    max_m: int = 3,
    max_n: int = 3,
    config: PrimeFieldConfig | None = None,
) -> dict:
    """Certify non-defectivity of the multidegree-(c,d) embeddings of
    P^m x P^n, (c,d) = (3,3), (3,4), (4,4), for all 1 <= m <= max_m,
    1 <= n <= max_n by checking the two critical numbers of double points.

    Each system is certified once up to the order of its factors.  Swapping
    the factors of P^m x P^n is an isomorphism onto P^n x P^m that takes the
    forms of bidegree (c,d) to those of bidegree (d,c) and general double
    points to general double points.  So the two linear systems have the
    same dimension at every number of points, and the same monomial count
    and ambient dimension, hence the same r_low and r_high.  One
    certificate's computed dimension is then an upper bound for both, and
    the one-sided invariant computed >= true >= vdim holds for each: its
    statuses are both systems' statuses.  Systems are keyed by their sorted
    (factor dimension, degree) pairs; is_defective answers the first system
    of each key, and every entry keeps its own space and degree.  The
    questions are answered on every allowed CPU (_answer_all).  An empty
    grid (max_m or max_n below 1) is refused with ValueError."""
    if max_m < 1 or max_n < 1:
        # an empty grid would pass without checking a system
        raise ValueError(f"need max_m, max_n >= 1, got {max_m}, {max_n}")
    systems = [
        (MultiProjectiveSpace((m, n)), Multidegree((c, d)))
        for c, d in ((3, 3), (3, 4), (4, 4))
        for m in range(1, max_m + 1)
        for n in range(1, max_n + 1)
    ]

    def key(space, degree):
        return tuple(sorted(zip(space.factor_dims, degree.degrees)))

    questions = {}
    for space, degree in systems:
        questions.setdefault(key(space, degree), (space, degree))
    answers = _answer_all(
        lambda q: is_defective(*q, config),
        list(questions.values()),
        lambda q: ideal_basis_size(*q) ** 3,
    )
    reports = dict(zip(questions, answers))
    entries = []
    ok = True
    for space, degree in systems:
        rep = reports[key(space, degree)]
        good = rep.certified_nondefective
        ok = ok and good
        entries.append(
            {
                "space": list(space.factor_dims),
                "degree": list(degree.degrees),
                "r_low": rep.r_low,
                "r_high": rep.r_high,
                "low_status": rep.low.status.value,
                "high_status": rep.high.status.value,
                "certified_nondefective": good,
            }
        )
    return {"cases": entries, "passed": ok}


def _ah_entry(
    space: MultiProjectiveSpace,
    degree: Multidegree,
    config: PrimeFieldConfig | None,
) -> dict:
    """verify_ah's entry for the Veronese embedding of P^n of degree d."""
    (n,), (d,) = space.factor_dims, degree.degrees
    expected_rs = veronese_defective_rs(n, d)
    r_low, r_high = critical_r(space, degree)
    # one draw answers the two critical counts and every defective r
    low, high, *defective = secant_dims(
        space, degree, [r_low, r_high, *expected_rs], config
    )
    rep = DefectivityReport(
        space, degree, r_low, r_high, low.certificate, high.certificate
    )
    defects = {v.r: v.defect for v in defective}
    good = rep.certified_nondefective == (not expected_rs) and all(
        v.defect >= 1 for v in defective
    )
    return {
        "n": n,
        "d": d,
        "expected_defective_rs": expected_rs,
        "certified_nondefective": rep.certified_nondefective,
        "defects": {str(r): defects[r] for r in sorted(defects)},
        "ok": good,
    }


def verify_ah(
    config: PrimeFieldConfig | None = None,
    max_n: int = 4,
    max_d: int = 5,
) -> dict:
    """Spot-check the classification of defective Veronese embeddings:
    quadrics are defective for 2 <= r <= n (checked through n = 5), the
    four sporadic higher-degree cases have defect >= 1, and everything
    else up to (max_n, max_d) is certified non-defective at the two
    critical numbers of points.  The embeddings are checked on every
    allowed CPU (_answer_all).  max_n below 1 or max_d below 2, which
    leave only the quadrics on P^5, are refused with ValueError."""
    if max_n < 1 or max_d < 2:
        raise ValueError(f"need max_n >= 1 and max_d >= 2, got {max_n}, {max_d}")
    pairs = [(n, d) for n in range(1, max_n + 1) for d in range(2, max_d + 1)]
    pairs.append((5, 2))
    entries = _answer_all(
        lambda q: _ah_entry(*q, config),
        [(MultiProjectiveSpace((n,)), Multidegree((d,))) for n, d in pairs],
        lambda q: ideal_basis_size(*q) ** 3,
    )
    return {"cases": entries, "passed": all(e["ok"] for e in entries)}
