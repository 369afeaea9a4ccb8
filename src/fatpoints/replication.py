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
"""
from __future__ import annotations

from dataclasses import dataclass

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
from .spaces import CoordinateSubvariety, Multidegree, MultiProjectiveSpace


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


def run_basecases(
    filter: str | None = None,
    config: PrimeFieldConfig | None = None,
    cases: list[BaseCase] | None = None,
) -> dict:
    """Replay the fixture registry through the engine.  The report is
    deterministic for a fixed config (no timestamps or timings) and is
    ordered by fixture id."""
    if cases is None:
        cases = load_bundled_registry()
    selected = [c for c in cases if _case_matches(c, filter)]
    if not selected:
        # an empty replay would pass nothing and fail nothing
        raise ValueError(f"no fixture matches the filter {filter!r}")
    selected.sort(key=lambda c: c.case_id)

    entries = []
    failed = []
    for case in selected:
        cert = dimension(case.space, case.degree, case.scheme, config)
        ok = status_matches(case.expected, cert)
        if not ok:
            failed.append(case.case_id)
        entries.append(
            {
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
                "ok": ok,
            }
        )
    return {
        "cases": entries,
        "total": len(entries),
        "failed": failed,
        "passed": not failed,
        "table_flags": reconcile_specializations(),
    }


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
    of each key, and every entry keeps its own space and degree."""
    entries = []
    ok = True
    reports = {}
    for c, d in ((3, 3), (3, 4), (4, 4)):
        for m in range(1, max_m + 1):
            for n in range(1, max_n + 1):
                key = tuple(sorted(((m, c), (n, d))))
                if key not in reports:
                    reports[key] = is_defective(
                        MultiProjectiveSpace((m, n)), Multidegree((c, d)), config
                    )
                rep = reports[key]
                good = rep.certified_nondefective
                ok = ok and good
                entries.append(
                    {
                        "space": [m, n],
                        "degree": [c, d],
                        "r_low": rep.r_low,
                        "r_high": rep.r_high,
                        "low_status": rep.low.status.value,
                        "high_status": rep.high.status.value,
                        "certified_nondefective": good,
                    }
                )
    return {"cases": entries, "passed": ok}


def verify_ah(
    config: PrimeFieldConfig | None = None,
    max_n: int = 4,
    max_d: int = 5,
) -> dict:
    """Spot-check the classification of defective Veronese embeddings:
    quadrics are defective for 2 <= r <= n (checked through n = 5), the
    four sporadic higher-degree cases have defect >= 1, and everything
    else up to (max_n, max_d) is certified non-defective at the two
    critical numbers of points."""
    pairs = [(n, d) for n in range(1, max_n + 1) for d in range(2, max_d + 1)]
    pairs.append((5, 2))
    entries = []
    ok = True
    for n, d in pairs:
        space = MultiProjectiveSpace((n,))
        degree = Multidegree((d,))
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
        ok = ok and good
        entries.append(
            {
                "n": n,
                "d": d,
                "expected_defective_rs": expected_rs,
                "certified_nondefective": rep.certified_nondefective,
                "defects": {str(r): defects[r] for r in sorted(defects)},
                "ok": good,
            }
        )
    return {"cases": entries, "passed": ok}
