"""Secant dimensions and defectivity of Segre-Veronese embeddings.

The image of P^{n_1} x ... x P^{n_k} under the multidegree-d embedding
lives in P^{L-1}, L = number of monomials.  By the double-point
(tangent-space) criterion, the codimension of the r-th secant variety
equals the dimension of the system of forms with r general 2-fat base
points.  Hence the secant variety has the expected dimension iff that
system is regular (or zero once the virtual dimension goes negative).
"""
from __future__ import annotations

from dataclasses import dataclass

from .engine import (
    Certificate,
    DimensionVerdict,
    PrimeFieldConfig,
    _to_json,
    dimensions,
    status_matches,
)
from .schemes import make_scheme
from .spaces import Multidegree, MultiProjectiveSpace, ideal_basis_size


@dataclass
class SecantVerdict:
    space: MultiProjectiveSpace
    degree: Multidegree
    r: int
    expected_dim: int
    actual_dim: int
    defect: int
    defective: bool
    certificate: Certificate

    @property
    def certified(self) -> bool:
        return self.certificate.status.certified

    def to_json(self) -> dict:
        return _to_json(self)


def secant_dims(
    space: MultiProjectiveSpace,
    degree: Multidegree,
    rs: list[int],
    config: PrimeFieldConfig | None = None,
) -> list[SecantVerdict]:
    """Dimension of the r-th secant variety via r general 2-fat points, for
    each r in rs.  The r points are the first r of one draw of max(rs), so
    one dimensions() call answers every r.  The secant's actual and
    expected dimensions are L - 1 less the system's computed and expected
    ones, so its defect is the system's computed_dim - expected_dim.  The
    scheme is one run, and dimensions() checks the limits before any point
    is drawn."""
    if any(r < 1 for r in rs):
        raise ValueError("r must be >= 1")
    scheme = make_scheme([(2, max(rs, default=0))])
    verdicts = []
    for r, cert in zip(rs, dimensions(space, degree, scheme, rs, config)):
        exp, actual = cert.cols - 1 - cert.expected_dim, cert.cols - 1 - cert.computed_dim
        defect = cert.computed_dim - cert.expected_dim
        verdicts.append(
            SecantVerdict(space, degree, r, exp, actual, defect, defect > 0, cert)
        )
    return verdicts


def secant_dim(
    space: MultiProjectiveSpace,
    degree: Multidegree,
    r: int,
    config: PrimeFieldConfig | None = None,
) -> SecantVerdict:
    """Dimension of the r-th secant variety via r general 2-fat points."""
    return secant_dims(space, degree, [r], config)[0]


def critical_r(space: MultiProjectiveSpace, degree: Multidegree) -> tuple[int, int]:
    """(r_low, r_high): the largest r with nonnegative virtual dimension of
    the 2-fat point system, and the smallest r with negative one.  Proving
    regularity at r_low and emptiness at r_high certifies non-defectivity
    for all r at once.  A system of fewer than N + 1 monomials has no such
    r, as one double point already imposes more conditions than it has
    monomials, and is refused."""
    L = ideal_basis_size(space, degree)
    N1 = space.ambient_dim() + 1
    if L < N1:
        raise ValueError(
            f"fewer monomials ({L}) than N + 1 = {N1}: "
            "no number of double points is critical"
        )
    r_low = L // N1
    return r_low, r_low + 1


def collision_r_values(
    space: MultiProjectiveSpace, degree: Multidegree
) -> tuple[int, ...]:
    """The numbers of 2-fat points theorem_hypotheses checks: the floor and
    the ceiling of L / (N + 1).  The floor is r_low of critical_r; the
    ceiling is r_high, or r_low again when N + 1 divides L."""
    r_low, r_high = critical_r(space, degree)
    if ideal_basis_size(space, degree) % (space.ambient_dim() + 1):
        return r_low, r_high
    return (r_low,)


@dataclass
class DefectivityReport:
    space: MultiProjectiveSpace
    degree: Multidegree
    r_low: int
    r_high: int
    low: Certificate
    high: Certificate

    @property
    def certified_nondefective(self) -> bool:
        return (
            status_matches("Regular", self.low) and status_matches("Zero", self.high)
        )

    @property
    def defective_evidence(self) -> list[int]:
        out = []
        if self.low.status == DimensionVerdict.SPECIAL_CANDIDATE:
            out.append(self.r_low)
        if self.high.status == DimensionVerdict.SPECIAL_CANDIDATE:
            out.append(self.r_high)
        return out

    def to_json(self) -> dict:
        return dict(
            _to_json(self),
            certified_nondefective=self.certified_nondefective,
            defective_evidence=self.defective_evidence,
        )


def is_defective(
    space: MultiProjectiveSpace,
    degree: Multidegree,
    config: PrimeFieldConfig | None = None,
) -> DefectivityReport:
    """Certify non-defectivity at the critical numbers of double points
    (critical_r, which refuses a system that has none)."""
    r_low, r_high = critical_r(space, degree)
    low, high = secant_dims(space, degree, [r_low, r_high], config)
    return DefectivityReport(
        space, degree, r_low, r_high, low.certificate, high.certificate
    )


@dataclass
class HypothesisReport:
    """Checks, for both candidate numbers of colliding-point blocks, the
    four hypotheses under which a single (n+1)-point collision argument
    certifies non-defectivity for all r."""

    space: MultiProjectiveSpace
    degree: Multidegree
    r_values: tuple[int, ...]
    big_enough: bool  # dim of the full system >= (N+1)^2
    gap_ok: bool  # dim L(3) - dim L(4) >= C(N+1, 2)
    dim3: int
    dim4: int
    per_r: dict[int, dict]

    @property
    def all_hold(self) -> bool:
        return (
            self.big_enough
            and self.gap_ok
            and all(
                d["residual_regular"] and d["quartic_zero"]
                for d in self.per_r.values()
            )
        )

    def to_json(self) -> dict:
        return dict(_to_json(self), all_hold=self.all_hold)


def theorem_hypotheses(
    space: MultiProjectiveSpace,
    degree: Multidegree,
    config: PrimeFieldConfig | None = None,
) -> HypothesisReport:
    N = space.ambient_dim()
    r_values = collision_r_values(space, degree)

    # r = N + 1 + k points collide into one fat point plus k double points.
    # The lone fat point is the 1-point prefix of each residual scheme, so
    # one dimensions() call per fat multiplicity answers every count.
    counts = sorted({1, *(r - N for r in r_values if r > N)})

    def with_fat_head(mult: int) -> dict:
        scheme = make_scheme([(mult, 1), (2, counts[-1] - 1)])
        return dict(zip(counts, dimensions(space, degree, scheme, counts, config)))

    residual, quartic = with_fat_head(3), with_fat_head(4)
    cert3, cert4 = residual[1], quartic[1]
    big_enough = cert3.cols >= (N + 1) ** 2
    gap_ok = cert3.computed_dim - cert4.computed_dim >= N * (N + 1) // 2

    per_r = {}
    for r in r_values:
        k = r - N - 1
        if k < 0:
            per_r[r] = {
                "k": k,
                "residual_regular": False,
                "quartic_zero": False,
                "note": "fewer than N+2 points; collision argument not applicable",
            }
            continue
        res, quart = residual[1 + k], quartic[1 + k]
        per_r[r] = {
            "k": k,
            "residual_regular": res.status.certified,
            "residual_dim": res.computed_dim,
            "quartic_zero": status_matches("Zero", quart),
            "quartic_dim": quart.computed_dim,
        }
    return HypothesisReport(
        space, degree, r_values, big_enough, gap_ok,
        cert3.computed_dim, cert4.computed_dim, per_r,
    )


# classification of defective Veronese embeddings (degree >= 2, single
# factor): quadrics for 2 <= r <= n, plus four sporadic cases
AH_DEFECTIVE_SPORADIC = frozenset({(2, 4, 5), (3, 4, 9), (4, 3, 7), (4, 4, 14)})


def veronese_defective_rs(n: int, d: int) -> list[int]:
    if d == 2:
        return list(range(2, n + 1))
    return sorted(r for (nn, dd, r) in AH_DEFECTIVE_SPORADIC if (nn, dd) == (n, d))
