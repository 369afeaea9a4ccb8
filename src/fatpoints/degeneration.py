"""Degeneration tools: residue/trace along a coordinate divisor,
Castelnuovo-type bounds, star configurations and point collisions.

Specializing some base points onto a divisor D of multidegree e_i splits a
linear system into the residue (degree dropped by one in the i-th factor,
multiplicities on D dropped by one) and the trace (the restriction to D,
full multiplicities).  Virtual dimensions are additive along this split,
and dim L(X) <= dim Res + dim Tr holds at any fixed set of points.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .engine import (
    DEFAULT_PRIME,
    Certificate,
    PrimeFieldConfig,
    check_columns,
    dimension,
    draw_scheme_points,
    rank_fp,
)
from .schemes import (
    FatPoint,
    FatPointScheme,
    JetCondition,
    PointSpec,
    conditions_of_fat_point,
    make_scheme,
)
from .spaces import CoordinateSubvariety, Multidegree, MultiProjectiveSpace


@dataclass(frozen=True)
class DivisorSpec:
    """The coordinate divisor {x_index = 0} in one factor."""

    factor: int
    index: int

    def check(self, space: MultiProjectiveSpace):
        if not 0 <= self.factor < space.num_factors:
            raise ValueError("divisor factor out of range")
        if not 0 <= self.index <= space.factor_dims[self.factor]:
            raise ValueError("divisor coordinate out of range")


def point_on_divisor(pt: FatPoint, divisor: DivisorSpec) -> bool:
    if pt.spec.coords is not None:
        return pt.spec.coords[divisor.factor][divisor.index] == 0
    if pt.spec.stratum is not None:
        return divisor.index in pt.spec.stratum.vanishing[divisor.factor]
    return False


def _onto(pt: FatPoint, space: MultiProjectiveSpace, divisor: DivisorSpec) -> FatPoint:
    """The point confined to the divisor: its stratum gains the divisor's
    coordinate, and pinned coordinates are dropped."""
    stratum = pt.spec.stratum
    van = list(
        stratum.vanishing
        if stratum is not None
        else [frozenset()] * space.num_factors
    )
    van[divisor.factor] = van[divisor.factor] | {divisor.index}
    return FatPoint(pt.multiplicity, PointSpec(CoordinateSubvariety(tuple(van))))


def specialize_onto(
    space: MultiProjectiveSpace,
    scheme: FatPointScheme,
    divisor: DivisorSpec,
    count: int,
) -> FatPointScheme:
    """Move the first `count` points of the scheme onto the divisor; a
    count of 0 moves none.  At most one run is cut."""
    divisor.check(space)
    if not 0 <= count <= len(scheme):
        raise ValueError(
            f"cannot move {count} of {len(scheme)} points onto the divisor"
        )
    head, rest = scheme.split(count)
    moved = tuple((_onto(pt, space, divisor), n) for pt, n in head)
    return FatPointScheme(moved + rest, list(scheme.jets), list(scheme.contained))


def residue(
    space: MultiProjectiveSpace,
    degree: Multidegree,
    scheme: FatPointScheme,
    divisor: DivisorSpec,
) -> tuple[Multidegree, FatPointScheme]:
    """Residue: degree drops by one across the divisor, multiplicities of
    points on the divisor drop by one (and leave the scheme at zero)."""
    divisor.check(space)
    if scheme.jets:
        raise ValueError("residue of jet conditions is not supported")
    degs = list(degree.degrees)
    if degs[divisor.factor] == 0:
        raise ValueError("degree already zero across the divisor")
    degs[divisor.factor] -= 1
    runs = []
    for pt, n in scheme.runs:
        if not point_on_divisor(pt, divisor):
            runs.append((pt, n))
        elif pt.multiplicity > 1:
            runs.append((FatPoint(pt.multiplicity - 1, pt.spec), n))
    return Multidegree(tuple(degs)), FatPointScheme(runs, contained=list(scheme.contained))


def _drop_coord(van: frozenset[int], index: int) -> frozenset[int]:
    return frozenset(i if i < index else i - 1 for i in van if i != index)


def trace(
    space: MultiProjectiveSpace,
    degree: Multidegree,
    scheme: FatPointScheme,
    divisor: DivisorSpec,
) -> tuple[MultiProjectiveSpace, Multidegree, FatPointScheme]:
    """Trace: restriction to the divisor.  Only points on the divisor
    survive, with full multiplicities; the divisor's coordinate is deleted
    from the factor (which must have dimension >= 2)."""
    divisor.check(space)
    if scheme.jets:
        raise ValueError("trace of jet conditions is not supported")
    dims = list(space.factor_dims)
    if dims[divisor.factor] < 2:
        raise ValueError("trace would collapse a P^1 factor to a point")
    dims[divisor.factor] -= 1
    tspace = MultiProjectiveSpace(tuple(dims))

    def map_stratum(stratum: CoordinateSubvariety | None):
        if stratum is None:
            return None
        van = list(stratum.vanishing)
        van[divisor.factor] = _drop_coord(van[divisor.factor], divisor.index)
        if not any(van):
            return None
        return CoordinateSubvariety(tuple(van))

    j = divisor.index
    runs = []
    for pt, n in scheme.runs:
        if point_on_divisor(pt, divisor):
            coords = None if pt.spec.coords is None else tuple(
                vec[:j] + vec[j + 1 :] if f == divisor.factor else vec
                for f, vec in enumerate(pt.spec.coords)
            )
            spec = PointSpec(map_stratum(pt.spec.stratum), coords)
            runs.append((FatPoint(pt.multiplicity, spec), n))

    contained = []
    for sub in scheme.contained:
        mapped = map_stratum(sub)
        if mapped is None:
            raise ValueError("a contained subvariety collapses onto the divisor")
        contained.append(mapped)
    return tspace, degree, FatPointScheme(runs, contained=contained)


def _pin_scheme(
    space: MultiProjectiveSpace,
    scheme: FatPointScheme,
    prime: int,
    seed: int,
) -> FatPointScheme:
    """Draw coordinates once and pin them, so residue and trace are taken
    at the same points."""
    counts, offs = space.coord_counts(), space.coord_offsets()
    flat_pts, _, _ = draw_scheme_points(space, scheme, prime, seed)
    points = []
    for pt, flat in zip(scheme.points, flat_pts.tolist()):
        coords = tuple(tuple(flat[off : off + c]) for off, c in zip(offs, counts))
        points.append(FatPoint(pt.multiplicity, PointSpec(pt.spec.stratum, coords)))
    return FatPointScheme(points, list(scheme.jets), list(scheme.contained))


def castelnuovo_bound_check(
    space: MultiProjectiveSpace,
    degree: Multidegree,
    scheme: FatPointScheme,
    divisor: DivisorSpec,
    config: PrimeFieldConfig | None = None,
) -> dict:
    """dim L(X) <= dim L(Res) + dim L(Tr) at one shared draw of points,
    together with vdim additivity and vdim <= dim, the vdims read off the
    three certificates.  The column and row limits are checked before the
    points are drawn."""
    config = config or PrimeFieldConfig()
    check_columns(space, degree, scheme.contained, scheme.conditions(space.ambient_dim()))
    pinned = _pin_scheme(space, scheme, config.prime, config.seed)
    rdeg, rscheme = residue(space, degree, pinned, divisor)
    tspace, tdeg, tscheme = trace(space, degree, pinned, divisor)
    cx = dimension(space, degree, pinned, config)
    cr = dimension(space, rdeg, rscheme, config)
    ct = dimension(tspace, tdeg, tscheme, config)
    vd, vr, vt = cx.virtual_dim, cr.virtual_dim, ct.virtual_dim
    dx, dr, dt = cx.computed_dim, cr.computed_dim, ct.computed_dim
    return {
        "vdim": vd, "vdim_residue": vr, "vdim_trace": vt, "additive": vd == vr + vt,
        "dim": dx, "dim_residue": dr, "dim_trace": dt,
        "bound_holds": dx <= dr + dt, "vdim_le_dim": vd <= dx,
    }


# --- star configurations ------------------------------------------------


@dataclass
class StarConfiguration:
    """The binom(n+1, 2) points cut on a general hyperplane by the lines
    through pairs of n+1 general anchor points of P^n.  The anchors and the
    hyperplane are drawn over F_p; the points are integers."""

    n: int
    prime: int
    hyperplane: tuple[int, ...]
    anchors: list[tuple[int, ...]]
    points: dict[tuple[int, int], tuple[int, ...]]

    def embedded_points(self) -> list[tuple[int, ...]]:
        """The star points as points of the hyperplane P^{n-1}: drop one
        coordinate where the hyperplane's covector is invertible."""
        e = self.hyperplane
        j0 = next(i for i, c in enumerate(e) if c % self.prime)
        return [
            tuple(c for i, c in enumerate(t) if i != j0)
            for _, t in sorted(self.points.items())
        ]


def star_configuration(n: int, prime: int, seed: int) -> StarConfiguration:
    """Draw anchors and hyperplane until, over F_prime, no anchor lies on the
    hyperplane and no star point is zero (two proportional anchors); a
    ValueError after 64 draws.  The star points are integers, not reduced
    mod prime: they lie on the hyperplane and on their anchors' lines over
    the integers, so every attempt's prime reduces them to a star.

    The cubics doubled along the binom(n+1, 2) star points of the hyperplane
    P^(n-1) are the widest and tallest system star_nonspeciality_check
    builds.  Past the engine's column or row limit (check_columns) the star
    is refused with ValueError before any of its (n+1)^2 coordinates is
    drawn."""
    if n < 2:
        raise ValueError("need n >= 2")
    rows = comb(n + 1, 2) * conditions_of_fat_point(2, n - 1)
    check_columns(MultiProjectiveSpace((n - 1,)), Multidegree((3,)), rows=rows)
    rng = random.Random(seed)
    for _ in range(64):
        anchors = [
            tuple(rng.randrange(prime) for _ in range(n + 1)) for _ in range(n + 1)
        ]
        e = tuple(rng.randrange(prime) for _ in range(n + 1))
        pairing = [sum(a * b for a, b in zip(e, p)) for p in anchors]
        # the line through anchors i, j meets {e.x = 0} at
        # (e.p_j) p_i - (e.p_i) p_j
        points = {
            (i, j): tuple(
                pairing[j] * a - pairing[i] * b for a, b in zip(anchors[i], anchors[j])
            )
            for i, j in combinations(range(n + 1), 2)
        }
        if all(c % prime for c in pairing) and all(
            any(c % prime for c in t) for t in points.values()
        ):
            return StarConfiguration(n, prime, e, anchors, points)
    raise ValueError(f"no star in P^{n} over F_{prime}: 64 degenerate draws")


def star_span_check(star: StarConfiguration) -> bool:
    """Every subset I of anchors with |I| = s >= 3 gives points t_ij,
    i,j in I, spanning at most a P^{s-2}.

    Checked once per star point, not per subset.  No anchor p_i lies on the
    hyperplane (e.p_i != 0); each t_ij lies on it (e.t_ij = 0) and on the
    line of p_i, p_j: they are not proportional, and [p_i; p_j; t_ij] has
    rank <= 2.  Then every t_ij with i, j in I lies in span{p_i : i in I}
    meet e^perp.  That span has vector dimension at most s and is not
    inside e^perp, so the meet has vector dimension at most s - 1, and the
    t_ij span at most a P^{s-2}.  So every star this accepts has the subset
    property.  The converse fails for n = 2, where any three points of the
    hyperplane have it."""
    p, e, anchors = star.prime, star.hyperplane, star.anchors
    pairing = [sum(a * b for a, b in zip(e, q)) % p for q in anchors]
    if not all(pairing):
        return False
    for i, j in combinations(range(star.n + 1), 2):
        p_i, p_j, t = anchors[i], anchors[j], [c % p for c in star.points[(i, j)]]
        # as e.p_i != 0, p_j is proportional to p_i iff (e.p_i) p_j = (e.p_j) p_i
        if not any((pairing[i] * b - pairing[j] * a) % p for a, b in zip(p_i, p_j)):
            return False
        if sum(a * b for a, b in zip(e, t)) % p or rank_fp([p_i, p_j, t], p) > 2:
            return False
    return True


def star_nonspeciality_check(
    star: StarConfiguration, seed: int = 0
) -> dict[str, Certificate]:
    """The star points T on the hyperplane P^{n-1} behave like general
    points for quadrics through T, cubics through T and cubics doubled
    along T.  Verified by pinning the star points into the engine at
    PrimeFieldConfig(star.prime, seed)."""
    config = PrimeFieldConfig(star.prime, seed)
    pts = star.embedded_points()
    space = MultiProjectiveSpace((star.n - 1,))
    out = {}
    for name, deg, mult in (
        ("quadrics-simple", 2, 1),
        ("cubics-simple", 3, 1),
        ("cubics-double", 3, 2),
    ):
        scheme = FatPointScheme(
            [FatPoint(mult, PointSpec(None, (tuple(t),))) for t in pts]
        )
        out[name] = dimension(space, Multidegree((deg,)), scheme, config)
    return out


# --- collisions ----------------------------------------------------------


def collision_scheme(
    space: MultiProjectiveSpace,
    extra_doubles: int,
    seed: int = 0,
) -> FatPointScheme:
    """The limit of N+1 colliding 2-fat points (N = ambient dimension):
    one 3-fat point plus binom(N+1,2) order-3 jet conditions along the
    pairwise directions of the colliding points, plus the remaining
    general 2-fat points.

    The jet directions are the pairwise differences of N+1 random tangent
    vectors, the directions actually arising from a collision.  They stay
    integers, so that each attempt reduces them at its own prime and they
    are pairwise differences there too: d_ij + d_jk = d_ik mod every prime.
    """
    N = space.ambient_dim()
    jets: list[JetCondition] = []
    rng = random.Random(seed ^ 0x5F3759DF)
    vecs = [
        tuple(rng.randrange(DEFAULT_PRIME) for _ in range(N)) for _ in range(N + 1)
    ]
    for i, j in combinations(range(N + 1), 2):
        d = tuple(a - b for a, b in zip(vecs[i], vecs[j]))
        jets.append(JetCondition(0, 3, d))
    return FatPointScheme(make_scheme([(3, 1), (2, extra_doubles)]).runs, jets)


def collision_conditions(N: int) -> int:
    """A collided block imposes as many conditions as N+1 2-fat points."""
    return conditions_of_fat_point(3, N) + comb(N + 1, 2)
