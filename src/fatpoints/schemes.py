"""Fat-point schemes on products of projective spaces.

A scheme is a list of fat points (multiplicity a at a point, imposing all
partial-derivative vanishings of order < a), optional jet conditions (the
degree-kappa term of the Taylor expansion at a base point, evaluated at a
tangent direction, must vanish), and an optional list of coordinate
subvarieties the forms must contain.

Points are either "general" (drawn at evaluation time, optionally confined
to a coordinate stratum) or pinned to explicit coordinates.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import comb, factorial

from .spaces import (
    CoordinateSubvariety,
    Multidegree,
    MultiProjectiveSpace,
    ideal_basis_size,
)


def any_true(mask) -> bool:
    """Whether a comparison holds anywhere: `mask` is the bool of comparing
    ints, or the bool array of comparing integer arrays.  The type is looked
    at first, so that a comparison of ints costs no array call."""
    return mask if isinstance(mask, bool) else bool(mask.any())


def binom(x, k: int):
    """C(x, k) for x >= 0 and a fixed int k >= 0, where x is an int or an
    integer array (int64, or object holding Python ints), entry by entry.

    An array takes the exact product form (x-k+1)...x // k!, whose largest
    value formed is the product, k! C(x, k).  An int takes math.comb, whose
    cost does not grow with k: a fat point's k is its multiplicity minus 1,
    and the CLI counts the conditions of any multiplicity it is given."""
    if isinstance(x, int):
        return comb(x, k)
    out = 1
    for i in range(k):
        out = out * (x - i)
    return out // factorial(k)


def conditions_of_fat_point(multiplicity: int, ambient_dim):
    """Number of linear conditions an a-fat point imposes on forms on an
    N-dimensional variety: the partial derivatives of order < a.  N may be
    an integer array (see binom); the multiplicity is an int."""
    if any_true((multiplicity < 1) | (ambient_dim < 1)):
        raise ValueError("multiplicity and ambient dimension must be >= 1")
    return binom(ambient_dim + multiplicity - 1, multiplicity - 1)


@dataclass(frozen=True)
class PointSpec:
    """Where a point lives: a coordinate stratum (or None for a general
    point) and optionally pinned coordinates, one tuple per factor."""

    stratum: CoordinateSubvariety | None = None
    coords: tuple[tuple[int, ...], ...] | None = None

    def check(self, space: MultiProjectiveSpace):
        if self.stratum is not None:
            self.stratum.check(space)
        if self.coords is not None:
            if len(self.coords) != space.num_factors:
                raise ValueError("pinned coordinates do not match factor count")
            for vec, c in zip(self.coords, space.coord_counts()):
                if len(vec) != c:
                    raise ValueError("pinned coordinate vector has wrong length")
                if not any(vec):
                    raise ValueError("pinned coordinate vector is zero")


@dataclass(frozen=True)
class FatPoint:
    multiplicity: int
    spec: PointSpec = field(default_factory=PointSpec)

    def __post_init__(self):
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be >= 1")


@dataclass(frozen=True)
class JetCondition:
    """Vanishing of the order-`order` Taylor term at the base point,
    evaluated at a tangent direction.

    The direction is a vector of length ambient_dim (affine coordinates of
    the chart at the base point), or None to draw a general one.
    """

    base_index: int
    order: int
    direction: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("jet order must be >= 1")


@dataclass
class FatPointScheme:
    points: list[FatPoint]
    jets: list[JetCondition] = field(default_factory=list)
    contained: list[CoordinateSubvariety] = field(default_factory=list)

    def check(self, space: MultiProjectiveSpace):
        for pt in self.points:
            pt.spec.check(space)
        for sub in self.contained:
            sub.check(space)
        for jet in self.jets:
            if not 0 <= jet.base_index < len(self.points):
                raise ValueError("jet base index out of range")
            if self.points[jet.base_index].multiplicity < jet.order:
                raise ValueError(
                    "jet order exceeds the multiplicity of its base point"
                )
            if jet.direction is not None and len(jet.direction) != space.ambient_dim():
                raise ValueError("jet direction has wrong length")

    def conditions(self, ambient_dim: int) -> int:
        """Total number of linear conditions (each jet contributes one)."""
        return sum(
            conditions_of_fat_point(pt.multiplicity, ambient_dim)
            for pt in self.points
        ) + len(self.jets)

    def type_label(self) -> str:
        """Multiplicity profile like '3,2^9' (descending, run-length)."""
        mults = sorted((pt.multiplicity for pt in self.points), reverse=True)
        runs: list[tuple[int, int]] = []
        for m in mults:
            if runs and runs[-1][0] == m:
                runs[-1] = (m, runs[-1][1] + 1)
            else:
                runs.append((m, 1))
        return ",".join(f"{m}^{c}" if c > 1 else str(m) for m, c in runs)


_TYPE_TERM = re.compile(r"^(\d+)(?:\^(\d+))?$")


def parse_scheme_type(text: str) -> list[tuple[int, int]]:
    """Parse a multiplicity profile like '3,2^15,1^6' into
    [(mult, count), ...] in the written order."""
    out = []
    for term in text.split(","):
        term = term.strip()
        m = _TYPE_TERM.match(term)
        if not m:
            raise ValueError(f"bad scheme type term: {term!r}")
        mult = int(m.group(1))
        count = int(m.group(2)) if m.group(2) else 1
        if mult < 1 or count < 1:
            raise ValueError(f"bad scheme type term: {term!r}")
        out.append((mult, count))
    return out


def make_scheme(
    profile: str | list[tuple[int, int]],
    strata: list[CoordinateSubvariety | None] | None = None,
) -> FatPointScheme:
    """Build a scheme of general points from a multiplicity profile.

    `strata`, if given, assigns a stratum (or None) to each point in order;
    it may be shorter than the point list, remaining points are general.
    """
    if isinstance(profile, str):
        profile = parse_scheme_type(profile)
    points: list[FatPoint] = []
    for mult, count in profile:
        points.extend(FatPoint(mult) for _ in range(count))
    if strata:
        if len(strata) > len(points):
            raise ValueError("more strata than points")
        points = [
            FatPoint(pt.multiplicity, PointSpec(stratum=strata[i]))
            if i < len(strata) and strata[i] is not None
            else pt
            for i, pt in enumerate(points)
        ]
    return FatPointScheme(points)


def virtual_dim(
    space: MultiProjectiveSpace, degree: Multidegree, scheme: FatPointScheme
) -> int:
    """Basis size minus the number of conditions (may be negative)."""
    scheme.check(space)
    ncols = ideal_basis_size(space, degree, scheme.contained)
    return ncols - scheme.conditions(space.ambient_dim())
