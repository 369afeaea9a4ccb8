"""Fat-point schemes on products of projective spaces.

A scheme is a sequence of fat points (multiplicity a at a point, imposing
all partial-derivative vanishings of order < a), optional jet conditions
(the degree-kappa term of the Taylor expansion at a base point, evaluated
at a tangent direction, must vanish), and an optional list of coordinate
subvarieties the forms must contain.

The points are held as runs: (point, count) pairs, count equal points in a
row.  The runs are canonical (adjacent equal points merge, empty runs
drop), so equal schemes have equal runs, and a scheme of many points costs
one entry per run.  Every scheme operation goes over the runs; `points`
lists one entry per point for the readers that need one.

A scheme is one frozen value, defined here alone: its jets and contained
subvarieties are tuples, whatever iterable they were given in, so equal
schemes compare and hash equal and a scheme is a key (the engine's memo
keys on it).  A step that changes only some parts derives the new scheme
with dataclasses.replace, which carries every other part over.

Points are either "general" (drawn at evaluation time, optionally confined
to a coordinate stratum) or pinned to explicit coordinates.  make_scheme
builds a scheme of unpinned points from its groups.
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

    def __post_init__(self):
        if self.coords is not None:
            object.__setattr__(self, "coords", tuple(tuple(vec) for vec in self.coords))

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
        if self.direction is not None:
            object.__setattr__(self, "direction", tuple(self.direction))


@dataclass(frozen=True)
class FatPointScheme:
    """Fat points as canonical runs (point, count), made from the runs or
    lone points given; jets and contained subvarieties, held as tuples.  A
    scheme is one frozen value: equal schemes compare and hash equal."""

    runs: tuple[tuple[FatPoint, int], ...]
    jets: tuple[JetCondition, ...] = ()
    contained: tuple[CoordinateSubvariety, ...] = ()

    def __post_init__(self):
        """Make the runs canonical: each item given is a run (point, count)
        or a lone FatPoint, a run of one; adjacent equal points merge and
        empty runs drop.  A negative count is a ValueError.  The jets and
        contained subvarieties may be given in any iterable, and are kept
        as tuples."""
        runs: list[tuple[FatPoint, int]] = []
        for item in self.runs:
            pt, count = (item, 1) if isinstance(item, FatPoint) else item
            if count < 0:
                raise ValueError(f"a run of {count} points: counts must be >= 0")
            if runs and runs[-1][0] == pt:
                runs[-1] = (pt, runs[-1][1] + count)
            elif count:
                runs.append((pt, count))
        object.__setattr__(self, "runs", tuple(runs))
        object.__setattr__(self, "jets", tuple(self.jets))
        object.__setattr__(self, "contained", tuple(self.contained))

    def __len__(self) -> int:
        """The number of points."""
        return sum(count for _, count in self.runs)

    @property
    def points(self) -> list[FatPoint]:
        """One entry per point, in order: a new list, read off the runs."""
        return [pt for pt, count in self.runs for _ in range(count)]

    def split(self, k: int) -> tuple[tuple, tuple]:
        """The runs of the first k points and the runs of the rest, for
        0 <= k <= len(self); at most one run is cut."""
        for i, (pt, count) in enumerate(self.runs):
            if k < count:
                head = self.runs[:i] + (((pt, k),) if k else ())
                return head, ((pt, count - k),) + self.runs[i + 1 :]
            k -= count
        return self.runs, ()

    def check(self, space: MultiProjectiveSpace):
        for pt, _ in self.runs:
            pt.spec.check(space)
        for sub in self.contained:
            sub.check(space)
        for jet in self.jets:
            if not 0 <= jet.base_index < len(self):
                raise ValueError("jet base index out of range")
            # the base point is the first point after the first base_index
            if self.split(jet.base_index)[1][0][0].multiplicity < jet.order:
                raise ValueError(
                    "jet order exceeds the multiplicity of its base point"
                )
            if jet.direction is not None and len(jet.direction) != space.ambient_dim():
                raise ValueError("jet direction has wrong length")

    def conditions(self, ambient_dim: int) -> int:
        """Total number of linear conditions (each jet contributes one)."""
        return sum(
            count * conditions_of_fat_point(pt.multiplicity, ambient_dim)
            for pt, count in self.runs
        ) + len(self.jets)

    def type_label(self) -> str:
        """Multiplicity profile like '3,2^9' (descending, run-length)."""
        mults = sorted({pt.multiplicity for pt, _ in self.runs}, reverse=True)
        totals = [(m, sum(n for pt, n in self.runs if pt.multiplicity == m)) for m in mults]
        return ",".join(f"{m}^{c}" if c > 1 else str(m) for m, c in totals)


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


def make_scheme(profile: str | list[tuple]) -> FatPointScheme:
    """Build a scheme of unpinned points, group by group in the written
    order.  A group is (multiplicity, count), general points, or
    (multiplicity, count, stratum), points confined to a coordinate stratum
    (None for general ones); a string is a multiplicity profile like
    '3,2^9' (parse_scheme_type).  A group is a run of `count` equal points,
    one frozen FatPoint; a negative count is a ValueError.
    degeneration.specialize_onto puts points on a divisor."""
    if isinstance(profile, str):
        profile = parse_scheme_type(profile)
    runs = []
    for mult, count, *stratum in profile:
        (stratum,) = stratum or (None,)
        runs.append((FatPoint(mult, PointSpec(stratum)), count))
    return FatPointScheme(runs)


def virtual_dim(
    space: MultiProjectiveSpace, degree: Multidegree, scheme: FatPointScheme
) -> int:
    """Basis size minus the number of conditions (may be negative)."""
    scheme.check(space)
    ncols = ideal_basis_size(space, degree, scheme.contained)
    return ncols - scheme.conditions(space.ambient_dim())
