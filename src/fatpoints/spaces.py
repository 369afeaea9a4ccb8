"""Products of projective spaces, multidegrees and monomial bases.

A space P^{n_1} x ... x P^{n_k} carries one block of homogeneous coordinates
per factor.  Forms of multidegree (d_1, ..., d_k) are spanned by monomials
that have degree d_i in the i-th block.  A monomial is its flat exponent
tuple, one entry per coordinate with the factor blocks concatenated (block f
starts at coord_offsets()[f]).  The basis is ordered factor-major: the
exponents of the first factor vary slowest, and within a factor exponent
tuples are listed lexicographically descending (so x_0^d comes first).
Every consumer of column indices relies on this order.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb, prod


@dataclass(frozen=True)
class MultiProjectiveSpace:
    """P^{n_1} x ... x P^{n_k}, stored as the tuple of factor dimensions."""

    factor_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(n) for n in self.factor_dims)
        if not dims:
            raise ValueError("need at least one factor")
        if any(n < 1 for n in dims):
            raise ValueError("factor dimensions must be >= 1")
        object.__setattr__(self, "factor_dims", dims)

    @property
    def num_factors(self) -> int:
        return len(self.factor_dims)

    def ambient_dim(self) -> int:
        """Dimension of the product as a variety (sum of the n_i)."""
        return sum(self.factor_dims)

    def coord_counts(self) -> tuple[int, ...]:
        """Number of homogeneous coordinates per factor (n_i + 1)."""
        return tuple(n + 1 for n in self.factor_dims)

    def coord_offsets(self) -> tuple[int, ...]:
        """Offset of each factor's block in the flattened coordinate vector."""
        offs = [0]
        for n in self.factor_dims[:-1]:
            offs.append(offs[-1] + n + 1)
        return tuple(offs)

    def total_coords(self) -> int:
        return sum(self.coord_counts())

    def label(self) -> str:
        return "x".join(str(n) for n in self.factor_dims)


@dataclass(frozen=True)
class Multidegree:
    """One degree per factor; degree 0 factors are allowed (constant block)."""

    degrees: tuple[int, ...]

    def __post_init__(self):
        degs = tuple(int(d) for d in self.degrees)
        if any(d < 0 for d in degs):
            raise ValueError("degrees must be nonnegative")
        object.__setattr__(self, "degrees", degs)

    def check(self, space: MultiProjectiveSpace):
        if len(self.degrees) != space.num_factors:
            raise ValueError(
                f"degree has {len(self.degrees)} entries for a "
                f"{space.num_factors}-factor space"
            )

    def label(self) -> str:
        return ",".join(str(d) for d in self.degrees)


@dataclass(frozen=True)
class CoordinateSubvariety:
    """Intersection of coordinate hyperplanes: one set of vanishing
    coordinate indices per factor (possibly empty for some factors)."""

    vanishing: tuple[frozenset[int], ...]

    def __post_init__(self):
        van = tuple(frozenset(int(i) for i in s) for s in self.vanishing)
        if not any(van):
            raise ValueError("subvariety must have at least one vanishing coordinate")
        object.__setattr__(self, "vanishing", van)

    def check(self, space: MultiProjectiveSpace):
        if len(self.vanishing) != space.num_factors:
            raise ValueError("vanishing sets do not match the number of factors")
        for f, (s, n) in enumerate(zip(self.vanishing, space.factor_dims)):
            if any(i < 0 or i > n for i in s):
                raise ValueError(f"coordinate index out of range in factor {f}")
            if len(s) == n + 1:
                raise ValueError(f"all coordinates of factor {f} vanish")


def compositions(total: int, parts: int):
    """All exponent tuples of length `parts` summing to `total`,
    lexicographically descending (first coordinate largest first)."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def basis_size(space: MultiProjectiveSpace, degree: Multidegree) -> int:
    degree.check(space)
    return prod(comb(n + d, n) for n, d in zip(space.factor_dims, degree.degrees))


def monomial_basis(
    space: MultiProjectiveSpace, degree: Multidegree
) -> list[tuple[int, ...]]:
    """All monomials of the given multidegree, as flat exponent tuples, in
    the canonical order."""
    degree.check(space)
    per_factor = [
        list(compositions(d, n + 1))
        for n, d in zip(space.factor_dims, degree.degrees)
    ]
    return [sum(combo, ()) for combo in product(*per_factor)]


def ideal_basis(
    space: MultiProjectiveSpace,
    degree: Multidegree,
    contained: list[CoordinateSubvariety] | tuple[CoordinateSubvariety, ...] = (),
) -> list[tuple[int, ...]]:
    """Monomials of the given multidegree lying in the intersection of the
    ideals of the listed coordinate subvarieties.

    A monomial is in the ideal of a subvariety iff it is divisible by at
    least one of its vanishing coordinates.
    """
    basis = monomial_basis(space, degree)
    offsets = space.coord_offsets()
    for sub in contained:
        sub.check(space)
        coords = [off + i for off, s in zip(offsets, sub.vanishing) for i in s]
        basis = [m for m in basis if any(m[k] for k in coords)]
    return basis
