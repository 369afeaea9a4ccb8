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
from itertools import combinations, product
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


def ideal_basis_size(
    space: MultiProjectiveSpace,
    degree: Multidegree,
    contained: list[CoordinateSubvariety] | tuple[CoordinateSubvariety, ...] = (),
) -> int:
    """len(ideal_basis(space, degree, contained)), without listing it.

    A monomial misses the ideal of a subvariety iff none of its vanishing
    coordinates divides it.  By inclusion-exclusion over the sets S of
    subvarieties it misses, the count is the sum of (-1)^|S| times the
    number of monomials free of every coordinate that vanishes on some
    member of S: a product of per-factor binomials.  With no subvarieties
    it is the size of the monomial basis, a product of comb(n_i + d_i, d_i).
    """
    degree.check(space)
    for sub in contained:
        sub.check(space)

    def free_of(zero: list[set[int]]) -> int:
        # monomials of degree d in the c - |z| coordinates left per factor
        return prod(
            comb(c - len(z) - 1 + d, d) if len(z) < c else int(d == 0)
            for c, d, z in zip(space.coord_counts(), degree.degrees, zero)
        )

    total = 0
    for k in range(len(contained) + 1):
        for subs in combinations(contained, k):
            zero = [
                set().union(*(s.vanishing[f] for s in subs))
                for f in range(space.num_factors)
            ]
            total += (-1) ** k * free_of(zero)
    return total


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
    ideals of the listed coordinate subvarieties, in the canonical order.

    A monomial is in the ideal of a subvariety iff it is divisible by at
    least one of its vanishing coordinates.  So each factor's block of
    exponents puts the monomial in the ideals of a set of subvarieties, a
    bitmask, and the monomial is kept iff the union of its blocks' masks
    is all of them.  The blocks are chosen factor by factor, and a prefix
    is extended only by the blocks after which the later factors can still
    complete the union, so no excluded monomial is ever listed.
    """
    degree.check(space)
    for sub in contained:
        sub.check(space)
    everything = (1 << len(contained)) - 1
    # per factor, its exponent blocks in the canonical order (as
    # compositions() lists them), each with its mask
    blocks = []
    for f, (c, d) in enumerate(zip(space.coord_counts(), degree.degrees)):
        block = [((), d, 0)]
        for i in range(c):
            bits = sum(1 << j for j, sub in enumerate(contained) if i in sub.vanishing[f])
            # the last coordinate takes the degree that is left
            block = [
                (head + (e,), left - e, mask | bits if e else mask)
                for head, left, mask in block
                for e in ((left,) if i == c - 1 else range(left, -1, -1))
            ]
        blocks.append([(exps, mask) for exps, _, mask in block])
    # after[f]: the unions of masks that the factors after f can give
    after = [{0}]
    for options in reversed(blocks[1:]):
        after.insert(0, {mask | r for _, mask in options for r in after[0]})
    kept = [((), 0)]
    for options, rest in zip(blocks, after):
        unions = {have | mask for have in {h for _, h in kept} for _, mask in options}
        viable = {u for u in unions if any(u | r == everything for r in rest)}
        kept = [
            (head + exps, have | mask)
            for head, have in kept
            for exps, mask in options
            if have | mask in viable
        ]
    return [mono for mono, _ in kept]
