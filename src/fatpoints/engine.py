"""Interpolation matrices over a prime field and dimension certification.

The dimension of a linear system with general base points is computed as
(number of monomials) - rank of the condition matrix at random points over
F_p.  Both randomization steps can only *lower* the rank, so the computed
dimension is always an upper bound for the true generic dimension, which in
turn is at least max(0, virtual dimension).  Hence:

* computed == expected  certifies the system (status Regular or Zero);
* computed > expected   is only evidence of speciality (SpecialCandidate),
  reported after RETRIES attempts with fresh points and one at an
  alternate prime (ALTERNATE_PRIME, or DEFAULT_PRIME when the configured
  prime is ALTERNATE_PRIME).

Rows of the matrix are partial derivatives d^beta of order < a per fat point
(in the affine chart where the first nonvanishing coordinate of each factor
is normalized to 1), plus one row per jet condition of order kappa along a
direction t: sum over |beta| = kappa of (t^beta / beta!) d^beta at its base
point.  A monomial x^e is a product of factor monomials and beta splits
into one part beta_f per factor, so d^beta x^e (q) is the product over the
factors f of D_f[q, beta_f, e_f]: the rows of a point are Kronecker
products of rows of per-factor tables, each in the point's own chart.
build_matrix makes the tables of the points of one multiplicity, _CHUNK
rows' worth at a time, over the orders they need and the factor monomials
the kept columns use.  It stores the conditions as columns: the matrix is
the transpose of a C-contiguous (columns, rows) array, the layout in which
dimensions() eliminates it.

The elimination (rank_profile) returns the column rank profile over F_p,
the pivot columns in order; rank_fp is its length.  It is exact for every
prime p < 2^31.  One row-operation loop in int64 (_echelon, one slice
update per pivot) makes every pivot.  Matrices of more than four panels of
32 columns are eliminated blockwise: the loop runs Gauss-Jordan on a
panel's leading rows, doubled until every column has a pivot, for its
pivots, row swaps and the inverse of its pivot block; the rows below are
updated by one float64 (BLAS) product per chunk of rows, on 16-bit limbs,
so with at most 32 inner terms every entry stays below 2^53 and is exact.
Updated entries are reduced mod p only when a panel reads them, and in
full every eight panels.  The last columns, and narrower matrices, use the
loop alone, clearing only the rows below each pivot.

Points are drawn in order from one seeded stream, so the rows of the first
k points of a scheme are a row prefix of its matrix.  The row rank profile
(the column rank profile of the transpose) gives the rank of every such
prefix from one elimination: dimensions() certifies several point prefixes
of one scheme with one matrix per attempt, which it eliminates in place
(_rank_profile), so an attempt holds one int64 copy of its matrix.
secant.secant_dims asks it for
every r of one draw of double points (is_defective, secant_dim and verify_ah
go through it), and theorem_hypotheses asks it once per fat-point head.
"""
from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from fractions import Fraction
from math import factorial, perm, prod

import numpy as np

from .schemes import FatPointScheme, conditions_of_fat_point
from .spaces import CoordinateSubvariety, Multidegree, MultiProjectiveSpace
from .spaces import compositions, ideal_basis, ideal_basis_size

DEFAULT_PRIME = 2147483647
ALTERNATE_PRIME = 2147483629
RETRIES = 2  # fresh seeds at the configured prime before the alternate one
MAX_COLUMNS = 4096


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with bases 2, 3, 5, 7: exact for every
    n < 3215031751, which covers the 31-bit primes the engine accepts."""
    if n < 11:
        return n in (2, 3, 5, 7)
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeFieldConfig:
    prime: int = DEFAULT_PRIME
    seed: int = 0

    def __post_init__(self):
        if not (2 <= self.prime < 2**31 and _is_prime(self.prime)):
            raise ValueError(f"prime must be a prime below 2^31, got {self.prime}")

    def child_seed(self, attempt: int) -> int:
        return (self.seed * 1000003 + attempt) % 2**63


class DimensionVerdict(str, Enum):
    REGULAR = "Regular"
    ZERO = "Zero"
    SPECIAL_CANDIDATE = "SpecialCandidate"
    INCONCLUSIVE = "Inconclusive"

    @property
    def certified(self) -> bool:
        return self in (DimensionVerdict.REGULAR, DimensionVerdict.ZERO)


@dataclass
class Certificate:
    status: DimensionVerdict
    computed_dim: int
    virtual_dim: int
    expected_dim: int
    rank: int
    rows: int
    cols: int
    prime: int
    seed: int
    runs: list[tuple[int, int, int]] = field(default_factory=list)  # (prime, seed, dim)

    def to_json(self) -> dict:
        return _to_json(self)


def _to_json(x):
    """The JSON of a report, from its fields: a dataclass is the dict of its
    fields in field order, a space or a multidegree its list, an enum its
    value, a tuple a list; dict keys become strings."""
    if isinstance(x, MultiProjectiveSpace):
        return list(x.factor_dims)
    if isinstance(x, Multidegree):
        return list(x.degrees)
    if is_dataclass(x):
        return {f.name: _to_json(getattr(x, f.name)) for f in fields(x)}
    if isinstance(x, Enum):
        return x.value
    if isinstance(x, (list, tuple)):
        return [_to_json(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _to_json(v) for k, v in x.items()}
    return x


def status_matches(expected: str, cert: Certificate) -> bool:
    """Whether a certificate certifies the expected verdict, "Regular" (the
    dimension is the nonnegative vdim) or "Zero" (the system is empty at
    vdim <= 0).  At vdim = 0 the labels Regular and Zero coincide, so
    matching is on the numbers, not the label string."""
    if not cert.status.certified:
        return False
    if expected == "Regular":
        return cert.virtual_dim >= 0 and cert.computed_dim == cert.virtual_dim
    if expected == "Zero":
        return cert.virtual_dim <= 0 and cert.computed_dim == 0
    raise ValueError(f"unknown expected status {expected!r}")


def _draw_factor(rng: random.Random, count: int, vanishing: frozenset[int], p: int):
    for _ in range(64):
        vec = tuple(
            0 if i in vanishing else rng.randrange(p) for i in range(count)
        )
        if any(vec):
            return vec
    raise RuntimeError("could not draw a nonzero coordinate vector")


def draw_scheme_points(
    space: MultiProjectiveSpace,
    scheme: FatPointScheme,
    prime: int,
    seed: int,
):
    """Draw (or reduce pinned) coordinates for every point and a direction
    for every jet lacking one.  Deterministic in the seed.

    Returns (points, charts, directions): points, an int64 array with one
    row of flat coordinates in [0, p) per point, each factor's block scaled
    so that its first nonzero coordinate is 1; charts, an intp array of the
    flat index of that coordinate per point and factor; per jet the affine
    direction vector.  The points are drawn one by one from the stream, and
    each factor's block is normalised for all points at once.
    """
    rng = random.Random(seed)
    counts, offs = space.coord_counts(), space.coord_offsets()
    rows = []
    for pt in scheme.points:
        stratum = pt.spec.stratum
        vanishing = (frozenset(),) * len(counts) if stratum is None else stratum.vanishing
        if pt.spec.coords is None:
            rows.append([
                x for c, van in zip(counts, vanishing) for x in _draw_factor(rng, c, van, prime)
            ])
        else:
            row = [int(x) % prime for vec in pt.spec.coords for x in vec]
            if any(row[off + i] for off, van in zip(offs, vanishing) for i in van):
                raise ValueError("pinned coordinates are off the stratum")
            rows.append(row)
    points = np.array(rows, dtype=np.int64).reshape(len(rows), space.total_coords())
    charts = np.empty((len(rows), len(counts)), dtype=np.intp)
    for f, (off, c) in enumerate(zip(offs, counts)):
        block = points[:, off : off + c]  # a view: scaled in place
        chart = np.argmax(block != 0, axis=1)
        lead = block[np.arange(len(rows)), chart]
        if not lead.all():
            raise ValueError("zero coordinate vector mod p (prime divides all entries)")
        inv = np.array([pow(x, -1, prime) for x in lead.tolist()], dtype=np.int64)
        block[:] = block * inv[:, None] % prime  # below 2^62: exact in int64
        charts[:, f] = off + chart
    n_aff = space.ambient_dim()
    directions = []
    for jet in scheme.jets:
        if jet.direction is not None:
            directions.append(tuple(int(t) % prime for t in jet.direction))
        else:
            directions.append(tuple(rng.randrange(prime) for _ in range(n_aff)))
    return points, charts, directions


def _derivative_multiindices(multiplicity: int, n_aff: int):
    """Multi-indices of total order < multiplicity over n_aff variables,
    ordered by total order, then by the composition order."""
    for order in range(multiplicity):
        yield from compositions(order, n_aff)


def check_columns(
    space: MultiProjectiveSpace,
    degree: Multidegree,
    contained: list[CoordinateSubvariety] | tuple[CoordinateSubvariety, ...] = (),
    rows: int = 0,
) -> int:
    """The number of columns of the system's matrix, counted in closed form;
    a ValueError past MAX_COLUMNS, or past 2 MAX_COLUMNS rows (the caller's
    count), before any monomial or point is listed."""
    ncols = ideal_basis_size(space, degree, contained)
    if ncols > MAX_COLUMNS:
        raise ValueError(f"{ncols} columns exceeds the {MAX_COLUMNS} column limit")
    if rows > 2 * MAX_COLUMNS:
        raise ValueError(f"{rows} rows exceeds the {2 * MAX_COLUMNS} row limit")
    return ncols


@dataclass
class InterpolationMatrix:
    array: np.ndarray

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]


def build_matrix(
    space: MultiProjectiveSpace,
    degree: Multidegree,
    scheme: FatPointScheme,
    prime: int = DEFAULT_PRIME,
    seed: int = 0,
) -> InterpolationMatrix:
    p = prime
    scheme.check(space)
    maxdeg = max(degree.degrees, default=0)
    if p <= maxdeg:
        raise ValueError("prime must exceed the maximum factor degree")
    order = max((jet.order for jet in scheme.jets), default=0)
    if p <= order:
        raise ValueError(
            f"a jet of order {order} needs a prime above {order} "
            f"(1/{order}! does not exist mod {p})"
        )
    N = space.ambient_dim()
    ncols = check_columns(space, degree, scheme.contained, scheme.conditions(N))

    # per factor, the factor monomials that the kept columns use, in basis
    # order: the columns are their product, or `take` of it where contained
    # subvarieties drop columns
    offs, counts = space.coord_offsets(), space.coord_counts()
    monos = [list(compositions(d, c)) for c, d in zip(counts, degree.degrees)]
    take = None
    if scheme.contained:
        basis = ideal_basis(space, degree, scheme.contained)
        parts = [[m[off : off + c] for m in basis] for off, c in zip(offs, counts)]
        monos = [sorted(set(ps), reverse=True) for ps in parts]
        if prod(map(len, monos)) > ncols:
            at = [{m: j for j, m in enumerate(ms)} for ms in monos]
            index = [[a[m] for m in ps] for a, ps in zip(at, parts)]
            take = np.ravel_multi_index(index, [len(ms) for ms in monos])
    monos = [np.array(ms, dtype=np.int64).reshape(len(ms), c) for ms, c in zip(monos, counts)]

    Q, charts, directions = draw_scheme_points(space, scheme, p, seed)
    mults = [pt.multiplicity for pt in scheme.points]
    starts = np.cumsum([0] + [conditions_of_fat_point(a, N) for a in mults])
    # conditions as columns: A.T is C-contiguous, the layout dimensions()
    # eliminates in place
    A = np.empty((ncols, starts[-1] + len(scheme.jets)), dtype=np.int64).T
    aff = np.cumsum((0,) + space.factor_dims)  # each factor's affine coordinates

    def rows(pts, betas):
        """The rows d^beta x^e (q) over the basis columns, mod p, for the
        multi-indices betas at each of the points pts: per point, the
        Kronecker products of its factor rows."""
        B = np.array(betas, dtype=np.intp)
        # W[i, k, b, e] = ff(e, b) q_k^(e - b), the order-b derivative of x_k^e
        # at the i-th point, for every coordinate k; the falling factorial
        # ff(e, b) = e (e - 1) ... (e - b + 1) is 0 where e < b
        q = Q[pts]
        pows = np.ones(q.shape + (maxdeg + 1,), dtype=np.int64)
        for e in range(1, maxdeg + 1):
            pows[..., e] = pows[..., e - 1] * q % p
        top = B.max()
        ff = np.array([[perm(e, b) % p for e in range(maxdeg + 1)] for b in range(top + 1)])
        b, e = np.ogrid[: top + 1, : maxdeg + 1]
        W = pows[..., np.maximum(e - b, 0)] * ff % p
        i = np.arange(len(pts))[:, None, None]
        R = None
        for f, (off, c, X) in enumerate(zip(offs, counts, monos)):
            # the factor table D[i, r, u]: the product over the factor's
            # affine coordinates j (in order, skipping the point's chart
            # coordinate) of the derivatives of their powers in each monomial
            D = None
            for k in range(c - 1):
                j = off + k + (off + k >= charts[pts, f])
                # the derivatives of every order b, then each row's order
                P = W[i, j[:, None, None], b, X.T[j - off][:, None]][:, B[:, aff[f] + k]]
                D = P if D is None else D * P % p
            D = D.reshape(len(pts) * len(B), -1)
            if R is not None:
                D = R[:, :, None] * D[:, None, :]
                D %= p
            R = D.reshape(len(pts) * len(B), -1)
        return R if take is None else R[:, take]

    for a in sorted(set(mults)):
        group = [i for i, m in enumerate(mults) if m == a]
        betas = list(_derivative_multiindices(a, N))
        # at most _CHUNK rows' worth of points at a time
        step = max(1, _CHUNK // len(betas))
        for s in range(0, len(group), step):
            batch = group[s : s + step]
            A[(starts[batch][:, None] + np.arange(len(betas))).ravel()] = rows(batch, betas)

    for ji, jet in enumerate(scheme.jets):
        # order-kappa Taylor term along t, sum over |beta| = kappa of
        # (t^beta / beta!) d^beta: the coefficient of lambda^kappa in
        # prod_k (q_k + lambda t_k)^(e_k)
        betas = list(compositions(jet.order, N))
        inv_fact = [pow(factorial(b), -1, p) for b in range(jet.order + 1)]
        coef = np.array([
            prod(pow(t, b, p) * inv_fact[b] for t, b in zip(directions[ji], beta)) % p
            for beta in betas
        ])
        R = rows([jet.base_index], betas)
        A[starts[-1] + ji] = (coef[:, None] * R % p).sum(axis=0) % p

    return InterpolationMatrix(A)


# Panel width, the row chunk of trailing updates and of build_matrix's
# row assembly, the width up to which _echelon alone is used
# (there the panel copies cost more than the matrix products save), and the
# panels between full reductions of the trailing block.  _PANEL bounds the
# inner dimension of every product in rank_fp, which keeps it exact in
# float64 (see _mulmod).
_PANEL = 32
_CHUNK = 256
_NARROW = 4 * _PANEL
_DELAY = 8


def rank_fp(matrix: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over F_p, for a prime 2 <= p < 2^31."""
    return len(rank_profile(matrix, p))


def rank_profile(matrix: np.ndarray, p: int) -> list[int]:
    """Column rank profile of an integer matrix over F_p, for a prime
    2 <= p < 2^31: the pivot columns of its row echelon form, in increasing
    order, i.e. the columns that are not combinations of the columns before
    them.  Its length is the rank.  The row rank profile of A is
    rank_profile(A.T, p), and the rank of the first k rows of A is the
    number of its entries below k.

    Entries are reduced mod p; the input, of any memory layout, is not
    modified: the elimination (_rank_profile, in place) runs on a reduced
    C-contiguous copy.  dimensions() skips that copy and the reduction, as
    its matrices are built conditions-as-columns, in [0, p), and used once.
    Matrices wider than _NARROW columns are eliminated in panels of _PANEL columns.  _panel gives a
    panel's pivots, its row swaps, which are applied to A, and the inverse
    of its pivot block, which solves the pivot rows to [I | U12]; the rows
    below, whose entries in the pivot columns are X, get A22 += X (-U12),
    one float64 matrix product on 16-bit limbs per chunk of _CHUNK rows (see
    _mulmod).  A22 is reduced mod p only where it is read next, and in full
    every _DELAY panels.  The last _NARROW columns, and narrow matrices, go
    to _echelon alone.
    """
    if not 2 <= p < 2**31:
        raise ValueError(f"rank_profile needs 2 <= p < 2^31, got {p}")
    A = np.array(matrix, dtype=np.int64, order="C")
    return _rank_profile(np.mod(A, p, out=A), p)


def _rank_profile(A: np.ndarray, p: int) -> list[int]:
    """rank_profile of A, a C-contiguous int64 array with entries in
    [0, p), as build_matrix gives them, which it eliminates in place: A is
    overwritten."""
    m, n = A.shape
    profile: list[int] = []
    r = c = 0
    while r < m and n - c > _NARROW:
        c1 = c + _PANEL
        # trailing updates are added unreduced, each below 2^53: reducing
        # every _DELAY panels keeps the entries below 2^56, exact in int64
        if c // _PANEL % _DELAY == _DELAY - 1:
            A[r:, c1:] %= p
        A[r:, c:c1] %= p
        pivots, swaps, inv = _panel(A[r:, c:c1], p)
        for i, j in swaps:
            A[[r + i, r + j], c:] = A[[r + j, r + i], c:]
        J = [c + j for j in pivots]
        k = len(J)
        if k:
            U = _limbs(_mulmod(-inv % p, _limbs(A[r : r + k, c1:] % p), p) % p)
            for s in range(r + k, m, _CHUNK):
                A[s : s + _CHUNK, c1:] += _mulmod(A[s : s + _CHUNK, J], U, p)
        profile += J
        r, c = r + k, c1
    if c:
        A = A[r:, c:] % p
    return profile + [c + j for j in _echelon(A, p)[0]]


def _echelon(
    A: np.ndarray, p: int, n: int | None = None
) -> tuple[list[int], list[tuple[int, int]]]:
    """Reduce A (int64, entries in [0, p)) in place over F_p, with pivots in
    its first n columns (all by default), one vectorised row operation per
    pivot; int64 is exact for p < 2^31, every product being below 2^62.
    Returns the pivot columns and the row swaps, in order.  Each pivot
    clears its column in the rows below it (row echelon form), or in every
    row (Gauss-Jordan) when the columns from n on record the rows as
    combinations of pivot rows; the pivot rows then end as [I | inverse of
    the pivot block] there."""
    m, width = A.shape
    n = width if n is None else n
    pivots, swaps = [], []
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            A[[r, piv], c:] = A[[piv, r], c:]
            swaps.append((r, piv))
        if n < width:
            A[r, n + r] = 1  # row r becomes the r-th pivot row
            top, end = 0, n + r + 1  # row r is 0 left of column c and from end on
        else:
            top, end = r + 1, width
        u = A[r, c:end] * pow(int(A[r, c]), -1, p) % p
        # a row with 0 in column c gets x - 0 * u = x, already in [0, p)
        A[top:, c:end] = (A[top:, c:end] - A[top:, c, None] * u) % p
        A[r, c:end] = u
        pivots.append(c)
    return pivots, swaps


def _panel(P: np.ndarray, p: int) -> tuple[list[int], list[tuple[int, int]], np.ndarray]:
    """The pivots and row swaps of _echelon(P.copy(), p) and the inverse of
    its pivot block (pivot rows, swaps applied, in pivot columns), from
    _echelon on [P[:b] | 0] with n record columns (not b: at most n rows
    are pivots).  b = _PANEL, 2 _PANEL, ..., up to the first b where every
    column has a pivot or that covers P: exact, as a row of P[:b] is
    reduced only by pivot rows in P[:b], so _echelon chooses as on P until
    a column finds no pivot there, and a full set of pivots leaves none to
    decide below."""
    m, n = P.shape
    b = _PANEL
    while True:
        G = np.pad(P[:b], [(0, 0), (0, n)])
        pivots, swaps = _echelon(G, p, n)
        if len(pivots) == n or b >= m:
            return pivots, swaps, G[: len(pivots), n : n + len(pivots)]
        b *= 2


def _limbs(U: np.ndarray) -> np.ndarray:
    """The 16-bit limbs of U (int64 in [0, 2^31)) for _mulmod: hi = U >> 16
    stacked above lo = U & 0xFFFF, in float64."""
    return np.concatenate([U >> 16, U & 0xFFFF]).astype(np.float64)


def _mulmod(X: np.ndarray, L: np.ndarray, p: int) -> np.ndarray:
    """An int64 matrix congruent to X @ U mod p, for X in [0, p) and
    L = _limbs(U): [X * 2^16 mod p | X] @ [hi; lo] in float64 (BLAS).

    With p < 2^31 and at most _PANEL = 2^5 columns in X, every entry is
    below 2^5 * (2^31 * 2^15 + 2^31 * 2^16) < 2^53, so float64 computes it
    exactly."""
    S = np.concatenate([X * 65536 % p, X], axis=1).astype(np.float64)
    return (S @ L).astype(np.int64)


def dimension(
    space: MultiProjectiveSpace,
    degree: Multidegree,
    scheme: FatPointScheme,
    config: PrimeFieldConfig | None = None,
) -> Certificate:
    """Compute the dimension of the linear system and certify it when the
    result matches the expected dimension; otherwise retry with fresh
    seeds and the alternate prime before reporting a special candidate."""
    return dimensions(space, degree, scheme, [len(scheme.points)], config)[0]


def dimensions(
    space: MultiProjectiveSpace,
    degree: Multidegree,
    scheme: FatPointScheme,
    counts: list[int],
    config: PrimeFieldConfig | None = None,
) -> list[Certificate]:
    """One certificate, as dimension() gives it, for each subscheme made of
    the first k points of the scheme, k in counts.

    Points are drawn in order, each from its own draws of the seeded
    stream, so the rows of the first k points are a row prefix of the whole
    scheme's matrix at the same (prime, seed).  Each attempt builds that
    matrix once, or only the longest prefix still open, eliminates it in
    place (conditions as columns, as build_matrix lays it out), and reads
    the rank of every open prefix off its row rank profile; so one copy of
    the matrix is alive per attempt.  Each prefix keeps its own
    runs and stops at its own first certifying attempt.  Jet rows come last,
    so a scheme with jets has no proper prefixes.

    A scheme whose points are all pinned and whose jets all have a
    direction draws nothing from the seed: its matrix depends on the prime
    alone.  Its attempts at a prime already eliminated reuse that profile,
    built for a prefix at least as long, and still add their own run."""
    config = config or PrimeFieldConfig()
    npts = len(scheme.points)
    subs = []
    for k in counts:
        if not 0 <= k <= npts:
            raise ValueError(f"point count {k} is outside 0..{npts}")
        if k < npts and scheme.jets:
            raise ValueError("a scheme with jets has no proper point prefixes")
        subs.append(
            scheme if k == npts
            else FatPointScheme(scheme.points[:k], contained=scheme.contained)
        )
    # the subschemes share the columns; build_matrix checks the scheme
    cols = ideal_basis_size(space, degree, scheme.contained)
    rows = [sub.conditions(space.ambient_dim()) for sub in subs]
    vdims = [cols - nrows for nrows in rows]
    exps = [max(0, vdim) for vdim in vdims]

    attempts = [(config.prime, config.seed)]
    attempts += [(config.prime, config.child_seed(i)) for i in range(1, RETRIES + 1)]
    # the last attempt changes the prime as well as the points
    alternate = DEFAULT_PRIME if config.prime == ALTERNATE_PRIME else ALTERNATE_PRIME
    attempts.append((alternate, config.seed))

    seedless = all(pt.spec.coords is not None for pt in scheme.points) and all(
        jet.direction is not None for jet in scheme.jets
    )
    runs: list[list[tuple[int, int, int]]] = [[] for _ in subs]
    profile, profile_prime = None, None
    for p, sd in attempts:
        # a prefix stops at its first attempt that gives the expected dim
        todo = [i for i, rs in enumerate(runs) if not rs or rs[-1][2] != exps[i]]
        if not todo:
            break
        # the open prefixes only shrink, so an earlier attempt's matrix has
        # every open prefix's rows as a row prefix
        if not (seedless and p == profile_prime):
            # each open prefix's matrix is a row prefix of the longest one's
            longest = max(todo, key=lambda i: rows[i])
            mat = build_matrix(space, degree, subs[longest], prime=p, seed=sd)
            profile, profile_prime = _rank_profile(mat.array.T, p), p
            del mat  # not alive while the next attempt builds its matrix
        for i in todo:
            runs[i].append((p, sd, cols - bisect_left(profile, rows[i])))

    certs = []
    for vdim, exp, nrows, rs in zip(vdims, exps, rows, runs):
        p, sd, dim = min(rs, key=lambda run: run[2])
        if dim == exp:
            if dim == 0 and vdim <= 0:
                status = DimensionVerdict.ZERO
            else:
                status = DimensionVerdict.REGULAR
        else:
            status = DimensionVerdict.SPECIAL_CANDIDATE
        certs.append(
            Certificate(status, dim, vdim, exp, cols - dim, nrows, cols, p, sd, rs)
        )
    return certs


# --- exact-rational oracle ---------------------------------------------


def _exact_normalize(vec):
    vec = [Fraction(c) for c in vec]
    for i, c in enumerate(vec):
        if c:
            return [x / c for x in vec], i
    raise ValueError("zero coordinate vector")


def exact_rank_oracle(
    space: MultiProjectiveSpace,
    degree: Multidegree,
    scheme: FatPointScheme,
) -> int:
    """Rank of the condition matrix over the rationals.  All points (and
    jet directions) must be pinned.  Intended for small cross-checks of
    the prime-field path; pure-Python Fraction arithmetic."""
    scheme.check(space)
    exps = ideal_basis(space, degree, scheme.contained)
    C = space.total_coords()
    offs = space.coord_offsets()

    rows: list[list[Fraction]] = []
    point_data = []
    for pt in scheme.points:
        if pt.spec.coords is None:
            raise ValueError("exact oracle requires pinned points")
        flat, charts = [], []
        for f, vec in enumerate(pt.spec.coords):
            nv, ch = _exact_normalize(vec)
            flat.extend(nv)
            charts.append(offs[f] + ch)
        point_data.append((flat, set(charts)))
        affine = [k for k in range(C) if k not in point_data[-1][1]]
        for beta in _derivative_multiindices(pt.multiplicity, len(affine)):
            row = []
            for e in exps:
                val = Fraction(1)
                for k, b in zip(affine, beta):
                    ek = e[k]
                    if b:
                        if ek < b:
                            val = Fraction(0)
                            break
                        ff = 1
                        for t in range(b):
                            ff *= ek - t
                        val *= ff * flat[k] ** (ek - b)
                    else:
                        val *= flat[k] ** ek
                row.append(val)
            rows.append(row)

    for jet in scheme.jets:
        if jet.direction is None:
            raise ValueError("exact oracle requires pinned jet directions")
        flat, chart_set = point_data[jet.base_index]
        affine = [k for k in range(C) if k not in chart_set]
        kappa = jet.order
        row = []
        for e in exps:
            poly = [Fraction(0)] * (kappa + 1)
            poly[0] = Fraction(1)
            for ai, k in enumerate(affine):
                t = Fraction(jet.direction[ai])
                ek = e[k]
                coefs = []
                for i in range(kappa + 1):
                    if ek < i:
                        coefs.append(Fraction(0))
                        continue
                    ff = 1
                    for s in range(i):
                        ff *= ek - s
                    coefs.append(
                        Fraction(ff, factorial(i)) * flat[k] ** (ek - i) * t**i
                    )
                poly = [
                    sum((poly[d - i] * coefs[i] for i in range(d + 1)), Fraction(0))
                    for d in range(kappa + 1)
                ]
            row.append(poly[kappa])
        rows.append(row)

    # fraction Gaussian elimination
    m, n = len(rows), len(exps)
    r = 0
    for c in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(r + 1, m):
            f = rows[i][c]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def exact_dimension(space, degree, scheme) -> int:
    ncols = ideal_basis_size(space, degree, scheme.contained)
    return ncols - exact_rank_oracle(space, degree, scheme)
