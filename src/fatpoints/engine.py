"""Interpolation matrices over a prime field and dimension certification.

The dimension of a linear system with general base points is computed as
(number of monomials) - rank of the condition matrix at random points over
F_p.  Both randomization steps can only *lower* the rank, so the computed
dimension is always an upper bound for the true generic dimension, which in
turn is at least max(0, virtual dimension).  Hence:

* computed == expected  certifies the system (status Regular or Zero);
* computed > expected   is only evidence of speciality (SpecialCandidate),
  reported after two attempts: the configured (prime, seed), then the
  alternate prime (ALTERNATE_PRIME, or DEFAULT_PRIME when the configured
  prime is ALTERNATE_PRIME) with a fresh seed, so the second attempt
  changes both the field and the drawn points.  A draw special by chance
  lowers the rank with probability at most about (rows x degree) / p, so
  a regular system is reported special only when two independent draws
  are both bad.

Rows of the matrix are partial derivatives d^beta of order < a per fat point
(in the affine chart where the first nonvanishing coordinate of each factor
is normalized to 1), plus one row per jet condition of order kappa along a
direction t: sum over |beta| = kappa of (t^beta / beta!) d^beta at its base
point.  A monomial x^e is a product of factor monomials and beta splits
into one part beta_f per factor, so d^beta x^e (q) is the product over the
factors f of D_f[q, beta_f, e_f]: the rows of a point are Kronecker
products of rows of per-factor tables, each in the point's own chart.
build_matrix makes the tables of a stretch of consecutive points of one
multiplicity, _CHUNK rows' worth at a time, over the orders they need and
the factor monomials the kept columns use, and makes their last product in
the batch's rows of the matrix, so the build holds the matrix and one
batch's tables.  It stores the conditions as columns: the matrix is
the transpose of a C-contiguous (columns, rows) array, the layout in which
dimensions() eliminates it.  A matrix of 4 MB or more is made on its own
anonymous mapping (_matrix), not on the heap, so its memory goes back to
the system with it and a later matrix never grows the heap around a hole.

The elimination (rank_profile) returns the column rank profile over F_p,
the pivot columns in order; rank_fp is its length.  It is exact for every
prime p < 2^31.  One row-operation loop in int64 (_echelon, one slice
update per pivot) makes every pivot.  While more than two panels of 32
columns and as many rows are left, a matrix is eliminated blockwise: the
loop runs Gauss-Jordan on 32 rows spread over a panel (then on all its
rows, if some column finds no pivot among them) for its pivots, rows that
pivot them and the inverse of its pivot block; one gather and scatter
moves those rows to the top, where they are solved in place to U12, and
the rows below are updated by one float64 (BLAS) product per chunk of 128
rows, on 16-bit limbs, so with at most 32 inner terms every entry is an
integer below 2^53 and exact, and it is added into the int64 rows with an
exact cast, without an int64 copy.  Updated entries are reduced mod p only
where they are read (a panel, the pivot rows, the rest); an entry takes at
most one update per panel, so int64 holds them up to about 1365 panels.
The rest, and smaller matrices, use the loop alone, clearing only the rows
below each pivot.

Points are drawn in order from one seeded stream, so the rows of the first
k points of a scheme are a row prefix of its matrix.  The row rank profile
(the column rank profile of the transpose) gives the rank of every such
prefix from one elimination: dimensions() certifies several point prefixes
of one scheme with one matrix per attempt, which it builds and eliminates
in place (_rank_profile), so an attempt holds one int64 copy of its
matrix, one chunk and the limbs of one panel's U12.  secant.secant_dims
asks it for every r of one draw of double points (is_defective, secant_dim
and verify_ah go through it), and theorem_hypotheses asks it once per
fat-point head.

A process remembers the row rank profiles of the last _MEMO_SIZE (64)
matrices dimensions() eliminated, oldest out first, keyed on everything
build_matrix reads: the space, the multidegree, the scheme, the prime and
the seed.  The scheme is one frozen value (schemes.FatPointScheme): its
canonical runs, each run of equal points one (point, length) entry, its
jets and its contained subvarieties, all tuples of frozen dataclasses,
which hash and compare by every field, so equal schemes share a key and a
part added to the scheme is part of the key.  build_matrix is a pure
function of that key, so a matrix met again (the paper's replay asks for
its quartic heads as base cases and as collision hypotheses) is answered
with the profile a rebuild would give, and every certificate stays the
same.  The column and row limits are checked before the lookup, so a
refusal never depends on what is remembered.  A forked worker of
replication._answer_all inherits the memo as it stood at the fork and
sends the profiles it adds back with its answers; the parent remembers
them (_remember), oldest first.

numpy is bound lazily (fatpoints._lazy_import): it is executed at the
engine's first point draw, build or elimination, so importing the engine
costs no numpy, and a command that builds a matrix pays numpy's import
once, at its first matrix.
"""
from __future__ import annotations

import mmap
import random
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field, fields, is_dataclass, replace
from enum import Enum
from functools import cache
from itertools import groupby
from math import factorial, perm, prod

from . import _lazy_import
from .schemes import FatPointScheme
from .spaces import CoordinateSubvariety, Multidegree, MultiProjectiveSpace
from .spaces import compositions, ideal_basis, ideal_basis_size

DEFAULT_PRIME = 2147483647
ALTERNATE_PRIME = 2147483629
MAX_COLUMNS = 4096

np = _lazy_import("numpy")  # loaded at the first draw, build or elimination


@cache
def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with bases 2, 3, 5, 7: exact for every
    n < 3215031751, which covers the 31-bit primes the engine accepts.
    Memoised: a run builds many configs over a few primes."""
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


def _check_prime(p: int) -> None:
    """A ValueError unless p is a prime 2 <= p < 2^31, the primes at which
    the engine's int64 arithmetic is exact."""
    if not (2 <= p < 2**31 and _is_prime(p)):
        raise ValueError(f"the engine needs a prime 2 <= p < 2^31, got {p}")


@dataclass(frozen=True)
class PrimeFieldConfig:
    prime: int = DEFAULT_PRIME
    seed: int = 0

    def __post_init__(self):
        _check_prime(self.prime)


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
    _check_prime(p)
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
    nrows = scheme.conditions(N)
    ncols = check_columns(space, degree, scheme.contained, nrows)

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
    # conditions as columns: A.T is C-contiguous, the layout dimensions()
    # eliminates in place
    A = _matrix((ncols, nrows)).T
    aff = np.cumsum((0,) + space.factor_dims)  # each factor's affine coordinates

    def mulmod(x, y, out=None):
        """x * y mod p, broadcast, made in out when it is given."""
        out = np.multiply(x, y, out=out)
        return np.remainder(out, p, out=out)

    def rows(pts, betas, out):
        """Write into out, a (len(pts) len(betas), ncols) array, the rows
        d^beta x^e (q) over the basis columns, mod p, for the multi-indices
        betas at each of the points pts: per point, the Kronecker products
        of its factor rows.  The last product, with the last factor or, in
        one factor, with its last coordinate, is made in out; where `take`
        drops columns it is made whole and np.take writes the kept ones."""
        B = np.array(betas, dtype=np.intp)
        n = len(pts) * len(B)
        whole = out if take is None else np.empty((n, prod(map(len, monos))), dtype=np.int64)
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

        def table(f, into=None):
            """The factor table D[i r, u]: the product over factor f's affine
            coordinates j (in order, skipping the point's chart coordinate)
            of the derivatives of their powers in each monomial, the last
            product made in into."""
            off, c, X = offs[f], counts[f], monos[f]
            D = None
            for k in range(c - 1):
                j = off + k + (off + k >= charts[pts, f])
                # the derivatives of every order b, then each row's order
                P = W[i, j[:, None, None], b, X.T[j - off][:, None]][:, B[:, aff[f] + k]]
                P = P.reshape(n, -1)
                D = P if D is None else mulmod(D, P, into if k == c - 2 else None)
            return D

        if len(monos) == 1:
            R = table(0, whole)
            if R is not whole:  # one coordinate: there is no product to make
                whole[...] = R
        else:
            R = table(0)
            for f in range(1, len(monos)):
                D = table(f)
                into = whole.reshape(n, R.shape[1], D.shape[1]) if f == len(monos) - 1 else None
                R = mulmod(R[:, :, None], D[:, None, :], into).reshape(n, -1)
        if take is not None:
            np.take(whole, take, axis=1, out=out)

    # batches of consecutive points of one multiplicity (consecutive runs),
    # at most _CHUNK rows (or one point) each: the rows of a batch are one
    # range of the matrix, which rows() fills in place
    first = row = 0
    for a, stretch in groupby(scheme.runs, key=lambda run: run[0].multiplicity):
        betas = list(_derivative_multiindices(a, N))
        stop = first + sum(n for _, n in stretch)
        step = max(1, _CHUNK // len(betas))
        for s in range(first, stop, step):
            t = min(s + step, stop)
            rows(np.arange(s, t), betas, A[row : row + (t - s) * len(betas)])
            row += (t - s) * len(betas)
        first = stop

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
        R = np.empty((len(betas), ncols), dtype=np.int64)
        rows([jet.base_index], betas, R)
        A[row + ji] = (coef[:, None] * R % p).sum(axis=0) % p

    return InterpolationMatrix(A)


# Panel width, the row chunk of trailing updates and of build_matrix's
# row assembly, and the size up to which _echelon alone is used: a matrix
# with at most _NARROW rows or columns left (there the panel copies cost
# more than the matrix products save).  _PANEL bounds the inner dimension
# of every product in rank_fp, which keeps it exact in float64 (see
# _limb_product).
_PANEL = 32
_CHUNK = 128
_NARROW = 2 * _PANEL


# a matrix of at least this many bytes (numpy's threshold for advising huge
# pages) is made on its own mapping (_matrix)
_MAPPED_BYTES = 1 << 22


def _matrix(shape: tuple[int, int]) -> np.ndarray:
    """An int64 array of this shape, its entries unset.  From _MAPPED_BYTES
    up it lies on its own anonymous mapping, given back to the system when
    the array goes, and advised for huge pages as numpy advises its own
    arrays of that size.  From the heap, a matrix that no longer fits the
    hole the last one left (a small allocation made since can split it)
    grows the heap by most of its size, and the process keeps both."""
    nbytes = shape[0] * shape[1] * 8
    if nbytes < _MAPPED_BYTES:
        return np.empty(shape, dtype=np.int64)
    buf = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, dtype=np.int64).reshape(shape)


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
    While more than _NARROW rows and columns are left, A is eliminated in
    panels of _PANEL columns.  _panel gives a panel's pivots, rows that
    pivot them, which one gather and scatter moves to the top of the rows
    left, in pivot order, and the inverse of its pivot block, which solves
    the pivot rows to [I | U12]; the rows below, whose entries in the pivot
    columns are X, get A22 += X (-U12), one float64 matrix product on
    16-bit limbs per chunk of _CHUNK rows (_limb_product), added into A22
    in int64.  A22 is reduced mod p only where it is read next.  The rest,
    once at most _NARROW rows or columns are left, goes to _echelon alone.
    """
    _check_prime(p)
    A = np.array(matrix, dtype=np.int64, order="C")
    return _rank_profile(np.mod(A, p, out=A), p)


def _rank_profile(A: np.ndarray, p: int) -> list[int]:
    """rank_profile of A, a C-contiguous int64 array with entries in
    [0, p), as build_matrix gives them, which it eliminates in place: A is
    overwritten.

    Each chunk's float64 product is added straight into its int64 rows: its
    entries are integers below 3 * 2^51 (_limb_product), so the cast is
    exact.  U12 is made in the pivot rows' own storage, which no later
    panel reads: A12 is reduced there, the product of -inv and its limbs
    is cast back into it, exactly, and reduced again.  So beside A an
    elimination holds U12's limbs (2 * _PANEL rows of float64) and one
    chunk's product, or while U12 is made, A12's limbs and the product of
    the pivot rows.  An entry is reduced mod p only where it is read: as a
    panel column, in a pivot row or in the rest that _echelon takes.  Until
    then it takes at most one update per panel with a pivot,
    min(m, n // _PANEL) of them, so it stays below
    p + min(m, n // _PANEL) * 3 * 2^51; a shape for which that could reach
    2^63 (more than 1365 rows and panels) is refused before any update."""
    m, n = A.shape
    if min(m, n // _PANEL) * 3 * 2**51 >= 2**63 - p:
        raise ValueError(f"a {m} x {n} matrix could overflow int64 in rank_profile")
    profile: list[int] = []
    r = c = 0
    while m - r > _NARROW and n - c > _NARROW:
        c1 = c + _PANEL
        A[r:, c:c1] %= p
        pivots, rows, inv = _panel(A[r:, c:c1], p)
        J = [c + j for j in pivots]
        k = len(J)
        if k:
            # one gather and scatter moves the pivot rows to rows r..r+k-1,
            # in pivot order, and the other rows there to the rows they left
            src = rows + sorted(set(range(k)) - set(rows))
            dst = list(range(k)) + [i for i in rows if i >= k]
            A[[r + i for i in dst], c:] = A[[r + i for i in src], c:]
            # U12 = -inv A12 mod p is made in the pivot rows, which no
            # later panel reads: the product's cast into them is exact
            U12 = A[r : r + k, c1:]
            U12 %= p
            np.copyto(U12, _limb_product(-inv % p, _limbs(U12), p), casting="unsafe")
            U12 %= p
            U = _limbs(U12)
            for s in range(r + k, m, _CHUNK):
                # the add casts the product to int64 as it goes, exactly
                block, X = A[s : s + _CHUNK, c1:], A[s : s + _CHUNK, J]
                np.add(block, _limb_product(X, U, p), out=block, dtype=np.int64, casting="unsafe")
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


def _panel(P: np.ndarray, p: int) -> tuple[list[int], list[int], np.ndarray]:
    """The pivots of _echelon(P.copy(), p), the column rank profile of P;
    rows of P that pivot them, in pivot order; and the inverse of P at those
    rows in the pivot columns.  They come from _echelon on [S | 0] with n
    record columns (not b: at most n rows are pivots), where S is the
    b = min(_PANEL, m) rows i m // b (i < b), spread over the whole of P,
    or, when those leave a column without a pivot, S = P: at most two
    Gauss-Jordans.  Exact: rows of P that pivot every column prove that
    every column is in P's profile, and on S = P _echelon gives the
    profile, which no order of the rows changes.  Spread rows pivot a
    fat-point matrix's panel where its leading rows, monomials in
    factor-major order, often cannot."""
    m, n = P.shape
    b = min(_PANEL, m)
    for rows in ((np.arange(b) * m // b).tolist(), list(range(m))):
        G = np.pad(P[rows], [(0, 0), (0, n)])
        pivots, swaps = _echelon(G, p, n)
        if len(pivots) == n or len(rows) == m:
            break
    for i, j in swaps:
        rows[i], rows[j] = rows[j], rows[i]
    k = len(pivots)
    return pivots, rows[:k], G[:k, n : n + k]


def _limbs(U: np.ndarray) -> np.ndarray:
    """The 16-bit limbs of U (int64 in [0, 2^31)) for _limb_product:
    hi = U >> 16 stacked above lo = U & 0xFFFF, in float64.  Each limb is
    cast into its half of the one output array as it is made, so no int64
    limb is held beside it."""
    k = U.shape[0]
    L = np.empty((2 * k, U.shape[1]))
    np.right_shift(U, 16, out=L[:k], casting="unsafe")
    np.bitwise_and(U, 0xFFFF, out=L[k:], casting="unsafe")
    return L


def _limb_product(X: np.ndarray, L: np.ndarray, p: int) -> np.ndarray:
    """A float64 matrix congruent to X @ U mod p, for X in [0, p) and
    L = _limbs(U): [X * 2^16 mod p | X] @ [hi; lo] (BLAS).

    With p < 2^31 and at most _PANEL = 2^5 columns in X, every entry is an
    integer below 2^5 * (2^31 * 2^15 + 2^31 * 2^16) = 3 * 2^51 < 2^53, so
    float64 computes it exactly, and its cast to int64 is exact too.
    _rank_profile makes U12 with it and adds it into A22 unreduced."""
    S = np.concatenate([X * 65536 % p, X], axis=1).astype(np.float64)
    return S @ L


def dimension(
    space: MultiProjectiveSpace,
    degree: Multidegree,
    scheme: FatPointScheme,
    config: PrimeFieldConfig | None = None,
) -> Certificate:
    """Compute the dimension of the linear system and certify it when the
    result matches the expected dimension; otherwise try once more, at the
    alternate prime with a fresh seed, before reporting a special
    candidate."""
    return dimensions(space, degree, scheme, [len(scheme)], config)[0]


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
    the matrix, one chunk (_CHUNK rows of a build batch or of a trailing
    update's product) and one panel's U12 limbs are alive per attempt.  Each
    prefix keeps its own runs and stops at its own first certifying attempt.
    Jet rows come last, so a scheme with jets has no proper prefixes.

    A subscheme is the scheme with the runs of its first k points (split,
    then dataclasses.replace, which keeps every other part), so neither the
    subschemes nor the limit check list a point.  An attempt whose matrix
    this process has eliminated before, among the last _MEMO_SIZE (64),
    builds nothing: it reads the remembered row rank profile, keyed on
    everything build_matrix reads (space, multidegree, scheme, prime and
    seed).  The column and row limits are checked first, memo or not.  A
    forked worker starts with its parent's memo and sends its additions
    back.

    Every scheme gets the same two attempts: (prime, seed), then the
    alternate prime at the fresh seed (seed * 1000003 + 1) mod 2^63.  The
    second changes the points as well as the prime: random.Random(seed)
    draws the same integers at both 31-bit primes, so only a fresh seed
    draws fresh points.  A scheme that draws nothing from the seed (every
    point pinned, every jet with a direction) still gets a distinct matrix
    per attempt, from the prime."""
    config = config or PrimeFieldConfig()
    npts = len(scheme)
    subs = []
    for k in counts:
        if not 0 <= k <= npts:
            raise ValueError(f"point count {k} is outside 0..{npts}")
        if k < npts and scheme.jets:
            raise ValueError("a scheme with jets has no proper point prefixes")
        subs.append(replace(scheme, runs=scheme.split(k)[0]))
    # the subschemes share the columns; build_matrix checks the scheme.  The
    # limits are checked here, before the memo is read
    rows = [sub.conditions(space.ambient_dim()) for sub in subs]
    cols = check_columns(space, degree, scheme.contained, max(rows, default=0))
    vdims = [cols - nrows for nrows in rows]
    exps = [max(0, vdim) for vdim in vdims]

    alternate = DEFAULT_PRIME if config.prime == ALTERNATE_PRIME else ALTERNATE_PRIME
    attempts = [(config.prime, config.seed), (alternate, (config.seed * 1000003 + 1) % 2**63)]

    runs: list[list[tuple[int, int, int]]] = [[] for _ in subs]
    for p, sd in attempts:
        # a prefix stops at its first attempt that gives the expected dim
        todo = [i for i, rs in enumerate(runs) if not rs or rs[-1][2] != exps[i]]
        if not todo:
            break
        # each open prefix's matrix is a row prefix of the longest one's
        longest = max(todo, key=lambda i: rows[i])
        profile = _row_profile(space, degree, subs[longest], p, sd)
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


# The row rank profiles dimensions() has eliminated, keyed on what
# build_matrix reads, oldest first; at most _MEMO_SIZE of them, each at most
# 4 MAX_COLUMNS bytes
_MEMO_SIZE = 64
_profiles: dict[tuple, array] = {}


def _row_profile(
    space: MultiProjectiveSpace,
    degree: Multidegree,
    scheme: FatPointScheme,
    p: int,
    seed: int,
) -> array:
    """The row rank profile of build_matrix(space, degree, scheme, p, seed),
    remembered, or built and eliminated in place (conditions as columns, as
    build_matrix lays it out) and remembered; the matrix is gone on return.
    The caller has checked the column and row limits."""
    # the frozen dataclasses hash and compare by every field, so the scheme
    # is its own key: its runs (one (point, length) entry per run of equal
    # points, so a key holds few point objects), jets and contained
    # subvarieties
    key = (space, degree, scheme, p, seed)
    profile = _profiles.get(key)
    if profile is None:
        pivots = _rank_profile(build_matrix(space, degree, scheme, prime=p, seed=seed).array.T, p)
        profile = array("I", pivots)
        _remember(key, profile)
    return profile


def _remember(key: tuple, profile: array) -> None:
    """Remember a row rank profile under its key, forgetting the oldest
    entry past _MEMO_SIZE."""
    _profiles[key] = profile
    if len(_profiles) > _MEMO_SIZE:
        del _profiles[next(iter(_profiles))]


# --- exact-rational oracle ---------------------------------------------


def _exact_normalize(vec):
    from fractions import Fraction  # here: only the oracle uses it

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
    from fractions import Fraction  # here: only the oracle uses it

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
