"""Interpolation matrices over a prime field and dimension certification.

The dimension of a linear system with general base points is computed as
(number of monomials) - rank of the condition matrix at random points over
F_p.  Both randomization steps can only *lower* the rank, so the computed
dimension is always an upper bound for the true generic dimension, which in
turn is at least max(0, virtual dimension).  Hence:

* computed == expected  certifies the system (status Regular or Zero);
* computed > expected   is only evidence of speciality (SpecialCandidate),
  reported after retrying with fresh points and an alternate prime.

Rows of the matrix are partial derivatives d^beta of order < a per fat point
(in the affine chart where the first nonvanishing coordinate of each factor
is normalized to 1), plus one row per jet condition of order kappa along a
direction t: sum over |beta| = kappa of (t^beta / beta!) d^beta at its base
point.  Both kinds of row are products of entries of one per-point table,
T[k, b] = ff(e_k, b) * q_k^(e_k - b), the order-b derivative in the affine
coordinate k of each basis monomial at the point q.

The rank over F_p (rank_fp) is exact for every prime p < 2^31.  Matrices of
more than four panels of 32 columns are eliminated blockwise: each panel is
reduced by a row-operation loop in int64, and the rows below it are updated
by one float64 (BLAS) matrix product per chunk of rows.  The right factor of
that product is split into 16-bit limbs, so with at most 32 inner terms every
entry stays below 2^53 and the product is exact.  Updated entries are
reduced mod p only when a panel reads them, and in full every eight panels.
Narrower matrices use the loop alone.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import factorial, prod

import numpy as np

from .schemes import FatPointScheme, expected_dim, virtual_dim
from .spaces import Multidegree, MultiProjectiveSpace, compositions, ideal_basis

DEFAULT_PRIME = 2147483647
ALTERNATE_PRIME = 2147483629
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
    retries: int = 2
    alternate_prime: int = ALTERNATE_PRIME

    def __post_init__(self):
        if self.prime < 2 or self.alternate_prime < 2:
            raise ValueError("primes must be >= 2")
        if self.prime >= 2**31 or self.alternate_prime >= 2**31:
            raise ValueError("primes must fit in 31 bits")
        for name in ("prime", "alternate_prime"):
            if not _is_prime(getattr(self, name)):
                raise ValueError(f"{name} {getattr(self, name)} is not prime")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")

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
        return {
            "status": self.status.value,
            "computed_dim": self.computed_dim,
            "virtual_dim": self.virtual_dim,
            "expected_dim": self.expected_dim,
            "rank": self.rank,
            "rows": self.rows,
            "cols": self.cols,
            "prime": self.prime,
            "seed": self.seed,
            "runs": [list(r) for r in self.runs],
        }


def _draw_factor(rng: random.Random, count: int, vanishing: frozenset[int], p: int):
    for _ in range(64):
        vec = tuple(
            0 if i in vanishing else rng.randrange(p) for i in range(count)
        )
        if any(vec):
            return vec
    raise RuntimeError("could not draw a nonzero coordinate vector")


def _normalize_factor(vec, p: int):
    """Scale so the first nonvanishing coordinate is 1; return (vec, chart)."""
    vec = tuple(int(c) % p for c in vec)
    for i, c in enumerate(vec):
        if c:
            inv = pow(c, -1, p)
            return tuple(c * inv % p for c in vec), i
    raise ValueError("zero coordinate vector mod p (prime divides all entries)")


def draw_scheme_points(
    space: MultiProjectiveSpace,
    scheme: FatPointScheme,
    prime: int,
    seed: int,
):
    """Draw (or normalize pinned) coordinates for every point and a
    direction for every jet lacking one.  Deterministic in the seed.

    Returns (points, charts, directions): per point the flat normalized
    coordinate tuple and the flat chart index per factor; per jet the
    affine direction vector.
    """
    rng = random.Random(seed)
    counts = space.coord_counts()
    points, charts = [], []
    for pt in scheme.points:
        vecs = []
        if pt.spec.coords is not None:
            vecs = list(pt.spec.coords)
            if pt.spec.stratum is not None:
                for f, s in enumerate(pt.spec.stratum.vanishing):
                    if any(vecs[f][i] % prime for i in s):
                        raise ValueError("pinned coordinates are off the stratum")
        else:
            for f, c in enumerate(counts):
                van = (
                    pt.spec.stratum.vanishing[f]
                    if pt.spec.stratum is not None
                    else frozenset()
                )
                vecs.append(_draw_factor(rng, c, van, prime))
        norm, chs = [], []
        for vec in vecs:
            nv, ch = _normalize_factor(vec, prime)
            norm.append(nv)
            chs.append(ch)
        points.append(tuple(x for v in norm for x in v))
        offs = space.coord_offsets()
        charts.append(tuple(offs[f] + ch for f, ch in enumerate(chs)))
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


@dataclass
class InterpolationMatrix:
    array: np.ndarray
    row_provenance: list[tuple]
    prime: int
    seed: int
    points: list[tuple[int, ...]]
    charts: list[tuple[int, ...]]
    directions: list[tuple[int, ...]]

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

    basis = ideal_basis(space, degree, scheme.contained)
    ncols = len(basis)
    if ncols > MAX_COLUMNS:
        raise ValueError(f"{ncols} columns exceeds the {MAX_COLUMNS} column limit")

    C = space.total_coords()
    E = np.array([m.flat() for m in basis], dtype=np.int64).reshape(ncols, C).T
    points, charts, directions = draw_scheme_points(space, scheme, p, seed)

    # basis-only tables for b = 0..max multiplicity (no jet order exceeds
    # its base point's multiplicity): FF[k, b] = ff(e_k, b) mod p, which is
    # 0 where e_k < b, and the clamped shifts S[k, b] = max(e_k - b, 0)
    bmax = max((pt.multiplicity for pt in scheme.points), default=0)
    FF = np.empty((C, bmax + 1, ncols), dtype=np.int64)
    FF[:, 0] = 1
    for b in range(1, bmax + 1):
        FF[:, b] = FF[:, b - 1] * (E - (b - 1)) % p
    S = np.maximum(E[:, None, :] - np.arange(bmax + 1)[:, None], 0)

    nrows = scheme.conditions(space.ambient_dim())
    first_jet_row = nrows - len(scheme.jets)
    A = np.empty((nrows, ncols), dtype=np.int64)
    provenance: list[tuple] = []
    r = 0
    for pi, (pt, q, chart) in enumerate(zip(scheme.points, points, charts)):
        affine = np.array([k for k in range(C) if k not in chart])
        jets = [(ji, jet) for ji, jet in enumerate(scheme.jets) if jet.base_index == pi]
        top = max([pt.multiplicity - 1] + [jet.order for _, jet in jets])
        # T[i, b] = ff(e_k, b) * q_k^(e_k - b) for the i-th affine coordinate
        # k: the order-b derivative of x_k^(e_k) at q, for every basis monomial
        pows = np.ones((len(affine), maxdeg + 1), dtype=np.int64)
        for e in range(1, maxdeg + 1):
            pows[:, e] = pows[:, e - 1] * np.take(q, affine) % p
        T = FF[affine, : top + 1] * np.take_along_axis(pows[:, None], S[affine, : top + 1], 2) % p

        betas = list(_derivative_multiindices(pt.multiplicity, len(affine)))
        A[r : r + len(betas)] = _derivative_rows(T, betas, p)
        provenance += [("point", pi, beta) for beta in betas]
        r += len(betas)
        for ji, jet in jets:
            A[first_jet_row + ji] = _jet_row(T, jet.order, directions[ji], p)
    provenance += [("jet", ji) for ji in range(len(scheme.jets))]

    return InterpolationMatrix(A, provenance, p, seed, points, charts, directions)


def _derivative_rows(T: np.ndarray, betas: list[tuple[int, ...]], p: int) -> np.ndarray:
    """One row per multi-index beta: d^beta of every basis monomial at the
    point, prod_i T[i, beta_i] mod p."""
    B = np.array(betas, dtype=np.intp)
    rows = T[0, B[:, 0]]
    for i in range(1, len(T)):
        rows = rows * T[i, B[:, i]] % p
    return rows


def _jet_row(T: np.ndarray, kappa: int, direction: tuple[int, ...], p: int) -> np.ndarray:
    """Order-kappa Taylor term along t, sum over |beta| = kappa of
    (t^beta / beta!) d^beta: the coefficient of lambda^kappa in
    prod_k (q_k + lambda t_k)^(e_k)."""
    betas = list(compositions(kappa, len(T)))
    inv_fact = [pow(factorial(b), -1, p) for b in range(kappa + 1)]
    coef = [
        prod(pow(t, b, p) * inv_fact[b] for t, b in zip(direction, beta)) % p
        for beta in betas
    ]
    return (np.array(coef)[:, None] * _derivative_rows(T, betas, p) % p).sum(axis=0) % p


# Panel width, trailing-update row chunk, the width up to which the
# unblocked loop alone is used (there the panel copies cost more than the
# matrix products save), and the panels between full reductions of the
# trailing block.  _PANEL bounds the inner dimension of every product in
# rank_fp, which keeps it exact in float64 (see _mulmod).
_PANEL = 32
_CHUNK = 256
_NARROW = 4 * _PANEL
_DELAY = 8


def rank_fp(matrix: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over F_p, for a prime 2 <= p < 2^31.

    Entries are reduced mod p; the input is not modified.  Matrices wider
    than _NARROW columns are eliminated in panels of _PANEL columns: the
    panel is reduced by the unblocked loop, its pivot rows are solved so
    their pivot columns form the identity (U12 is their trailing part), and
    the other rows, whose entries in the pivot columns are X, get the
    trailing update A22 += X (-U12), one float64 matrix product on 16-bit
    limbs per chunk of _CHUNK rows (see _mulmod).  A22 is reduced mod p
    only where it is read next, and in full every _DELAY panels.  The last
    _NARROW columns, and narrow matrices, use the unblocked loop alone.
    """
    if not 2 <= p < 2**31:
        raise ValueError(f"rank_fp needs 2 <= p < 2^31, got {p}")
    A = np.asarray(matrix, dtype=np.int64) % p
    m, n = A.shape
    r = c = 0
    while r < m and n - c > _NARROW:
        c1 = c + _PANEL
        # trailing updates are added unreduced, each below 2^53: reducing
        # every _DELAY panels keeps the entries below 2^56, exact in int64
        if c // _PANEL % _DELAY == _DELAY - 1:
            A[r:, c1:] %= p
        A[r:, c:c1] %= p
        pivots, swaps = _echelon(A[r:, c:c1].copy(), p)
        for i, j in swaps:
            A[[r + i, r + j], c:] = A[[r + j, r + i], c:]
        k = len(pivots)
        if k:
            J = c + np.array(pivots)
            neg_inv = -_inverse(A[r : r + k, J], p) % p
            U = _limbs(_mulmod(neg_inv, _limbs(A[r : r + k, c1:] % p), p) % p)
            for s in range(r + k, m, _CHUNK):
                A[s : s + _CHUNK, c1:] += _mulmod(A[s : s + _CHUNK, J], U, p)
        r, c = r + k, c1
    if c:
        A = A[r:, c:] % p
    return r + len(_echelon(A, p)[0])


def _echelon(A: np.ndarray, p: int) -> tuple[list[int], list[tuple[int, int]]]:
    """Reduce A (int64, entries in [0, p)) in place to row echelon form over
    F_p, one vectorised row operation per pivot; int64 is exact for p < 2^31
    since every product stays below 2^62.  Returns the pivot columns and
    the row swaps made, in order."""
    m, n = A.shape
    pivots, swaps = [], []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            A[[r, piv], c:] = A[[piv, r], c:]
            swaps.append((r, piv))
        inv = pow(int(A[r, c]), -1, p)
        A[r, c:] = A[r, c:] * inv % p
        tail = r + 1 + np.nonzero(A[r + 1:, c])[0]
        if tail.size:
            A[tail, c:] = (A[tail, c:] - A[tail, c, None] * A[r, c:][None, :]) % p
        pivots.append(c)
        r += 1
    return pivots, swaps


def _inverse(M: np.ndarray, p: int) -> np.ndarray:
    """M^-1 over F_p by Gauss-Jordan without row exchanges, for an int64
    M with entries in [0, p) whose leading principal minors are all nonzero
    mod p.  The pivot rows of a panel, in pivot order and restricted to its
    pivot columns, are such a matrix: the unblocked loop factors it as an
    invertible lower triangular matrix times a unit upper triangular one."""
    k = len(M)
    G = np.concatenate([M, np.eye(k, dtype=np.int64)], axis=1)
    for i in range(k):
        G[i] = G[i] * pow(int(G[i, i]), -1, p) % p
        f = G[:, i].copy()
        f[i] = 0
        G = (G - f[:, None] * G[i]) % p
    return G[:, k:]


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
    config = config or PrimeFieldConfig()
    vdim = virtual_dim(space, degree, scheme)
    exp = max(0, vdim)

    attempts = [(config.prime, config.seed)]
    attempts += [
        (config.prime, config.child_seed(i)) for i in range(1, config.retries + 1)
    ]
    attempts.append((config.alternate_prime, config.seed))

    runs: list[tuple[int, int, int]] = []
    best = None
    for p, sd in attempts:
        mat = build_matrix(space, degree, scheme, prime=p, seed=sd)
        rk = rank_fp(mat.array, p)
        dim = mat.cols - rk
        runs.append((p, sd, dim))
        if best is None or dim < best[0]:
            best = (dim, rk, mat.rows, mat.cols, p, sd)
        if dim == exp:
            break

    dim, rk, rows, cols, p, sd = best
    if dim == exp:
        if dim == 0 and vdim <= 0:
            status = DimensionVerdict.ZERO
        else:
            status = DimensionVerdict.REGULAR
    else:
        status = DimensionVerdict.SPECIAL_CANDIDATE
    return Certificate(status, dim, vdim, exp, rk, rows, cols, p, sd, runs)


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
    basis = ideal_basis(space, degree, scheme.contained)
    C = space.total_coords()
    offs = space.coord_offsets()
    exps = [m.flat() for m in basis]

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
    basis = ideal_basis(space, degree, scheme.contained)
    return len(basis) - exact_rank_oracle(space, degree, scheme)
