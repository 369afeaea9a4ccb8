import random
from bisect import bisect_left

import numpy as np
import pytest

from fatpoints.engine import (
    ALTERNATE_PRIME,
    DEFAULT_PRIME,
    Certificate,
    DimensionVerdict,
    PrimeFieldConfig,
    _NARROW,
    _PANEL,
    build_matrix,
    dimension,
    dimensions,
    exact_dimension,
    exact_rank_oracle,
    rank_fp,
    rank_profile,
    status_matches,
)
from fatpoints.schemes import (
    FatPoint,
    FatPointScheme,
    JetCondition,
    PointSpec,
    make_scheme,
    virtual_dim,
)
from fatpoints.spaces import Multidegree, MultiProjectiveSpace


def test_rank_fp_small():
    p = 101
    A = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]], dtype=np.int64)
    assert rank_fp(A, p) == 2
    assert rank_fp(np.zeros((3, 4), dtype=np.int64), p) == 0
    assert rank_fp(np.eye(5, dtype=np.int64), p) == 5
    assert rank_fp(np.zeros((0, 4), dtype=np.int64), p) == 0
    assert rank_fp(np.zeros((0, 600), dtype=np.int64), p) == 0
    assert rank_fp(np.zeros((3, 0), dtype=np.int64), p) == 0


@pytest.mark.parametrize("p", [0, 1, -7, 2**31, 2**31 + 11])
def test_rank_fp_rejects_primes_out_of_range(p):
    with pytest.raises(ValueError, match="2 <= p < 2\\^31"):
        rank_fp(np.eye(3, dtype=np.int64), p)


def _mulmod_int64(L, R, p):
    """L @ R mod p in int64: with entries below 2^31, each 16-bit limb of R
    gives products below 2^47, so sums of up to 2^15 terms stay exact."""
    hi = L @ (R >> 16) % p
    return (hi * 65536 + L @ (R & 0xFFFF)) % p


def _rank_k_matrix(rng, m, n, k, p):
    """M = L R mod p of rank exactly k.  L (m x k) has I_k in k random rows
    and R (k x n) has I_k in k random columns; other entries are drawn from
    [0, p).  R's first row is set to p - 1 (its identity columns then have
    determinant p - 1), and two more rows of L are e_0, so M has rows of p - 1
    (the worst case for the kernel's limbs).  Two other rows of L and two
    other columns of R are zero."""
    L = rng.integers(0, p, (m, k))
    R = rng.integers(0, p, (k, n))
    rows, cols = rng.permutation(m), rng.permutation(n)
    L[rows[:k]] = np.eye(k, dtype=np.int64)
    R[:, cols[:k]] = np.eye(k, dtype=np.int64)
    if k:
        R[0] = p - 1
        L[rows[k : k + 2]] = np.eye(k, dtype=np.int64)[0]
    L[rows[k + 2 : k + 4]] = 0
    R[:, cols[k : k + 2]] = 0
    return _mulmod_int64(L, R, p)


_KERNEL_WIDTHS = [
    _PANEL - 1, _PANEL, _PANEL + 1, 2 * _PANEL + 1,
    _NARROW - 1, _NARROW, _NARROW + 1, _NARROW + _PANEL + 1, _NARROW + 2 * _PANEL + 1,
]


@pytest.mark.parametrize("p", [DEFAULT_PRIME, ALTERNATE_PRIME, 101, 2])
def test_rank_fp_known_rank(p):
    rng = np.random.default_rng(p % 1000)
    cases = []
    for n in _KERNEL_WIDTHS:
        for m in (n // 2, n, n + 9):
            top = min(m, n)
            cases += [(m, n, k) for k in sorted({top, max(top - 5, 0), top // 3})]
    # about 600 columns: one shape and rank per prime bounds the test's time
    cases.append(
        {DEFAULT_PRIME: (300, 600, 295), ALTERNATE_PRIME: (600, 600, 595),
         101: (640, 600, 200), 2: (600, 600, 600)}[p]
    )
    for m, n, k in cases:
        M = _rank_k_matrix(rng, m, n, k, p)
        before = M.copy()
        assert rank_fp(M, p) == k, (p, m, n, k)
        assert np.array_equal(M, before)



@pytest.mark.parametrize("p", [DEFAULT_PRIME, ALTERNATE_PRIME])
def test_rank_fp_exact_at_the_limb_bound(p):
    # the first _PANEL rows, [I | 2], are the pivot rows of the first panel;
    # negated they give U = p - 2 in every trailing column.  Every other row
    # is -2 times their sum (p - 2 on the panel), so each trailing-update
    # entry is a sum of odd products near the bound the limbs allow, and must
    # come out exactly 0 mod p: a rounded sum leaves rank above _PANEL
    b, n = _PANEL, _NARROW + 2 * _PANEL + 1
    top = np.hstack([np.eye(b, dtype=np.int64), np.full((b, n - b), 2)])
    rest = np.full((n - b, n), p - 2, dtype=np.int64)
    rest[:, b:] = -4 * b % p
    assert rank_fp(np.vstack([top, rest]), p) == b


def _planted_profile_matrix(rng, m, n, k, p):
    """(M, profile): M = L R mod p, an m x n matrix whose column rank profile
    is a random k-subset of the columns.  The planted columns are the
    columns of L, a row permutation of a unit lower triangular m x k matrix,
    so they are independent; every other column j is L R[:, j], a random
    combination of the planted columns left of j (R[i, j] = 0 when planted
    column i lies right of j)."""
    profile = np.sort(rng.choice(n, k, replace=False))
    L = np.tril(rng.integers(0, p, (m, k)), -1)
    L[np.arange(k), np.arange(k)] = 1
    L = L[rng.permutation(m)]
    R = rng.integers(0, p, (k, n))
    for j in range(n):
        R[np.searchsorted(profile, j, side="right"):, j] = 0
    R[:, profile] = np.eye(k, dtype=np.int64)
    return _mulmod_int64(L, R, p), profile.tolist()


@pytest.mark.parametrize("p", [DEFAULT_PRIME, ALTERNATE_PRIME, 101, 2])
def test_rank_profile_planted(p):
    rng = np.random.default_rng(p % 997)
    cases = [
        (m, n, k)
        for n in (31, 33, 127, 129, 161, 193)
        for m in (n // 2, n + 9)
        for k in sorted({min(m, n), min(m, n) // 3})
    ]
    cases.append((300, 600, 290))
    for m, n, k in cases:
        M, planted = _planted_profile_matrix(rng, m, n, k, p)
        before = M.copy()
        profile = rank_profile(M, p)
        assert profile == planted, (p, m, n, k)
        assert rank_fp(M, p) == len(profile) == k
        assert np.array_equal(M, before)
        # A = M^T has the planted columns as its row rank profile, read off
        # A.T, a column-major view; the ranks of its row prefixes never
        # decrease, and grow by at most one a row
        A = np.ascontiguousarray(M.T)
        row_profile = rank_profile(A.T, p)
        assert row_profile == planted and rank_fp(A, p) == k
        prefix = [bisect_left(row_profile, i) for i in range(n + 1)]
        assert all(0 <= b - a <= 1 for a, b in zip(prefix, prefix[1:]))


def test_prefix_ranks_match_exact_oracle():
    # the systems of test_prime_field_rank_matches_exact_oracle: the rank of
    # every point prefix, read off one row rank profile of the whole matrix
    rng = random.Random(20260823)
    for _ in range(100):
        space, degree, scheme = _random_pinned_instance(rng)
        mat = build_matrix(space, degree, scheme, prime=DEFAULT_PRIME, seed=0)
        profile = rank_profile(mat.array.T, DEFAULT_PRIME)
        ranks = []
        for k in range(1, len(scheme.points) + 1):
            prefix = FatPointScheme(scheme.points[:k])
            rows = prefix.conditions(space.ambient_dim())
            ranks.append(bisect_left(profile, rows))
            assert ranks[-1] == exact_rank_oracle(space, degree, prefix), (
                space, degree, scheme.type_label(), k
            )
        assert ranks == sorted(ranks)


def test_dimensions_prefix_certificates():
    sp, dg = MultiProjectiveSpace((1, 1)), Multidegree((3, 3))
    scheme, config = make_scheme("3,2^5"), PrimeFieldConfig(seed=4)
    certs = dimensions(sp, dg, scheme, [1, 3, 6, 0], config)
    for k, cert in zip([1, 3, 6, 0], certs):
        prefix = FatPointScheme(scheme.points[:k])
        assert cert.to_json() == dimension(sp, dg, prefix, config).to_json()
    with pytest.raises(ValueError):
        dimensions(sp, dg, scheme, [7])


def test_matrix_shape_and_provenance():
    sp, dg = MultiProjectiveSpace((1, 1)), Multidegree((3, 3))
    points = make_scheme("3,2^3").points
    # jet rows come last: the matrix without the jets is a row prefix
    jets = [JetCondition(0, 2), JetCondition(1, 1, (5, 7))]
    for p, sd in ((DEFAULT_PRIME, 0), (101, 3)):
        without = build_matrix(sp, dg, FatPointScheme(points), prime=p, seed=sd)
        full = build_matrix(sp, dg, FatPointScheme(points, jets), prime=p, seed=sd)
        assert without.array.shape == (15, 16)
        assert full.rows == without.rows + 2
        assert (full.array[: without.rows] == without.array).all()


def test_certified_regular():
    sp = MultiProjectiveSpace((1, 1))
    cert = dimension(sp, Multidegree((3, 3)), make_scheme("3,2^3"))
    assert cert.status == DimensionVerdict.REGULAR
    assert cert.computed_dim == 1
    assert cert.virtual_dim == 1


def test_certified_zero():
    sp = MultiProjectiveSpace((2, 1))
    cert = dimension(sp, Multidegree((3, 3)), make_scheme("4,2^6"))
    assert cert.status == DimensionVerdict.ZERO
    assert cert.computed_dim == 0
    assert cert.virtual_dim == -4


def test_special_candidate_retries():
    # five double points on plane quartics: the classically special system
    cert = dimension(MultiProjectiveSpace((2,)), Multidegree((4,)), make_scheme("2^5"))
    assert cert.status == DimensionVerdict.SPECIAL_CANDIDATE
    assert cert.computed_dim == 1
    # retried with fresh seeds and the alternate prime
    assert len(cert.runs) == 4
    assert {p for p, _, _ in cert.runs} == {DEFAULT_PRIME, ALTERNATE_PRIME}


@pytest.mark.parametrize("prime", [DEFAULT_PRIME, ALTERNATE_PRIME])
def test_last_attempt_changes_the_prime(prime):
    (other,) = {DEFAULT_PRIME, ALTERNATE_PRIME} - {prime}
    cert = dimension(
        MultiProjectiveSpace((2,)), Multidegree((4,)), make_scheme("2^5"),
        PrimeFieldConfig(prime=prime),
    )
    assert cert.status == DimensionVerdict.SPECIAL_CANDIDATE
    assert [p for p, _, _ in cert.runs] == [prime, prime, prime, other]


def test_zero_label_at_vdim_zero():
    # vdim 0 and dim 0: labelled Zero, not Regular
    sp = MultiProjectiveSpace((1, 2))
    cert = dimension(sp, Multidegree((2, 3)), make_scheme("3,2^5"))
    assert cert.status == DimensionVerdict.ZERO
    assert cert.virtual_dim == 0
    assert status_matches("Regular", cert) and status_matches("Zero", cert)


def test_status_matches_on_the_numbers():
    def cert(status, dim, vdim):
        return Certificate(
            DimensionVerdict(status), dim, vdim, max(0, vdim), 0, 0, 0, DEFAULT_PRIME, 0
        )

    assert status_matches("Regular", cert("Regular", 2, 2))
    assert not status_matches("Zero", cert("Regular", 2, 2))
    assert status_matches("Zero", cert("Zero", 0, -3))
    assert not status_matches("Regular", cert("Zero", 0, -3))
    # evidence is never a match, whatever the numbers
    assert not status_matches("Regular", cert("SpecialCandidate", 3, 2))
    assert not status_matches("Zero", cert("Inconclusive", 0, -1))
    with pytest.raises(ValueError):
        status_matches("SpecialCandidate", cert("Regular", 2, 2))


def test_determinism():
    sp = MultiProjectiveSpace((1, 1))
    c1 = dimension(sp, Multidegree((3, 3)), make_scheme("3,2^3"))
    c2 = dimension(sp, Multidegree((3, 3)), make_scheme("3,2^3"))
    assert c1.to_json() == c2.to_json()


def _random_pinned_instance(rng):
    shape = rng.choice([(1,), (2,), (1, 1), (1, 2)])
    space = MultiProjectiveSpace(shape)
    degree = Multidegree(tuple(rng.randint(1, 3) for _ in shape))
    npts = rng.randint(1, 3)
    points = []
    for _ in range(npts):
        mult = rng.randint(1, 3)
        coords = tuple(
            tuple(rng.randint(1, 50) for _ in range(n + 1)) for n in shape
        )
        points.append(FatPoint(mult, PointSpec(None, coords)))
    return space, degree, FatPointScheme(points)


def test_prime_field_rank_matches_exact_oracle():
    rng = random.Random(20260823)
    checked = 0
    for _ in range(100):
        space, degree, scheme = _random_pinned_instance(rng)
        mat = build_matrix(space, degree, scheme, prime=DEFAULT_PRIME, seed=0)
        rk_p = rank_fp(mat.array, DEFAULT_PRIME)
        rk_q = exact_rank_oracle(space, degree, scheme)
        assert rk_p == rk_q, (space, degree, scheme.type_label())
        checked += 1
    assert checked == 100


def _jet_instances():
    sp = MultiProjectiveSpace((1, 1))
    yield sp, Multidegree((3, 3)), FatPointScheme(
        [FatPoint(3, PointSpec(None, ((1, 2), (1, 3))))],
        jets=[JetCondition(0, 3, (2, 5)), JetCondition(0, 2, (1, 1))],
    )
    # seeded pinned points; jet orders 1..base multiplicity; directions
    # with zero (and negative) components
    rng = random.Random(20261017)
    for _ in range(60):
        space, degree, scheme = _random_pinned_instance(rng)
        for _ in range(rng.randint(1, 3)):
            base = rng.randrange(len(scheme.points))
            order = rng.randint(1, scheme.points[base].multiplicity)
            direction = tuple(
                rng.choice((0, rng.randint(-20, 20)))
                for _ in range(space.ambient_dim())
            )
            scheme.jets.append(JetCondition(base, order, direction))
        yield space, degree, scheme
    # Taylor's formula: modulo the derivatives of order < D = sum(degrees)
    # at q, the value at q + t equals the order-D jet along t, so only exact
    # jet coefficients keep the rank down
    for shape, degs in [((2,), (2,)), ((2,), (3,)), ((1, 1), (2, 1)), ((1, 2), (1, 2))]:
        q = [[1] + [rng.randint(-9, 9) for _ in range(n)] for n in shape]
        t = [rng.choice((0, rng.randint(-9, 9))) for _ in range(sum(shape))]
        shifted, off = [], 0
        for n, vec in zip(shape, q):
            shifted.append(tuple([1] + [vec[i + 1] + t[off + i] for i in range(n)]))
            off += n
        yield MultiProjectiveSpace(shape), Multidegree(degs), FatPointScheme(
            [
                FatPoint(sum(degs), PointSpec(None, tuple(map(tuple, q)))),
                FatPoint(1, PointSpec(None, tuple(shifted))),
            ],
            jets=[JetCondition(0, sum(degs), tuple(t))],
        )


def test_jet_row_matches_exact_oracle():
    for space, degree, scheme in _jet_instances():
        mat = build_matrix(space, degree, scheme, prime=DEFAULT_PRIME, seed=0)
        assert rank_fp(mat.array, DEFAULT_PRIME) == exact_rank_oracle(
            space, degree, scheme
        ), (space, degree, scheme)


def test_computed_dim_at_least_vdim():
    rng = random.Random(5)
    sp = MultiProjectiveSpace((1, 2))
    dg = Multidegree((2, 2))
    for _ in range(20):
        scheme = make_scheme([(rng.randint(1, 3), rng.randint(1, 4))])
        cert = dimension(sp, dg, scheme)
        assert cert.computed_dim >= max(0, virtual_dim(sp, dg, scheme))


def test_adding_points_never_raises_dimension():
    sp = MultiProjectiveSpace((1, 1))
    dg = Multidegree((3, 3))
    prev = None
    for r in range(1, 7):
        cert = dimension(sp, dg, make_scheme([(2, r)]))
        if prev is not None:
            assert cert.computed_dim <= prev
        prev = cert.computed_dim


def test_column_limit():
    with pytest.raises(ValueError):
        build_matrix(
            MultiProjectiveSpace((3, 3)),
            Multidegree((8, 8)),
            make_scheme("2"),
        )


def test_exact_dimension_matches_engine():
    sp = MultiProjectiveSpace((1, 1))
    scheme = FatPointScheme(
        [
            FatPoint(3, PointSpec(None, ((1, 2), (3, 1)))),
            FatPoint(2, PointSpec(None, ((2, 5), (1, 4)))),
            FatPoint(2, PointSpec(None, ((7, 1), (2, 9)))),
            FatPoint(2, PointSpec(None, ((1, 13), (5, 3)))),
        ]
    )
    dg = Multidegree((3, 3))
    mat = build_matrix(sp, dg, scheme, prime=DEFAULT_PRIME, seed=0)
    assert 16 - rank_fp(mat.array, DEFAULT_PRIME) == exact_dimension(sp, dg, scheme)
