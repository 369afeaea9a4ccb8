import mmap
import random
import tracemalloc
from bisect import bisect_left
from dataclasses import replace
from math import comb, perm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatpoints import engine
from fatpoints.degeneration import collision_scheme
from fatpoints.engine import (
    ALTERNATE_PRIME,
    DEFAULT_PRIME,
    MAX_COLUMNS,
    Certificate,
    DimensionVerdict,
    PrimeFieldConfig,
    _NARROW,
    _PANEL,
    _echelon,
    _is_prime,
    _limbs,
    _panel,
    _rank_profile,
    build_matrix,
    dimension,
    dimensions,
    draw_scheme_points,
    exact_rank_oracle,
    rank_fp,
    rank_profile,
    status_matches,
)
from fatpoints.replication import load_bundled_registry
from fatpoints.schemes import (
    FatPoint,
    FatPointScheme,
    JetCondition,
    PointSpec,
    make_scheme,
    virtual_dim,
)
from fatpoints.secant import is_defective
from fatpoints.spaces import (
    CoordinateSubvariety,
    Multidegree,
    MultiProjectiveSpace,
    compositions,
    ideal_basis,
    ideal_basis_size,
)


def test_rank_fp_small():
    p = 101
    A = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]], dtype=np.int64)
    assert rank_fp(A, p) == 2
    assert rank_fp(np.zeros((3, 4), dtype=np.int64), p) == 0
    assert rank_fp(np.eye(5, dtype=np.int64), p) == 5
    assert rank_fp(np.zeros((0, 4), dtype=np.int64), p) == 0
    assert rank_fp(np.zeros((0, 600), dtype=np.int64), p) == 0
    assert rank_fp(np.zeros((3, 0), dtype=np.int64), p) == 0


@pytest.mark.parametrize(
    "p", [0, 1, -7, 4, 9, 561, 2**31 - 3, 2**31, 2**31 + 11, 4294967311]
)
def test_rank_fp_rejects_primes_out_of_range(p):
    # one check for the kernel, the build and the config: above 2^31 the
    # build's int64 products would wrap, and a composite has no inverses
    sp, dg, scheme = MultiProjectiveSpace((2,)), Multidegree((4,)), make_scheme("2")
    for call in (
        lambda: rank_fp(np.eye(3, dtype=np.int64), p),
        lambda: build_matrix(sp, dg, scheme, prime=p),
        lambda: PrimeFieldConfig(prime=p),
    ):
        with pytest.raises(ValueError, match=f"2 <= p < 2\\^31, got {p}$"):
            call()


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


_KERNEL_WIDTHS = sorted({
    _PANEL - 1, _PANEL, _PANEL + 1, 2 * _PANEL + 1,
    _NARROW - 1, _NARROW, _NARROW + 1, _NARROW + _PANEL + 1, _NARROW + 2 * _PANEL + 1,
})


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


@pytest.mark.parametrize("p", [DEFAULT_PRIME, ALTERNATE_PRIME])
def test_rank_fp_exact_over_delayed_reductions(p):
    # 15 panels of pivots: R_t, the pivot rows of panel t, are [0 | I | 2]
    # with I on panel t, so every panel solves to U = p - 2 (both limbs near
    # 2^16).  The rows below are (p - 2) times the sum of all R_t, so each
    # panel sees them as p - 2 in its columns (X * 2^16 mod p near p too):
    # every update adds about 0.75 * 2^53 to each of their trailing entries.
    # The last columns take all 15 updates, unreduced, and must still cancel
    # exactly to rank 15 _PANEL; a rounded product (float32, say) leaves the
    # rank above it.  Eliminated in place, those entries add up to about
    # 2^56.5, and each update stays below the limb bound 3 * 2^51.
    panels = 15
    n = _NARROW + panels * _PANEL  # the loop stops after the last panel
    R = np.zeros((panels * _PANEL, n), dtype=np.int64)
    for t in range(panels):
        panel = slice(t * _PANEL, (t + 1) * _PANEL)
        R[panel, panel] = np.eye(_PANEL, dtype=np.int64)
        R[panel, (t + 1) * _PANEL :] = 2
    below = (p - 2) * R.sum(axis=0) % p
    M = np.vstack([R, np.tile(below, (_PANEL + 5, 1))])
    assert rank_fp(M, p) == panels * _PANEL
    A = M.copy()
    assert len(_rank_profile(A, p)) == panels * _PANEL
    assert 0 <= A.min() and 2**56 < A.max() < p + panels * 3 * 2**51, A.max() / 2**56


def test_rank_profile_refuses_shapes_that_could_overflow():
    # 1366 rows and 1366 panels: 1366 updates below 3 * 2^51 could pass
    # 2^63.  A read-only view of one zero: refused before anything is read
    A = np.broadcast_to(np.int64(0), (1366, 1366 * _PANEL))
    with pytest.raises(ValueError, match=f"1366 x {1366 * _PANEL} matrix"):
        _rank_profile(A, DEFAULT_PRIME)


def _unit_lower(rng, m, k, p):
    """A row permutation of a random unit lower triangular m x k matrix."""
    L = np.tril(rng.integers(0, p, (m, k)), -1)
    L[np.arange(k), np.arange(k)] = 1
    return L[rng.permutation(m)]


def _planted_profile_matrix(rng, m, n, k, p, low=0):
    """(M, profile): M = L R mod p, an m x n matrix whose column rank profile
    is a random k-subset of the columns.  The planted columns are the
    columns of L, a row permutation of a unit lower triangular m x k matrix,
    so they are independent; every other column j is L R[:, j], a random
    combination of the planted columns left of j (R[i, j] = 0 when planted
    column i lies right of j).

    With low > 0, exactly low planted columns lie in the first _PANEL
    columns, and M is zero there above its last low rows: L is then
    [[0, L'], [I, X]], with L' as above and X random."""
    if low:
        profile = np.sort(np.concatenate([
            rng.choice(_PANEL, low, replace=False),
            _PANEL + rng.choice(n - _PANEL, k - low, replace=False),
        ]))
        L = np.zeros((m, k), dtype=np.int64)
        L[: m - low, low:] = _unit_lower(rng, m - low, k - low, p)
        L[m - low :, :low] = np.eye(low, dtype=np.int64)
        L[m - low :, low:] = rng.integers(0, p, (low, k - low))
    else:
        profile = np.sort(rng.choice(n, k, replace=False))
        L = _unit_lower(rng, m, k, p)
    R = rng.integers(0, p, (k, n))
    for j in range(n):
        R[np.searchsorted(profile, j, side="right"):, j] = 0
    R[:, profile] = np.eye(k, dtype=np.int64)
    return _mulmod_int64(L, R, p), profile.tolist()


@pytest.mark.parametrize("p", [DEFAULT_PRIME, ALTERNATE_PRIME, 101, 2])
def test_rank_profile_planted(p):
    rng = np.random.default_rng(p % 997)
    # both sides of the blocked path's boundary, and at most _NARROW rows
    # under more than _NARROW + _PANEL columns, which the loop takes alone
    shapes = [(m, n) for n in _KERNEL_WIDTHS for m in (n // 2, n + 9)]
    shapes += [(_NARROW, _NARROW + _PANEL + 1), (_NARROW - 1, 4 * _NARROW)]
    cases = [(m, n, k, 0) for m, n in shapes for k in sorted({min(m, n), min(m, n) // 3})]
    # in the last case the first panel's pivots lie in its last 5 of 300
    # rows, outside every candidate row set but the whole panel
    cases += [(300, 600, 290, 0), (300, 193, 150, 5)]
    for m, n, k, low in cases:
        M, planted = _planted_profile_matrix(rng, m, n, k, p, low)
        before = M.copy()
        profile = rank_profile(M, p)
        assert profile == planted, (p, m, n, k, low)
        assert rank_fp(M, p) == len(profile) == k
        assert np.array_equal(M, before)
        # A = M^T has the planted columns as its row rank profile, read off
        # A.T, a column-major view; the ranks of its row prefixes never
        # decrease, and grow by at most one a row
        A = np.ascontiguousarray(M.T)
        row_profile = rank_profile(A.T, p)
        assert row_profile == planted and rank_fp(A, p) == k
        assert np.array_equal(A, M.T)  # the column-major input is not modified
        prefix = [bisect_left(row_profile, i) for i in range(n + 1)]
        assert all(0 <= b - a <= 1 for a, b in zip(prefix, prefix[1:]))


@pytest.mark.parametrize("p", [DEFAULT_PRIME, 101, 2])
def test_panel_pivots_match_echelon(p):
    # panels of 300 rows that are zero above row 32, 64 or 256, or nonzero
    # in the last row alone, so some or all candidate row sets but the whole
    # panel miss their pivots; a zero panel; rank-deficient panels, dense
    # or with three zero columns
    rng = np.random.default_rng(p % 991)
    m = 300
    panels = []
    for top in (_PANEL, 2 * _PANEL, 8 * _PANEL):
        P = np.zeros((m, _PANEL), dtype=np.int64)
        P[top:] = rng.integers(0, p, (m - top, _PANEL))
        panels.append(P)
    P = np.zeros((m, _PANEL), dtype=np.int64)
    P[-1] = rng.integers(1, p, _PANEL)
    panels += [P, np.zeros((m, _PANEL), dtype=np.int64)]
    for k in (1, _PANEL - 3):
        Y = rng.integers(0, p, (k, _PANEL))
        Y[:, [0, 7, _PANEL - 1]] = 0
        panels.append(_mulmod_int64(rng.integers(0, p, (m, k)), Y, p))
    panels.append(rng.integers(0, p, (m, _PANEL)))
    for P in panels:
        before = P.copy()
        pivots, rows, inv = _panel(P, p)
        # the profile is the row echelon loop's; any rows may pivot it
        assert pivots == _echelon(P.copy(), p)[0]
        assert np.array_equal(P, before)
        # distinct rows of P, one per pivot, which inv inverts in the pivot
        # columns
        assert len(set(rows)) == len(rows) == len(pivots)
        assert all(0 <= i < m for i in rows)
        block = P[np.ix_(rows, pivots)]
        assert np.array_equal(_mulmod_int64(inv, block, p), np.eye(len(pivots)))


def test_fat_point_panels_run_one_gauss_jordan(monkeypatch):
    # the quartic head of theorem_hypotheses on P^2 x P^2 in degree (4, 4),
    # one 4-fat point and 40 double points, eliminated as dimensions() does,
    # conditions as columns: 225 monomials by 235 conditions.  The leading
    # monomials (factor-major order) cannot pivot the 4-fat point's
    # derivative conditions, rows spread over a panel can: each panel runs
    # its Gauss-Jordan once, and the profile is the unblocked loop's
    p = DEFAULT_PRIME
    sp, dg = MultiProjectiveSpace((2, 2)), Multidegree((4, 4))
    A = build_matrix(sp, dg, make_scheme([(4, 1), (2, 40)]), prime=p).array.T
    assert A.shape == (225, 235)
    runs = []  # the rows of every panel Gauss-Jordan, the runs with record columns

    def echelon(G, p, n=None):
        if n is not None:
            runs.append(G.shape[0])
        return _echelon(G, p, n)

    monkeypatch.setattr(engine, "_echelon", echelon)
    profile = _rank_profile(A.copy(), p)
    monkeypatch.undo()
    # a panel's first run is on _PANEL rows, and a restart on more
    assert runs and set(runs) == {_PANEL}
    assert profile == _echelon(A.copy(), p)[0]


def test_a_panel_runs_at_most_two_gauss_jordans(monkeypatch):
    # 300 rows, zero above row 256: 4 of the 32 rows spread over the whole
    # panel (rows i 300 // 32) lie below row 256, so they miss pivots, and
    # the second run, on all 300 rows, settles the panel
    p = DEFAULT_PRIME
    P = np.zeros((300, _PANEL), dtype=np.int64)
    P[256:] = np.random.default_rng(256).integers(0, p, (44, _PANEL))
    runs = []

    def echelon(G, p, n=None):
        runs.append(G.shape[0])
        return _echelon(G, p, n)

    monkeypatch.setattr(engine, "_echelon", echelon)
    pivots, rows, inv = _panel(P, p)
    monkeypatch.undo()
    assert runs == [_PANEL, 300]
    assert pivots == list(range(_PANEL)) and min(rows) >= 256


def test_an_attempt_holds_one_copy_and_one_chunk():
    # the widest main-theorem system, P^3 x P^3 in degree (4, 4): dimensions()
    # builds the matrix in place and eliminates it in place, adding each
    # chunk's float64 product straight into it, so its peak stays near one
    # copy of the r_high matrix plus one chunk (the second run, after
    # imports and caches, with the memo of eliminated matrices emptied so
    # that the second run eliminates too).  The matrix lies on its own
    # mapping (engine._matrix), which tracemalloc does not see, so what it
    # sees is what comes on top of the one copy
    sp, dg = MultiProjectiveSpace((3, 3)), Multidegree((4, 4))
    is_defective(sp, dg)
    engine._profiles.clear()
    tracemalloc.start()
    try:
        report = is_defective(sp, dg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.certified_nondefective
    nbytes = report.high.rows * report.high.cols * 8
    assert nbytes >= engine._MAPPED_BYTES
    assert peak < 0.3 * nbytes, peak / nbytes


def test_limbs_are_cast_into_their_one_output():
    # U12 of the P^4 x P^4 rung's first panel: each limb goes straight into
    # its half of the float64 output, so no int64 limb is held beside it
    U = np.random.default_rng(0).integers(0, 2**31, (_PANEL, 4900), dtype=np.int64)
    _limbs(U)
    tracemalloc.start()
    try:
        L = _limbs(U)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(L, np.concatenate([U >> 16, U & 0xFFFF]).astype(np.float64))
    assert L.dtype == np.float64
    assert peak < 1.25 * L.nbytes, peak / L.nbytes


def test_a_build_holds_its_matrix_and_small_tables():
    # build_matrix makes each batch's last Kronecker product in its rows of
    # the matrix, so only the per-factor tables of one batch come on top;
    # tracemalloc sees those, and not the matrix, which lies on its own
    # mapping
    sp, dg = MultiProjectiveSpace((3, 3)), Multidegree((4, 4))
    scheme = make_scheme([(2, 176)])
    build_matrix(sp, dg, scheme)
    tracemalloc.start()
    try:
        mat = build_matrix(sp, dg, scheme)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mat.array.shape == (176 * 7, 1225)
    base = mat.array
    while isinstance(base, np.ndarray):
        base = base.base
    assert isinstance(base.obj, mmap.mmap)  # a memoryview of the mapping
    assert peak < 0.1 * mat.array.nbytes, peak / mat.array.nbytes


def test_prefix_ranks_match_exact_oracle():
    # the systems of test_prime_field_rank_matches_exact_oracle: the rank of
    # every point prefix, read off one row rank profile of the whole matrix
    rng = random.Random(20260823)
    for _ in range(100):
        space, degree, scheme = _random_pinned_instance(rng)
        mat = build_matrix(space, degree, scheme, prime=DEFAULT_PRIME, seed=0)
        # built conditions-as-columns: the layout dimensions() eliminates
        assert mat.array.T.flags.c_contiguous
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
    # retried once, at the alternate prime
    assert len(cert.runs) == 2
    assert {p for p, _, _ in cert.runs} == {DEFAULT_PRIME, ALTERNATE_PRIME}


@pytest.mark.parametrize("seed", [0, 1])
def test_each_attempt_of_a_special_candidate_draws_afresh(seed):
    # one run per attempt, and no two attempts share a prime or a seed: the
    # second draws new points in a new field
    cert = dimension(
        MultiProjectiveSpace((2,)), Multidegree((4,)), make_scheme("2^5"),
        PrimeFieldConfig(seed=seed),
    )
    assert cert.status == DimensionVerdict.SPECIAL_CANDIDATE
    primes = [p for p, _, _ in cert.runs]
    seeds = [sd for _, sd, _ in cert.runs]
    assert len(cert.runs) == 2
    assert seeds[0] == seed
    assert len(set(primes)) == len(set(seeds)) == len(cert.runs)


@pytest.mark.parametrize("prime", [DEFAULT_PRIME, ALTERNATE_PRIME])
def test_last_attempt_changes_the_prime(prime):
    (other,) = {DEFAULT_PRIME, ALTERNATE_PRIME} - {prime}
    cert = dimension(
        MultiProjectiveSpace((2,)), Multidegree((4,)), make_scheme("2^5"),
        PrimeFieldConfig(prime=prime),
    )
    assert cert.status == DimensionVerdict.SPECIAL_CANDIDATE
    assert [p for p, _, _ in cert.runs] == [prime, other]


def test_a_pinned_scheme_is_eliminated_once_per_prime(build_calls):
    # two pinned double points on plane conics: the double line through them
    # is singular at both, so every attempt reads dimension 1; the points
    # draw nothing from the seed, and each attempt has its own prime: one
    # attempt, one build, one run per prime
    pts = [FatPoint(2, PointSpec(None, (v,))) for v in ((1, 2, 3), (4, 5, 7))]
    cert = dimension(MultiProjectiveSpace((2,)), Multidegree((2,)), FatPointScheme(pts))
    assert cert.status == DimensionVerdict.SPECIAL_CANDIDATE
    assert cert.runs == [(DEFAULT_PRIME, 0, 1), (ALTERNATE_PRIME, 1, 1)]
    assert build_calls == [2, 2]


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
    engine._profiles.clear()  # the second run eliminates afresh
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
        jets = []
        for _ in range(rng.randint(1, 3)):
            base = rng.randrange(len(scheme.points))
            order = rng.randint(1, scheme.points[base].multiplicity)
            direction = tuple(
                rng.choice((0, rng.randint(-20, 20)))
                for _ in range(space.ambient_dim())
            )
            jets.append(JetCondition(base, order, direction))
        # a scheme is frozen: the jets are built first and passed in
        yield space, degree, replace(scheme, jets=jets)
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


def _derivative_at(e, q, affine, beta, p):
    """d^beta x^e at q, mod p: prod over the affine coordinates k of
    e_k (e_k - 1) ... (e_k - beta_k + 1) q_k^(e_k - beta_k)."""
    value = 1
    for k, b in zip(affine, beta):
        value *= perm(e[k], b) * q[k] ** max(e[k] - b, 0)
    return value % p


def _taylor_term(e, q, affine, t, kappa, p):
    """The coefficient of lambda^kappa in prod_k (q_k + lambda t_k)^(e_k)
    over the affine coordinates k, mod p, by the binomial theorem."""
    poly = [1]
    for k, tk in zip(affine, t):
        factor = [comb(e[k], i) * q[k] ** (e[k] - i) * tk**i for i in range(min(e[k], kappa) + 1)]
        poly = [
            sum(poly[j] * factor[i - j] for j in range(len(poly)) if 0 <= i - j < len(factor))
            for i in range(min(len(poly) + len(factor) - 1, kappa + 1))
        ]
    return poly[kappa] % p if kappa < len(poly) else 0


def _reference_matrix(space, degree, scheme, p, seed):
    """The interpolation matrix entry by entry, in Python integers, at the
    engine's draws: per point the derivatives of order 0, 1, ..., a - 1
    (each order in composition order), then one row per jet."""
    points, charts, directions = draw_scheme_points(space, scheme, p, seed)
    # Python integers: the powers below would overflow in int64
    points, charts = points.tolist(), charts.tolist()
    cols = ideal_basis(space, degree, scheme.contained)
    N = space.ambient_dim()
    affine = [
        [k for k in range(space.total_coords()) if k not in chart] for chart in charts
    ]
    rows = []
    for pt, q, aff in zip(scheme.points, points, affine):
        for order in range(pt.multiplicity):
            for beta in compositions(order, N):
                rows.append([_derivative_at(e, q, aff, beta, p) for e in cols])
    for jet, t in zip(scheme.jets, directions):
        q, aff = points[jet.base_index], affine[jet.base_index]
        rows.append([_taylor_term(e, q, aff, t, jet.order, p) for e in cols])
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(cols))


@st.composite
def _small_systems(draw):
    """A space of 1-3 factors, general points of multiplicity 1-3 (some on
    coordinate strata), jets with drawn or pinned directions, contained
    subvarieties, and a (prime, seed)."""
    nf = draw(st.integers(1, 3))
    dims = tuple(draw(st.integers(1, 2)) for _ in range(nf))
    degs = tuple(draw(st.integers(0 if nf > 1 else 1, 3 if nf < 3 else 2)) for _ in dims)

    def subvariety():
        van = [draw(st.sets(st.integers(0, n), max_size=n)) for n in dims]
        if not any(van):
            van[draw(st.integers(0, nf - 1))] = {0}
        return CoordinateSubvariety(tuple(map(frozenset, van)))

    points = [
        FatPoint(draw(st.integers(1, 3)), PointSpec(subvariety() if draw(st.booleans()) else None))
        for _ in range(draw(st.integers(1, 4)))
    ]
    jets = []
    for _ in range(draw(st.integers(0, 2))):
        base = draw(st.integers(0, len(points) - 1))
        order = draw(st.integers(1, points[base].multiplicity))
        direction = draw(st.none() | st.tuples(*[st.integers(-9, 9)] * sum(dims)))
        jets.append(JetCondition(base, order, direction))
    contained = [subvariety() for _ in range(draw(st.integers(0, 2)))]
    p = draw(st.sampled_from([DEFAULT_PRIME, 101]))
    seed = draw(st.integers(0, 2**32))
    scheme = FatPointScheme(points, jets, contained)
    return MultiProjectiveSpace(dims), Multidegree(degs), scheme, p, seed


@settings(max_examples=100, deadline=None)
@given(_small_systems())
def test_build_matrix_matches_the_definition(system):
    space, degree, scheme, p, seed = system
    got = build_matrix(space, degree, scheme, prime=p, seed=seed).array
    assert np.array_equal(got, _reference_matrix(space, degree, scheme, p, seed))


def _normal_form(vec, p):
    """A factor vector reduced mod p and scaled so that its first nonzero
    coordinate is 1, and that coordinate's index."""
    vec = [c % p for c in vec]
    chart = next(i for i, c in enumerate(vec) if c)
    inv = pow(vec[chart], -1, p)
    return [c * inv % p for c in vec], chart


@pytest.mark.parametrize("p", [101, DEFAULT_PRIME])
def test_draws_are_in_normal_form(p):
    sp = MultiProjectiveSpace((2, 1))
    on_x0 = CoordinateSubvariety((frozenset({0}), frozenset()))
    on_x01_y0 = CoordinateSubvariety((frozenset({0, 1}), frozenset({0})))
    pinned = [
        ((3, -5, 2**40), (7, 1)),
        ((0, 0, 9), (p - 1, 2)),
        ((p, 4, 6), (0, 3)),  # on x0 = 0 mod p only
        ((0, 0, 2), (p, 3)),
    ]
    specs = [PointSpec(), PointSpec(on_x0), PointSpec(on_x01_y0)]
    specs += [PointSpec(None, pinned[0]), PointSpec(None, pinned[1])]
    specs += [PointSpec(on_x0, pinned[2]), PointSpec(on_x01_y0, pinned[3])]
    scheme = FatPointScheme([FatPoint(1, s) for s in specs])
    offs, counts = sp.coord_offsets(), sp.coord_counts()
    for seed in range(3):
        points, charts, _ = draw_scheme_points(sp, scheme, p, seed)
        assert points.dtype == np.int64 and points.shape == (len(specs), 5)
        assert charts.dtype == np.intp and charts.shape == (len(specs), 2)
        assert ((0 <= points) & (points < p)).all()
        for i, (row, chart) in enumerate(zip(points.tolist(), charts.tolist())):
            for f, (off, c) in enumerate(zip(offs, counts)):
                block = row[off : off + c]
                assert (block, chart[f] - off) == _normal_form(block, p)
                stratum = specs[i].stratum
                if stratum is not None:
                    assert not any(block[k] for k in stratum.vanishing[f])
                if specs[i].coords is not None:
                    assert (block, chart[f] - off) == _normal_form(specs[i].coords[f], p)


@pytest.mark.parametrize("p", [2, 3, 101, DEFAULT_PRIME, ALTERNATE_PRIME])
def test_built_entries_are_reduced(p):
    # dimensions() eliminates built matrices without reducing them again;
    # a degree the prime does not admit is lowered to p - 1, and a jet of
    # order >= p (no 1/order! mod p) is not built
    systems = [(c.space, c.degree, c.scheme) for c in load_bundled_registry()]
    sp = MultiProjectiveSpace((1, 1))
    pts = [FatPoint(2, PointSpec(None, ((1, 2), (1, 3)))), FatPoint(2)]
    jets = [JetCondition(0, 1, (2, -5)), JetCondition(1, 1)]
    systems.append((sp, Multidegree((3, 3)), FatPointScheme(pts, jets)))
    systems.append(next(_jet_instances()))
    sp = MultiProjectiveSpace((2, 2))
    systems.append((sp, Multidegree((3, 3)), collision_scheme(sp, extra_doubles=2)))
    for space, degree, scheme in systems:
        if any(jet.order >= p for jet in scheme.jets):
            continue
        degree = Multidegree(tuple(min(d, p - 1) for d in degree.degrees))
        A = build_matrix(space, degree, scheme, prime=p, seed=1).array
        assert ((0 <= A) & (A < p)).all(), (space, degree, scheme.type_label())


def test_a_jet_the_prime_cannot_build_is_refused_before_any_draw(monkeypatch):
    # the order-kappa Taylor term needs 1/kappa! mod p; the collision's
    # order-3 jets on P^2 x P^2 fit degree (2, 2) at p = 3, but not the prime
    from fatpoints import engine

    drawn = []
    monkeypatch.setattr(engine, "draw_scheme_points", lambda *a: drawn.append(a))
    sp, dg = MultiProjectiveSpace((2, 2)), Multidegree((2, 2))
    scheme = collision_scheme(sp, 3)
    assert max(jet.order for jet in scheme.jets) == 3
    with pytest.raises(ValueError, match=r"jet of order 3 .* mod 3\)"):
        dimension(sp, dg, scheme, PrimeFieldConfig(prime=3))
    assert drawn == []


def test_draws_refuse_bad_pinned_points():
    sp = MultiProjectiveSpace((2,))
    on_x0 = CoordinateSubvariety((frozenset({0}),))
    off_stratum = FatPointScheme([FatPoint(1, PointSpec(on_x0, ((1, 2, 3),)))])
    with pytest.raises(ValueError, match="off the stratum"):
        draw_scheme_points(sp, off_stratum, 101, 0)
    zero = FatPointScheme([FatPoint(1, PointSpec(None, ((101, 202, 303),)))])
    with pytest.raises(ValueError, match="zero coordinate vector mod p"):
        draw_scheme_points(sp, zero, 101, 0)


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    # the memoised function's own body, so the sweep leaves no cache behind
    assert all(_is_prime.__wrapped__(n) == trial(n) for n in range(2**16))
    # 31-bit primes, products of two primes near 2^15.5, Carmichael numbers,
    # and strong pseudoprimes to bases 2, to 2 and 3, and to 2, 3 and 5
    primes = [DEFAULT_PRIME, ALTERNATE_PRIME, 2147483587, 1000000007, 998244353]
    composites = [46337 * 46327, 2**31 - 3, 3 * 715827883, 561, 41041, 825265,
                  321197185, 2047, 1373653, 25326001]
    for n in primes + composites:
        assert _is_prime(n) == _is_prime.__wrapped__(n) == trial(n) == (n in primes), n


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
    # and the row limit: 2 MAX_COLUMNS rows are built, one double point more
    # is refused
    sp, dg = MultiProjectiveSpace((1,)), Multidegree((2,))
    mat = build_matrix(sp, dg, make_scheme([(2, MAX_COLUMNS)]))
    assert mat.array.shape == (2 * MAX_COLUMNS, 3)
    with pytest.raises(ValueError, match="row limit"):
        build_matrix(sp, dg, make_scheme([(2, MAX_COLUMNS + 1)]))


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
    exact = ideal_basis_size(sp, dg, scheme.contained) - exact_rank_oracle(sp, dg, scheme)
    assert 16 - rank_fp(mat.array, DEFAULT_PRIME) == exact
