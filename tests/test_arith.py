import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from math import comb

from fatpoints import arith
from fatpoints.arith import (
    b,
    ell,
    j,
    k_down,
    k_up,
    multi_binom,
    r_down,
    r_up,
    s,
    v,
    vdim_profile,
    verify_all,
    verify_lemma,
)
from fatpoints.schemes import make_scheme, virtual_dim
from fatpoints.spaces import Multidegree, MultiProjectiveSpace


def test_multi_binom():
    assert multi_binom(3, 3, 1, 1) == 16
    assert multi_binom(3, 3, 2, 1) == 40
    assert multi_binom(4, 4, 2, 2) == 225
    assert multi_binom(3, 4, 1, 2) == 60
    # boundary convention: a factor of dimension 0 contributes one monomial,
    # dimension -1 contributes none
    assert multi_binom(3, 3, 0, 2) == 10
    assert multi_binom(3, 3, 2, -1) == 0
    with pytest.raises(ValueError):
        multi_binom(3, 3, -2, 1)


def test_critical_counts():
    assert r_down(3, 3, 1, 1) == 5 and r_up(3, 3, 1, 1) == 6
    assert k_up(3, 3, 1, 1) == 3
    assert k_down(3, 3, 2, 1) == 6
    assert k_up(3, 4, 1, 1) == 4
    assert k_down(3, 4, 1, 2) == 11
    assert k_down(3, 4, 1, 3) == 23
    assert k_up(4, 4, 1, 1) == 6
    assert k_down(4, 4, 2, 2) == 40
    assert k_down(4, 4, 1, 2) == 14
    assert k_down(4, 4, 1, 3) == 30


def test_derived_sequences():
    assert ell(2, 2) == 9
    assert s(2) == 5 and s(3) == 9 and s(8) == 44
    assert b(2) == 9 and [b(n) for n in range(3, 9)] == [12, 16, 19, 22, 26, 29]
    assert [v(n) for n in range(3, 9)] == [7, 3, 12, 15, 8, 20]
    assert j(2) == 14


def test_closed_forms():
    for m in range(1, 41):
        assert j(m) == 5 * m + 4
        assert 2 * k_down(3, 4, m, 2) == 5 * m * m + 13 * m + 4
    for n in range(4, 41):
        assert b(n) - b(n - 3) == 10
        assert v(n) - v(n - 3) == (5 if n % 3 == 1 else 8)


def test_verify_all_clean():
    failures = {k: ces for k, ces in verify_all(bound=40).items() if ces}
    assert failures == {}


def test_registry_size():
    assert len(arith.lemma_ids()) >= 35


def test_excluded_pairs_are_genuine():
    # the inequality k_down(4,4;m,n)-k_down(4,4;m-1,n) <= k_up(3,4;m,n)
    # genuinely fails at the excluded pair (2,2)
    assert k_down(4, 4, 2, 2) - k_down(4, 4, 1, 2) > k_up(3, 4, 2, 2)
    assert verify_lemma("kdown44-vs-kup34", bound=10) == []


def test_single_lemma_interface():
    assert verify_lemma("b-mod3", bound=60) == []
    with pytest.raises(KeyError, match="no-such-lemma"):
        verify_lemma("no-such-lemma")


def test_every_lemma_states_itself():
    # a lemma is its predicate, registered with its domain; the predicate's
    # docstring is the statement
    for lemma_id in arith.lemma_ids():
        _, predicate = arith._REGISTRY[lemma_id]
        assert (predicate.__doc__ or "").strip(), lemma_id


@pytest.mark.parametrize("lemma_id,bound", [("b-mod3", 0), ("v-mod3", 3),
                                            ("kdown44-vs-kup43", 3)])
def test_empty_range_is_an_error(lemma_id, bound):
    # a bound that reaches none of the lemma's cases checks nothing
    with pytest.raises(ValueError, match=f"{lemma_id}.*bound {bound}"):
        verify_lemma(lemma_id, bound)
    with pytest.raises(ValueError):
        verify_all(bound)
    # from 4 on, every lemma has cases
    assert verify_lemma(lemma_id, 4) == []


_PROFILES = [[(1, 1)], [(2, 3)], [(3, 1), (2, 2)], [(4, 1), (2, 1), (1, 2)]]


def test_vdim_profile_matches_schemes():
    grid = itertools.product(range(1, 4), range(1, 4), range(5), range(5), _PROFILES)
    for m, n, c, d, prof in grid:
        space, degree = MultiProjectiveSpace((m, n)), Multidegree((c, d))
        assert vdim_profile(c, d, m, n, prof) == virtual_dim(
            space, degree, make_scheme(prof)
        )
    # the P^0 x P^n boundary case is degree d on a single P^n
    for n, d, prof in itertools.product(range(1, 4), range(5), _PROFILES):
        space, degree = MultiProjectiveSpace((n,)), Multidegree((d,))
        assert vdim_profile(0, d, 0, n, prof) == virtual_dim(
            space, degree, make_scheme(prof)
        )


@settings(max_examples=60, deadline=None)
@given(
    c=st.integers(1, 5),
    d=st.integers(1, 5),
    m=st.integers(1, 8),
    n=st.integers(1, 8),
)
def test_multi_binom_symmetry(c, d, m, n):
    assert multi_binom(c, d, m, n) == multi_binom(d, c, n, m)
    assert multi_binom(c, d, m, n) == comb(m + c, c) * comb(n + d, d)


@settings(max_examples=60, deadline=None)
@given(
    c=st.integers(3, 4),
    d=st.integers(3, 4),
    m=st.integers(1, 8),
    n=st.integers(1, 8),
)
def test_critical_count_bracketing(c, d, m, n):
    N1 = m + n + 1
    L = multi_binom(c, d, m, n)
    assert r_down(c, d, m, n) * N1 <= L <= r_up(c, d, m, n) * N1
    assert r_up(c, d, m, n) - r_down(c, d, m, n) in (0, 1)
    assert k_up(c, d, m, n) == r_up(c, d, m, n) - N1
    assert k_down(c, d, m, n) == r_down(c, d, m, n) - N1
