import itertools

import numpy as np
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


# domains as the loops that listed them, for each shape of domain
_LOOPS = {
    "kup33-growth": lambda B: [(m, n) for m in range(2, B + 1)
                               for n in range(m, B + 1)],
    "kdown44-vs-kup34": lambda B: [(m, n) for m in range(2, B + 1)
                                   for n in range(m, B + 1) if (m, n) != (2, 2)],
    "kdown34-vs-kup33": lambda B: [(m, n) for m in range(1, B + 1)
                                   for n in range(3, B + 1) if (m, n) != (1, 3)],
    "w-growth": lambda B: [(m, n) for m in range(2, B + 1) for n in range(2, B + 1)],
    "b-mod3": lambda B: [(n,) for n in range(3, B + 1)],
}


@pytest.mark.parametrize("lemma_id", sorted(_LOOPS))
def test_domains_list_the_loops_they_replace(lemma_id):
    domain = arith._REGISTRY[lemma_id][0]
    for bound in range(0, 12):
        columns = domain.columns(bound)
        assert all(c.dtype == np.int64 for c in columns)
        want = _LOOPS[lemma_id](bound)
        assert list(zip(*(c.tolist() for c in columns))) == want, bound
        assert domain.count(bound) == len(want), bound


@pytest.mark.parametrize("bound", range(4, 41))
def test_sweep_equals_the_per_case_rule(bound, per_case_failures):
    for lemma_id in arith.lemma_ids():
        assert verify_lemma(lemma_id, bound) == per_case_failures(lemma_id, bound)


def _made_false_at(lemma_id, points):
    """The lemma's domain, with its predicate made false at the points."""
    domain, predicate = arith._REGISTRY[lemma_id]

    def broken(*args):
        """the lemma, made false at chosen points"""
        ok = predicate(*args)
        for point in points:
            away = False
            for x, at in zip(args, point):
                away = away | (x != at)
            ok = ok & away
        return ok

    return domain, broken


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("lemma_id,points", [
    ("w-growth", [(9, 9), (2, 7), (5, 3)]),
    ("kdown44-vs-kup34", [(2, 3), (7, 11)]),
    ("b-mod3", [(3,), (12,)]),
])
def test_counterexamples_are_int_tuples_in_domain_order(
    monkeypatch, per_case_failures, exact, lemma_id, points
):
    monkeypatch.setitem(arith._REGISTRY, "made-false", _made_false_at(lemma_id, points))
    if exact:
        monkeypatch.setattr(arith, "INT64_BOUND", 0)
    got = verify_lemma("made-false", 12)
    assert got == sorted(points) == per_case_failures("made-false", 12)
    assert all(type(x) is int for case in got for x in case)


def test_int64_line():
    # the margin of 8 over C(B+4,4)^2, the largest value a lemma forms
    B = arith.INT64_BOUND
    assert 8 * comb(B + 4, 4) ** 2 < 2**63 <= 8 * comb(B + 5, 4) ** 2


@pytest.mark.parametrize("lemma_id", ["easy-hypotheses", "kdown44-vs-kup34",
                                      "w-growth"])
def test_last_int64_bound_agrees_with_exact_ints(monkeypatch, lemma_id):
    # the three lemmas whose int64 sweeps wrap first, past the line
    B = arith.INT64_BOUND
    fast = verify_lemma(lemma_id, B)
    monkeypatch.setattr(arith, "INT64_BOUND", B - 1)
    assert verify_lemma(lemma_id, B) == fast == []


def test_past_the_int64_line_the_sweep_is_exact(monkeypatch):
    domain, predicate = arith._REGISTRY["b-mod3"]
    seen = []

    def spy(n):
        """b-mod3, noting the type of its argument"""
        seen.append(n.dtype)
        return predicate(n)

    monkeypatch.setitem(arith._REGISTRY, "spy", (domain, spy))
    B = arith.INT64_BOUND
    assert verify_lemma("spy", B) == verify_lemma("spy", B + 1) == []
    assert seen == [np.dtype(np.int64), np.dtype(object)]


def test_oversized_bound_is_refused_before_listing(monkeypatch):
    def never(bound):
        raise AssertionError("listed")

    for lemma_id in arith.lemma_ids():
        domain, predicate = arith._REGISTRY[lemma_id]
        monkeypatch.setitem(arith._REGISTRY, lemma_id,
                            (domain._replace(columns=never), predicate))
    with pytest.raises(ValueError, match="over the limit of 250000"):
        verify_all(10**9)
    with pytest.raises(ValueError, match="'easy-hypotheses' has 251001 cases"):
        verify_lemma("easy-hypotheses", 501)
    # a lemma of one argument reaches further
    with pytest.raises(AssertionError, match="listed"):
        verify_lemma("b-mod3", 501)


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
