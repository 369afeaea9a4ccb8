import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from itertools import product
from math import comb, prod

from fatpoints.spaces import (
    CoordinateSubvariety,
    Multidegree,
    MultiProjectiveSpace,
    compositions,
    ideal_basis,
    ideal_basis_size,
    monomial_basis,
)


def test_basis_sizes():
    assert ideal_basis_size(MultiProjectiveSpace((1, 1)), Multidegree((3, 3))) == 16
    assert ideal_basis_size(MultiProjectiveSpace((2, 1)), Multidegree((3, 3))) == 40
    assert ideal_basis_size(MultiProjectiveSpace((2, 2)), Multidegree((4, 4))) == 225
    assert ideal_basis_size(MultiProjectiveSpace((2,)), Multidegree((4,))) == 15


def test_monomial_basis_order():
    basis = monomial_basis(MultiProjectiveSpace((1, 1)), Multidegree((3, 3)))
    assert len(basis) == 16
    # factor-major, descending lex within a factor: x0^3 y0^3 first; each
    # monomial is its flat exponent tuple (x0, x1, y0, y1)
    assert basis[0] == (3, 0, 3, 0)
    assert basis[1] == (3, 0, 2, 1)
    assert basis[-1] == (0, 3, 0, 3)
    assert len(set(basis)) == 16


def test_compositions():
    comps = list(compositions(3, 2))
    assert comps == [(3, 0), (2, 1), (1, 2), (0, 3)]
    assert len(list(compositions(4, 3))) == comb(4 + 2, 2)
    # descending lexicographic order
    assert sorted(comps, reverse=True) == comps


def test_ideal_basis_bruteforce_oracle():
    # forms of degree (0,4) on P1 x P5 through the three coordinate P1 x P3's
    # defined by the vanishing of consecutive coordinate pairs
    space = MultiProjectiveSpace((1, 5))
    degree = Multidegree((0, 4))
    subs = [
        CoordinateSubvariety((frozenset(), frozenset(pair)))
        for pair in ({0, 1}, {2, 3}, {4, 5})
    ]
    got = ideal_basis(space, degree, subs)

    expected = 0
    for exps in product(range(5), repeat=6):
        if sum(exps) != 4:
            continue
        if all(any(exps[i] > 0 for i in pair) for pair in ({0, 1}, {2, 3}, {4, 5})):
            expected += 1
    assert len(got) == expected
    assert expected > 0


def test_ideal_basis_single_hyperplane():
    # through {y0 = 0}: exactly the monomials divisible by y0
    space = MultiProjectiveSpace((1, 2))
    degree = Multidegree((1, 2))
    sub = CoordinateSubvariety((frozenset(), frozenset({0})))
    got = ideal_basis(space, degree, [sub])
    y0 = space.coord_offsets()[1]
    assert all(m[y0] > 0 for m in got)
    # complement count: monomials of degree 2 in y1, y2 only
    assert len(got) == ideal_basis_size(space, degree) - 2 * 3


def test_subvariety_validation():
    space = MultiProjectiveSpace((1, 2))
    with pytest.raises(ValueError):
        CoordinateSubvariety((frozenset(), frozenset()))
    with pytest.raises(ValueError):
        CoordinateSubvariety((frozenset({0, 1}), frozenset())).check(space)
    with pytest.raises(ValueError):
        CoordinateSubvariety((frozenset(), frozenset({5}))).check(space)
    sub = CoordinateSubvariety((frozenset({0}), frozenset({1, 2})))
    sub.check(space)


@settings(max_examples=40, deadline=None)
@given(
    dims=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    degs=st.data(),
)
def test_basis_size_matches_enumeration(dims, degs):
    space = MultiProjectiveSpace(tuple(dims))
    degree = Multidegree(
        tuple(degs.draw(st.integers(0, 3)) for _ in dims)
    )
    if ideal_basis_size(space, degree) > 500:
        return
    basis = monomial_basis(space, degree)
    assert len(basis) == prod(
        comb(n + d, n) for n, d in zip(dims, degree.degrees)
    )
    offsets = space.coord_offsets()
    assert all(len(m) == space.total_coords() for m in basis)
    assert all(
        tuple(sum(m[o : o + n + 1]) for o, n in zip(offsets, dims)) == degree.degrees
        for m in basis
    )


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_ideal_basis_is_subset_and_monotone(data):
    dims = (1, data.draw(st.integers(2, 4)))
    space = MultiProjectiveSpace(dims)
    degree = Multidegree((data.draw(st.integers(0, 2)), data.draw(st.integers(1, 3))))
    k = data.draw(st.integers(1, dims[1]))
    sub = CoordinateSubvariety((frozenset(), frozenset(range(k))))
    full = monomial_basis(space, degree)
    constrained = ideal_basis(space, degree, [sub])
    assert set(constrained) <= set(full)
    twice = ideal_basis(space, degree, [sub, sub])
    assert twice == constrained


def _subvarieties(data, dims):
    """Zero to three coordinate subvarieties, each vanishing on a proper
    subset of some factors' coordinates."""
    subs = []
    for _ in range(data.draw(st.integers(0, 3))):
        van = [data.draw(st.sets(st.integers(0, n), max_size=n)) for n in dims]
        if not any(van):
            van[data.draw(st.integers(0, len(dims) - 1))] = {0}
        subs.append(CoordinateSubvariety(tuple(map(frozenset, van))))
    return subs


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ideal_basis_size_counts_the_ideal_basis(data):
    dims = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    space = MultiProjectiveSpace(dims)
    degree = Multidegree(tuple(data.draw(st.integers(0, 3)) for _ in dims))
    subs = _subvarieties(data, dims)
    assert ideal_basis_size(space, degree, subs) == len(ideal_basis(space, degree, subs))
    assert ideal_basis_size(space, degree) == prod(
        comb(n + d, n) for n, d in zip(dims, degree.degrees)
    )


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_ideal_basis_is_the_filtered_monomial_basis(data):
    # the filter rule: the monomials, in the canonical order, divisible by
    # some vanishing coordinate of every subvariety
    dims = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    space = MultiProjectiveSpace(dims)
    degree = Multidegree(tuple(data.draw(st.integers(0, 3)) for _ in dims))
    subs = _subvarieties(data, dims)
    offsets = space.coord_offsets()
    coords = [[o + i for o, van in zip(offsets, sub.vanishing) for i in van] for sub in subs]
    expected = [
        m for m in monomial_basis(space, degree) if all(any(m[k] for k in c) for c in coords)
    ]
    assert ideal_basis(space, degree, subs) == expected


def test_ideal_basis_size_of_the_registry():
    from fatpoints.replication import load_bundled_registry

    for case in load_bundled_registry():
        sp, dg, contained = case.space, case.degree, case.scheme.contained
        assert ideal_basis_size(sp, dg, contained) == len(ideal_basis(sp, dg, contained))


def test_ideal_basis_size_of_a_large_system_is_a_closed_form():
    # about 2.5e10 monomials: counting them one by one would never finish
    space, degree = MultiProjectiveSpace((3, 3)), Multidegree((300, 300))
    sub = CoordinateSubvariety((frozenset({0}), frozenset({1, 2})))
    assert ideal_basis_size(space, degree) == comb(303, 3) ** 2
    # minus the monomials free of x0 and free of y1, y2
    assert ideal_basis_size(space, degree, [sub]) == comb(303, 3) ** 2 - comb(302, 2) * 301
