import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from itertools import product
from math import comb, prod

from fatpoints.spaces import (
    CoordinateSubvariety,
    Multidegree,
    MultiProjectiveSpace,
    basis_size,
    compositions,
    ideal_basis,
    monomial_basis,
)


def test_basis_sizes():
    assert basis_size(MultiProjectiveSpace((1, 1)), Multidegree((3, 3))) == 16
    assert basis_size(MultiProjectiveSpace((2, 1)), Multidegree((3, 3))) == 40
    assert basis_size(MultiProjectiveSpace((2, 2)), Multidegree((4, 4))) == 225
    assert basis_size(MultiProjectiveSpace((2,)), Multidegree((4,))) == 15


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
    assert len(got) == basis_size(space, degree) - 2 * 3


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
    if basis_size(space, degree) > 500:
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
