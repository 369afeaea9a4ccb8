import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatpoints import engine
from fatpoints.engine import PrimeFieldConfig, dimension
from fatpoints.schemes import (
    FatPoint,
    FatPointScheme,
    JetCondition,
    PointSpec,
    conditions_of_fat_point,
    make_scheme,
    parse_scheme_type,
    virtual_dim,
)
from fatpoints.spaces import CoordinateSubvariety, Multidegree, MultiProjectiveSpace


def test_conditions_of_fat_point():
    assert conditions_of_fat_point(1, 2) == 1
    assert conditions_of_fat_point(2, 2) == 3
    assert conditions_of_fat_point(2, 3) == 4
    assert conditions_of_fat_point(3, 2) == 6
    assert conditions_of_fat_point(4, 3) == 20
    assert conditions_of_fat_point(4, 4) == 35
    with pytest.raises(ValueError):
        conditions_of_fat_point(0, 2)


def test_parse_scheme_type():
    assert parse_scheme_type("3,2^15,1^6") == [(3, 1), (2, 15), (1, 6)]
    assert parse_scheme_type("2") == [(2, 1)]
    with pytest.raises(ValueError):
        parse_scheme_type("2^")
    with pytest.raises(ValueError):
        parse_scheme_type("0^3")


def test_type_label_roundtrip():
    scheme = make_scheme("4,2^6,1^2")
    assert scheme.type_label() == "4,2^6,1^2"


@st.composite
def _groups(draw):
    """A space of 1-3 factors, a degree, and make_scheme groups: multiplicity
    1-4, count 0-6, and a stratum that is None (written or left out) or a
    coordinate subvariety of the space."""
    nf = draw(st.integers(1, 3))
    dims = tuple(draw(st.integers(1, 2)) for _ in range(nf))
    degs = tuple(draw(st.integers(1, 3 if nf < 3 else 2)) for _ in dims)

    def stratum():
        if draw(st.booleans()):
            return None
        van = [draw(st.sets(st.integers(0, n), max_size=n)) for n in dims]
        if not any(van):
            van[draw(st.integers(0, nf - 1))] = {0}
        return CoordinateSubvariety(tuple(map(frozenset, van)))

    groups = []
    for _ in range(draw(st.integers(0, 3))):
        mult, count, s = draw(st.integers(1, 4)), draw(st.integers(0, 6)), stratum()
        written = s is not None or draw(st.booleans())
        groups.append((mult, count, s) if written else (mult, count))
    return MultiProjectiveSpace(dims), Multidegree(degs), groups


@settings(max_examples=100, deadline=None)
@given(_groups())
def test_make_scheme_groups_match_hand_listed_points(system):
    space, degree, groups = system
    by_hand = FatPointScheme([
        FatPoint(m, PointSpec(rest[0] if rest else None))
        for m, count, *rest in groups
        for _ in range(count)
    ])
    scheme = make_scheme(groups)
    assert scheme.points == by_hand.points
    assert scheme.type_label() == by_hand.type_label()
    N = space.ambient_dim()
    assert scheme.conditions(N) == by_hand.conditions(N)
    for seed in (0, 1):
        config = PrimeFieldConfig(seed=seed)
        engine._profiles.clear()
        got = dimension(space, degree, scheme, config).to_json()
        engine._profiles.clear()
        assert got == dimension(space, degree, by_hand, config).to_json(), seed


@pytest.mark.parametrize("groups", [[(2, -3)], [(3, 1), (2, -2)], [(2, 4), (1, -1, None)]])
def test_negative_counts_are_refused(groups):
    with pytest.raises(ValueError, match="counts must be >= 0"):
        make_scheme(groups)
    with pytest.raises(ValueError, match="counts must be >= 0"):
        FatPointScheme([(FatPoint(m), count) for m, count, *_ in groups])


def test_virtual_dim_examples():
    sp = MultiProjectiveSpace((1, 1))
    assert virtual_dim(sp, Multidegree((3, 3)), make_scheme("3,2^3")) == 16 - 6 - 9
    sp2 = MultiProjectiveSpace((2, 1))
    assert virtual_dim(sp2, Multidegree((3, 3)), make_scheme("4,2^6")) == 40 - 20 - 24
    cert = dimension(sp2, Multidegree((3, 3)), make_scheme("4,2^6"))
    assert cert.expected_dim == 0


def test_virtual_dim_with_contained():
    # columns shrink to the ideal basis when containment is required
    sp = MultiProjectiveSpace((1, 2))
    sub = CoordinateSubvariety((frozenset(), frozenset({0})))
    free = virtual_dim(sp, Multidegree((1, 2)), make_scheme("2"))
    tied = virtual_dim(
        sp, Multidegree((1, 2)), FatPointScheme(make_scheme("2").points, contained=[sub])
    )
    assert free - tied == 2 * 3  # monomials missing y0


def test_jet_validation():
    sp = MultiProjectiveSpace((1, 1))
    scheme = FatPointScheme([FatPoint(3)], jets=[JetCondition(0, 4)])
    with pytest.raises(ValueError):
        scheme.check(sp)  # order above multiplicity
    scheme = FatPointScheme([FatPoint(3)], jets=[JetCondition(1, 2)])
    with pytest.raises(ValueError):
        scheme.check(sp)  # base index out of range
    ok = FatPointScheme([FatPoint(3)], jets=[JetCondition(0, 3, (1, 2))])
    ok.check(sp)
    assert ok.conditions(2) == 6 + 1


def test_pinned_coords_validation():
    sp = MultiProjectiveSpace((1, 1))
    bad = FatPointScheme([FatPoint(2, PointSpec(coords=((0, 0), (1, 1))))])
    with pytest.raises(ValueError):
        bad.check(sp)
    short = FatPointScheme([FatPoint(2, PointSpec(coords=((1,), (1, 1))))])
    with pytest.raises(ValueError):
        short.check(sp)
