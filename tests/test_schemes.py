import pytest

from fatpoints.engine import dimension
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
