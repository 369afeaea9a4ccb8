from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatpoints import engine
from fatpoints.degeneration import DivisorSpec, _pin_scheme, specialize_onto
from fatpoints.engine import DEFAULT_PRIME, PrimeFieldConfig, dimension, dimensions
from fatpoints.replication import load_bundled_registry
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


def _with_parts(container):
    """A scheme with a jet and a contained subvariety, both given in
    `container`."""
    on_y0 = CoordinateSubvariety((frozenset(), frozenset({0})))
    return FatPointScheme(
        [(FatPoint(2), 2), FatPoint(1, PointSpec(on_y0))],
        jets=container([JetCondition(0, 2, (1, 2, 3))]),
        contained=container([CoordinateSubvariety((frozenset({0}), frozenset()))]),
    )


def test_parts_given_as_lists_or_tuples_make_one_value():
    listed, tupled = _with_parts(list), _with_parts(tuple)
    assert listed == tupled and hash(listed) == hash(tupled)
    assert type(listed.jets) is tuple and type(listed.contained) is tuple
    assert len({listed, tupled, replace(listed, runs=listed.points)}) == 1
    # the default parts are empty tuples too
    bare = FatPointScheme(listed.runs)
    assert bare == FatPointScheme(listed.runs, [], []) and bare.jets == bare.contained == ()
    assert bare != listed


def test_every_registry_case_hashes():
    cases = load_bundled_registry()
    assert len(set(cases)) == len(cases)
    assert len({case.scheme for case in cases}) > 1


@pytest.mark.parametrize("name", [f.name for f in fields(FatPointScheme)])
def test_a_scheme_is_frozen(name):
    scheme = _with_parts(tuple)
    with pytest.raises(FrozenInstanceError):
        setattr(scheme, name, getattr(scheme, name))
    assert scheme == _with_parts(tuple)


@st.composite
def _schemes_with_parts(draw):
    """A system of _groups() whose scheme has jets (if it has points) or
    contained subvarieties, or both: a jet's direction is general or given,
    a contained subvariety is a coordinate subvariety of the space."""
    space, degree, groups = draw(_groups())
    scheme = make_scheme(groups)
    pts, jets = scheme.points, []
    if pts and draw(st.booleans()):
        for _ in range(draw(st.integers(1, 2))):
            base = draw(st.integers(0, len(pts) - 1))
            order = draw(st.integers(1, pts[base].multiplicity))
            n = space.ambient_dim()
            direction = draw(st.none() | st.tuples(*[st.integers(-5, 5)] * n))
            jets.append(JetCondition(base, order, direction))
    contained = []
    if not jets or draw(st.booleans()):
        van = [draw(st.sets(st.integers(0, n), max_size=n)) for n in space.factor_dims]
        if not any(van):
            van[draw(st.integers(0, space.num_factors - 1))] = {0}
        contained.append(CoordinateSubvariety(tuple(map(frozenset, van))))
    return space, degree, replace(scheme, jets=jets, contained=contained)


@settings(max_examples=60, deadline=None)
@given(_schemes_with_parts(), st.data())
def test_derivations_keep_the_parts_they_do_not_change(system, data):
    space, degree, scheme = system
    parts, npts = (scheme.jets, scheme.contained), len(scheme)

    def strata(s):
        return [(pt.multiplicity, pt.spec.stratum) for pt in s.points]

    # specialize_onto moves a head of the points and keeps the rest
    count = data.draw(st.integers(0, npts))
    factor = data.draw(st.integers(0, space.num_factors - 1))
    divisor = DivisorSpec(factor, data.draw(st.integers(0, space.factor_dims[factor])))
    moved = specialize_onto(space, scheme, divisor, count)
    assert (moved.jets, moved.contained) == parts
    assert len(moved) == npts and moved.split(count)[1] == scheme.split(count)[1]
    # _pin_scheme pins coordinates and keeps multiplicities and strata
    pinned = _pin_scheme(space, scheme, DEFAULT_PRIME, data.draw(st.integers(0, 9)))
    assert (pinned.jets, pinned.contained) == parts
    assert strata(pinned) == strata(scheme)
    assert all(pt.spec.coords is not None for pt in pinned.points)
    # each subscheme dimensions() asks for is the scheme's first k points
    # with every other part kept; a scheme with jets has no proper prefix
    counts = [npts] if scheme.jets else data.draw(
        st.lists(st.integers(0, npts), min_size=1, max_size=3, unique=True)
    )
    asked, real = [], engine._row_profile

    def recording(space, degree, sub, p, seed):
        asked.append(sub)
        return real(space, degree, sub, p, seed)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(engine, "_row_profile", recording)
        for k in counts:
            dimensions(space, degree, scheme, [k])
    assert {len(sub) for sub in asked} == set(counts)
    for sub in asked:
        assert (sub.jets, sub.contained) == parts
        assert sub.runs == scheme.split(len(sub))[0]
