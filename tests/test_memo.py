"""The engine's memo of row rank profiles.

dimensions() remembers the row rank profile of each matrix it eliminates,
keyed on everything build_matrix reads, so a matrix met again in the same
process is not built again.  These tests check that a remembered profile
gives the certificate a rebuild gives, that a change of any part of the key
builds anew, that the limits refuse a system whatever the memo holds, and
that the paper's replay builds each quartic head once, also when a forked
worker answered its base case and sent its profile back.
"""
import hashlib
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatpoints import engine, replication
from fatpoints.engine import DEFAULT_PRIME, PrimeFieldConfig, dimension, dimensions
from fatpoints.replication import run_basecases
from fatpoints.schemes import FatPoint, FatPointScheme, JetCondition, PointSpec, make_scheme
from fatpoints.secant import theorem_hypotheses
from fatpoints.spaces import CoordinateSubvariety, Multidegree, MultiProjectiveSpace

from test_report_digests import DIGESTS, HYPOTHESES, SEEDS


def _cold(space, degree, scheme, counts, config):
    """The certificates of a process that has eliminated nothing yet."""
    engine._profiles.clear()
    return [c.to_json() for c in dimensions(space, degree, scheme, counts, config)]


@st.composite
def _systems(draw):
    """A space of 1-3 factors, points of multiplicity 1-3, general or pinned,
    some on coordinate strata, jets with drawn or pinned directions,
    contained subvarieties, point counts to certify, and a (prime, seed)
    from a few, so that systems drawn together share parts of their keys."""
    nf = draw(st.integers(1, 3))
    dims = tuple(draw(st.integers(1, 2)) for _ in range(nf))
    degs = tuple(draw(st.integers(0 if nf > 1 else 1, 3 if nf < 3 else 2)) for _ in dims)

    def subvariety():
        van = [draw(st.sets(st.integers(0, n), max_size=n)) for n in dims]
        if not any(van):
            van[draw(st.integers(0, nf - 1))] = {0}
        return CoordinateSubvariety(tuple(map(frozenset, van)))

    def point():
        stratum = subvariety() if draw(st.booleans()) else None
        coords = None
        if draw(st.booleans()):
            coords = []
            for f, n in enumerate(dims):
                off = stratum.vanishing[f] if stratum else frozenset()
                free = [i for i in range(n + 1) if i not in off]
                vec = [0 if i in off else draw(st.integers(-3, 3)) for i in range(n + 1)]
                vec[draw(st.sampled_from(free))] = draw(st.integers(1, 3))
                coords.append(tuple(vec))
            coords = tuple(coords)
        return FatPoint(draw(st.integers(1, 3)), PointSpec(stratum, coords))

    points = [point() for _ in range(draw(st.integers(1, 4)))]
    jets = []
    for _ in range(draw(st.integers(0, 2))):
        base = draw(st.integers(0, len(points) - 1))
        order = draw(st.integers(1, points[base].multiplicity))
        direction = draw(st.none() | st.tuples(*[st.integers(-3, 3)] * sum(dims)))
        jets.append(JetCondition(base, order, direction))
    contained = [subvariety() for _ in range(draw(st.integers(0, 1)))]
    scheme = FatPointScheme(points, jets, contained)
    if jets:
        counts = [len(points)]
    else:
        counts = draw(st.lists(st.integers(0, len(points)), min_size=1, max_size=3))
    config = PrimeFieldConfig(draw(st.sampled_from([DEFAULT_PRIME, 101])), draw(st.integers(0, 2)))
    return MultiProjectiveSpace(dims), Multidegree(degs), scheme, counts, config


@settings(max_examples=60, deadline=None)
@given(st.lists(_systems(), min_size=1, max_size=4))
def test_a_warm_memo_gives_the_certificates_of_an_empty_one(systems):
    cold = [_cold(*system) for system in systems]
    engine._profiles.clear()
    for _ in range(2):  # the second round is answered from the memo
        for system, want in zip(systems, cold):
            got = [c.to_json() for c in dimensions(*system)]
            assert got == want


def _base():
    """P^1 x P^2 in degree (2, 2) with pinned, general and stratum points, a
    jet with a direction and a contained subvariety."""
    space, degree = MultiProjectiveSpace((1, 2)), Multidegree((2, 2))
    on_y0 = CoordinateSubvariety((frozenset(), frozenset({0})))
    scheme = FatPointScheme(
        [
            FatPoint(2, PointSpec(None, ((1, 2), (1, 3, 5)))),
            FatPoint(1, PointSpec(None, ((2, 1), (4, 1, 1)))),
            FatPoint(2),
            FatPoint(1, PointSpec(on_y0)),
        ],
        jets=[JetCondition(0, 2, (1, 2, 3))],
        contained=[CoordinateSubvariety((frozenset({0}), frozenset()))],
    )
    return space, degree, scheme, PrimeFieldConfig()


def _changed(part):
    """The base system with one part of its key changed."""
    space, degree, scheme, config = _base()
    pts = list(scheme.points)
    jets, contained = list(scheme.jets), list(scheme.contained)
    if part == "multiplicity":
        pts[2] = FatPoint(1)
    elif part == "stratum":
        pts[3] = FatPoint(1, PointSpec(CoordinateSubvariety((frozenset(), frozenset({1})))))
    elif part == "pinned coordinate":
        pts[1] = FatPoint(1, PointSpec(None, ((2, 1), (4, 1, 2))))
    elif part == "run length":
        pts.insert(2, FatPoint(2))
    elif part == "point order":
        pts[2], pts[3] = pts[3], pts[2]
    elif part == "jet direction":
        jets = [JetCondition(0, 2, (1, 2, 4))]
    elif part == "contained subvariety":
        contained = [CoordinateSubvariety((frozenset(), frozenset({2})))]
    elif part == "prime":
        config = PrimeFieldConfig(prime=101)
    elif part == "seed":
        config = PrimeFieldConfig(seed=5)
    return space, degree, FatPointScheme(pts, jets, contained), config


_PARTS = [
    "multiplicity", "stratum", "pinned coordinate", "run length", "point order",
    "jet direction", "contained subvariety", "prime", "seed",
]


@pytest.mark.parametrize("part", _PARTS)
def test_a_change_of_any_part_of_the_key_builds_anew(build_calls, part):
    base = _base()
    dimension(*base)
    build_calls.clear()
    dimension(*base)
    assert build_calls == []  # the base system is remembered
    changed = _changed(part)
    cert = dimension(*changed)
    # every attempt of the changed system builds its matrix
    assert len(build_calls) == len(cert.runs) >= 1
    assert [cert.to_json()] == _cold(*changed[:3], [len(changed[2].points)], changed[3])


def test_pinned_coordinates_and_directions_given_as_lists(build_calls):
    # lists are kept as tuples, so a system given with lists is the system
    # given with tuples: hashable, and answered from the memo
    space, degree, scheme, config = _base()
    want = dimension(space, degree, scheme, config).to_json()
    listed = FatPointScheme(
        [
            FatPoint(2, PointSpec(None, [[1, 2], [1, 3, 5]])),
            FatPoint(1, PointSpec(None, [[2, 1], [4, 1, 1]])),
            *scheme.points[2:],
        ],
        jets=[JetCondition(0, 2, [1, 2, 3])],
        contained=scheme.contained,
    )
    assert listed.points == scheme.points and listed.jets == scheme.jets
    build_calls.clear()
    assert dimension(space, degree, listed, config).to_json() == want
    assert build_calls == []


def test_a_scheme_given_point_by_point_shares_its_runs_memo_entry(build_calls):
    # P^2 quartics: 15 columns, 3,2^3,1^2 imposes 6 + 9 + 2 conditions
    space, degree = MultiProjectiveSpace((2,)), Multidegree((4,))
    runs = make_scheme("3,2^3,1^2")
    listed = FatPointScheme([FatPoint(3), *[FatPoint(2)] * 3, FatPoint(1), FatPoint(1)])
    assert listed == runs
    assert listed.runs == runs.runs == ((FatPoint(3), 1), (FatPoint(2), 3), (FatPoint(1), 2))
    cert = dimension(space, degree, runs)
    assert len(build_calls) == len(engine._profiles) == len(cert.runs)
    build_calls.clear()
    assert dimension(space, degree, listed).to_json() == cert.to_json()
    assert build_calls == []
    assert len(engine._profiles) == len(cert.runs)


def test_a_change_of_the_space_or_the_degree_builds_anew(build_calls):
    # three general double points: 18 columns and 12 conditions in each
    scheme = FatPointScheme([FatPoint(2) for _ in range(3)])
    for dims, degs in (((1, 2), (2, 2)), ((2, 1), (2, 2)), ((1, 2), (2, 1))):
        build_calls.clear()
        cert = dimension(MultiProjectiveSpace(dims), Multidegree(degs), scheme)
        assert len(build_calls) == len(cert.runs) >= 1


def test_the_limits_refuse_a_remembered_system(monkeypatch):
    # P^2 quartics: 15 columns; 2^11 imposes 33 conditions
    space, degree = MultiProjectiveSpace((2,)), Multidegree((4,))
    scheme = FatPointScheme([FatPoint(2) for _ in range(11)])
    dimension(space, degree, scheme)
    monkeypatch.setattr(engine, "MAX_COLUMNS", 14)
    with pytest.raises(ValueError, match="column limit"):
        dimension(space, degree, scheme)
    monkeypatch.setattr(engine, "MAX_COLUMNS", 16)
    with pytest.raises(ValueError, match="row limit"):
        dimension(space, degree, scheme)
    monkeypatch.undo()
    dimension(space, degree, scheme)


def test_the_oldest_profile_is_forgotten_past_the_memo_size(monkeypatch, build_calls):
    monkeypatch.setattr(engine, "_MEMO_SIZE", 2)
    space, degree = MultiProjectiveSpace((2,)), Multidegree((4,))
    schemes = [FatPointScheme([FatPoint(2) for _ in range(k)]) for k in (2, 3, 4)]
    for scheme in schemes:
        dimension(space, degree, scheme)
    assert build_calls == [2, 3, 4]
    for scheme in reversed(schemes):
        dimension(space, degree, scheme)
    # 4 and 3 were remembered; 2 was forgotten, and built again it forgets 3
    assert build_calls == [2, 3, 4, 2]
    assert len(engine._profiles) == 2


def _digest(report) -> str:
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("seed", SEEDS)
def test_the_replay_builds_each_quartic_head_once(monkeypatch, seed):
    # on one CPU the base cases are answered in this process, so the
    # hypotheses' quartic heads, which are base cases too, are remembered
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    built = []
    real = engine.build_matrix

    def recording(space, degree, scheme, prime, seed):
        built.append((space.factor_dims, degree.degrees, scheme.type_label(), prime, seed))
        return real(space, degree, scheme, prime=prime, seed=seed)

    monkeypatch.setattr(engine, "build_matrix", recording)
    config = PrimeFieldConfig(seed=seed)
    digests = json.loads(DIGESTS.read_text())[str(seed)]
    assert _digest(run_basecases(config=config)) == digests["run_basecases()"]
    for dims, degs in HYPOTHESES:
        space, degree = MultiProjectiveSpace(dims), Multidegree(degs)
        before = len(built)
        report = theorem_hypotheses(space, degree, config)
        label = f"theorem_hypotheses({space.label()}; {degree.label()})"
        assert _digest(report.to_json()) == digests[label]
        # the quartic head's first attempt was answered as a base case
        assert not [b for b in built[before:] if b[2].startswith("4,") and b[4] == seed]
        heads = [b for b in built if b[:2] == (dims, degs) and b[2].startswith("4,")]
        assert heads
    # no matrix is built twice in the process
    assert len(built) == len(set(built))


@pytest.mark.skipif(replication._allowed_cpus() < 2, reason="fewer than 2 CPUs allowed")
def test_the_fanned_out_replay_builds_no_quartic_head_again(build_calls):
    # the base cases are answered in this process and a forked worker, which
    # sends back the profiles it eliminated, so every quartic head is
    # remembered here, whichever process answered its base case
    if replication._openblas_threads() is None:
        pytest.skip("no OpenBLAS thread control, so the drivers run serially")
    config = PrimeFieldConfig(seed=0)
    digests = json.loads(DIGESTS.read_text())["0"]
    assert _digest(run_basecases(config=config)) == digests["run_basecases()"]
    for dims, degs in HYPOTHESES:
        space, degree = MultiProjectiveSpace(dims), Multidegree(degs)
        build_calls.clear()
        report = theorem_hypotheses(space, degree, config)
        label = f"theorem_hypotheses({space.label()}; {degree.label()})"
        assert _digest(report.to_json()) == digests[label]
        # one matrix: the residual head (3, 2^k), certified at its first
        # attempt; the quartic head (4, 2^k) of as many points is not built
        assert len(build_calls) == 1
