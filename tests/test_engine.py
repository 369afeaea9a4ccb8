import random

import numpy as np
import pytest

from fatpoints.engine import (
    ALTERNATE_PRIME,
    DEFAULT_PRIME,
    Certificate,
    DimensionVerdict,
    PrimeFieldConfig,
    build_matrix,
    dimension,
    exact_dimension,
    exact_rank_oracle,
    rank_fp,
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


def test_matrix_shape_and_provenance():
    sp = MultiProjectiveSpace((1, 1))
    mat = build_matrix(sp, Multidegree((3, 3)), make_scheme("3,2^3"))
    assert mat.array.shape == (15, 16)
    kinds = [tag[0] for tag in mat.row_provenance]
    assert kinds.count("point") == 15


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


def test_zero_label_at_vdim_zero():
    # vdim 0 and dim 0: labelled Zero, not Regular
    sp = MultiProjectiveSpace((1, 2))
    cert = dimension(sp, Multidegree((2, 3)), make_scheme("3,2^5"))
    assert cert.status == DimensionVerdict.ZERO
    assert cert.virtual_dim == 0


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
        ), (space, degree, scheme.dumps())


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
