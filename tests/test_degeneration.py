import random

import pytest

from fatpoints.degeneration import (
    DivisorSpec,
    castelnuovo_bound_check,
    collision_conditions,
    collision_scheme,
    point_on_divisor,
    residue,
    specialize_onto,
    star_configuration,
    star_nonspeciality_check,
    star_span_check,
    trace,
    vdim_additivity_check,
)
from fatpoints.engine import (
    ALTERNATE_PRIME,
    DEFAULT_PRIME,
    PrimeFieldConfig,
    dimension,
)
from fatpoints.schemes import make_scheme, virtual_dim
from fatpoints.spaces import Multidegree, MultiProjectiveSpace


def test_specialize_and_membership():
    sp = MultiProjectiveSpace((2, 2))
    scheme = make_scheme("3,2^2")
    div = DivisorSpec(0, 0)
    spec = specialize_onto(sp, scheme, div, 2)
    assert point_on_divisor(spec.points[0], div)
    assert point_on_divisor(spec.points[1], div)
    assert not point_on_divisor(spec.points[2], div)


def test_residue_and_trace_shapes():
    sp = MultiProjectiveSpace((2, 2))
    dg = Multidegree((3, 3))
    div = DivisorSpec(0, 0)
    scheme = specialize_onto(sp, make_scheme("3,2^3"), div, 2)
    rdeg, rscheme = residue(sp, dg, scheme, div)
    assert rdeg.degrees == (2, 3)
    # on-divisor multiplicities dropped by one: 3 -> 2, 2 -> 1
    assert rscheme.type_label() == "2^3,1"
    tspace, tdeg, tscheme = trace(sp, dg, scheme, div)
    assert tspace.factor_dims == (1, 2)
    assert tdeg.degrees == (3, 3)
    assert tscheme.type_label() == "3,2"


def test_residue_trace_errors():
    sp = MultiProjectiveSpace((1, 2))
    dg = Multidegree((0, 3))
    div0 = DivisorSpec(0, 0)
    with pytest.raises(ValueError):
        residue(sp, dg, make_scheme("2"), div0)  # degree 0 across the divisor
    with pytest.raises(ValueError):
        trace(sp, dg, make_scheme("2"), div0)  # P^1 factor would collapse


def test_vdim_additivity_example():
    # two fat points on P2xP2 in bidegree (3,3): 100 - 15 - 5 = 80 splits
    # as residue 54 + trace 26
    sp = MultiProjectiveSpace((2, 2))
    dg = Multidegree((3, 3))
    div = DivisorSpec(0, 0)
    scheme = specialize_onto(sp, make_scheme("3,2"), div, 2)
    rep = vdim_additivity_check(sp, dg, scheme, div)
    assert rep["vdim"] == 80
    assert rep["vdim_residue"] + rep["vdim_trace"] == 80
    assert rep["additive"]


def test_vdim_additivity_random():
    rng = random.Random(11)
    for _ in range(50):
        dims = (rng.randint(1, 2), rng.randint(1, 2))
        sp = MultiProjectiveSpace(dims)
        dg = Multidegree((rng.randint(1, 3), rng.randint(1, 3)))
        scheme = make_scheme([(rng.randint(1, 3), rng.randint(1, 4))])
        factor = rng.randrange(2)
        if dg.degrees[factor] == 0 or dims[factor] < 2:
            factor = 1 - factor
        if dg.degrees[factor] == 0 or dims[factor] < 2:
            continue
        div = DivisorSpec(factor, rng.randint(0, dims[factor]))
        onto = rng.randint(0, len(scheme.points))
        spec = specialize_onto(sp, scheme, div, onto)
        assert vdim_additivity_check(sp, dg, spec, div)["additive"]


def test_castelnuovo_bound():
    sp = MultiProjectiveSpace((2, 2))
    dg = Multidegree((3, 3))
    div = DivisorSpec(0, 0)
    scheme = specialize_onto(sp, make_scheme("3,2^5"), div, 3)
    rep = castelnuovo_bound_check(sp, dg, scheme, div)
    assert rep["bound_holds"]
    assert rep["additive"]
    assert rep["vdim_le_dim"]
    # the vdims read off the certificates are those of the unpinned split
    vdims = vdim_additivity_check(sp, dg, scheme, div)
    assert {key: rep[key] for key in vdims} == vdims


def test_star_span_exhaustive():
    for n in range(2, 7):
        star = star_configuration(n, DEFAULT_PRIME, seed=n)
        assert star_span_check(star), n


def test_star_points_impose_independent_conditions():
    from math import comb

    for n in (2, 3, 4, 5):
        certs = star_nonspeciality_check(star_configuration(n, DEFAULT_PRIME, 0))
        for name, cert in certs.items():
            assert cert.status.certified, (n, name)
        # quadrics on P^{n-1} through the binom(n+1,2) star points: as many
        # conditions as monomials, so the system is zero
        assert certs["quadrics-simple"].computed_dim == 0
        # cubics through them: all conditions independent
        assert certs["cubics-simple"].computed_dim == comb(n + 2, 3) - comb(n + 1, 2)
        # cubics doubled along them: zero
        assert certs["cubics-double"].computed_dim == 0


def test_star_check_certifies_at_the_star_prime():
    star = star_configuration(3, DEFAULT_PRIME, 0)
    with pytest.raises(ValueError, match="drawn over"):
        star_nonspeciality_check(star, PrimeFieldConfig(prime=ALTERNATE_PRIME))


def test_collision_conditions_count():
    sp = MultiProjectiveSpace((1, 1))
    scheme = collision_scheme(sp, extra_doubles=3)
    N = sp.ambient_dim()
    assert scheme.conditions(N) == collision_conditions(N) + 3 * (N + 1)
    assert collision_conditions(2) == 6 + 3


def test_collision_reproduces_double_point_count():
    # colliding N+1 of the r double points must not change the dimension
    # when the system is regular/zero
    sp = MultiProjectiveSpace((1, 1))
    dg = Multidegree((3, 3))
    N = sp.ambient_dim()
    for r, want in ((6, 0), (5, 1)):
        scheme = collision_scheme(sp, extra_doubles=r - N - 1)
        cert = dimension(sp, dg, scheme)
        assert cert.computed_dim == want, r


def test_jet_containment_chain():
    # L(4, Z) <= L(3 + full jets, Z) <= L(3, Z) columnwise at one point
    rng = random.Random(3)
    for _ in range(20):
        sp = MultiProjectiveSpace((1, rng.randint(1, 2)))
        dg = Multidegree((3, 3))
        extra = rng.randint(0, 2)
        mid_scheme = collision_scheme(sp, extra_doubles=extra, seed=rng.randrange(99))
        lo = make_scheme([(4, 1), (2, extra)])
        hi = make_scheme([(3, 1), (2, extra)])
        d_lo = dimension(sp, dg, lo).computed_dim
        d_mid = dimension(sp, dg, mid_scheme).computed_dim
        d_hi = dimension(sp, dg, hi).computed_dim
        assert d_lo <= d_mid <= d_hi
