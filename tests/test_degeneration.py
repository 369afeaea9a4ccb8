import random
from dataclasses import replace
from itertools import combinations

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
)
from fatpoints.engine import (
    ALTERNATE_PRIME,
    DEFAULT_PRIME,
    dimension,
    draw_scheme_points,
    rank_fp,
)
from fatpoints.schemes import (
    FatPoint,
    FatPointScheme,
    PointSpec,
    make_scheme,
    virtual_dim,
)
from fatpoints.spaces import CoordinateSubvariety, Multidegree, MultiProjectiveSpace


def test_specialize_and_membership():
    sp = MultiProjectiveSpace((2, 2))
    scheme = make_scheme("3,2^2")
    div = DivisorSpec(0, 0)
    spec = specialize_onto(sp, scheme, div, 2)
    assert point_on_divisor(spec.points[0], div)
    assert point_on_divisor(spec.points[1], div)
    assert not point_on_divisor(spec.points[2], div)


def test_specialize_onto_refuses_a_negative_count():
    # 0 moves no point; a negative count is an error, not a no-op
    sp = MultiProjectiveSpace((2, 2))
    scheme, div = make_scheme("3,2^2"), DivisorSpec(0, 0)
    assert specialize_onto(sp, scheme, div, 0).points == scheme.points
    for count in (-2, 4):
        with pytest.raises(ValueError):
            specialize_onto(sp, scheme, div, count)


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


def test_trace_maps_strata_and_contained_subvarieties():
    # on P^1 x P^2 along {y_0 = 0}: factor 1 loses y_0 and y_2 becomes y_1
    sp, dg, div = MultiProjectiveSpace((1, 2)), Multidegree((2, 3)), DivisorSpec(1, 0)

    def sub(*idxs):
        return CoordinateSubvariety((frozenset(), frozenset(idxs)))

    pinned = PointSpec(None, ((1, 2), (0, 3, 5)))
    points = [FatPoint(2, PointSpec(sub(0))), FatPoint(1, PointSpec(sub(0, 2))),
              FatPoint(1, pinned)]
    scheme = FatPointScheme(points, contained=[sub(0, 2)])
    tspace, _, tscheme = trace(sp, dg, scheme, div)
    assert tspace.factor_dims == (1, 1)
    # a point only on the divisor becomes a general point of it
    assert [pt.spec.stratum for pt in tscheme.points] == [None, sub(1), None]
    assert tscheme.points[2].spec.coords == ((1, 2), (3, 5))
    assert tscheme.contained == [sub(1)]
    with pytest.raises(ValueError, match="collapses onto the divisor"):
        trace(sp, dg, FatPointScheme(points, contained=[sub(0)]), div)


def _split_vdims(sp, dg, scheme, div):
    """The virtual dimensions of the system, its residue and its trace."""
    rdeg, rscheme = residue(sp, dg, scheme, div)
    tspace, tdeg, tscheme = trace(sp, dg, scheme, div)
    return (
        virtual_dim(sp, dg, scheme),
        virtual_dim(sp, rdeg, rscheme),
        virtual_dim(tspace, tdeg, tscheme),
    )


def test_vdim_additivity_example():
    # two fat points on P2xP2 in bidegree (3,3): 100 - 15 - 5 = 80 splits
    # as residue 54 + trace 26
    sp = MultiProjectiveSpace((2, 2))
    dg = Multidegree((3, 3))
    div = DivisorSpec(0, 0)
    scheme = specialize_onto(sp, make_scheme("3,2"), div, 2)
    assert _split_vdims(sp, dg, scheme, div) == (80, 54, 26)


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
        vd, vr, vt = _split_vdims(sp, dg, spec, div)
        assert vd == vr + vt


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
    vdims = (rep["vdim"], rep["vdim_residue"], rep["vdim_trace"])
    assert vdims == _split_vdims(sp, dg, scheme, div)


def _subset_span_check(star):
    """The exhaustive reference: every subset I of anchors, |I| = s >= 3,
    gives star points spanning at most a P^{s-2} (about 2^(n+1) ranks)."""
    n1 = star.n + 1
    for size in range(3, n1 + 1):
        for subset in combinations(range(n1), size):
            rows = [star.points[(i, j)] for i, j in combinations(subset, 2)]
            if rank_fp(rows, star.prime) > size - 1:
                return False
    return True


def _star_point(e, u, v, p):
    """(e.v) u - (e.u) v: where the line of u, v meets the hyperplane, or
    for a v off it, u projected along v onto it."""
    eu, ev = (sum(a * b for a, b in zip(e, q)) % p for q in (u, v))
    return tuple((ev * a - eu * b) % p for a, b in zip(u, v))


def _tampered(star, rng):
    """Copies of the star that the check must reject: one point t_ij moved
    off the hyperplane; one moved within it, off the line of p_i, p_j;
    three anchors made proportional, their points general on the
    hyperplane; one anchor moved onto the hyperplane.  The last two keep
    every other point on its line."""
    p, e, anchors = star.prime, star.hyperplane, list(star.anchors)
    (i, j), t = rng.choice(sorted(star.points.items()))
    p_i, p_j = anchors[i], anchors[j]
    lam = rng.randrange(1, p)
    # p_i is off the hyperplane, so t + lam p_i is too
    off_plane = tuple((a + lam * b) % p for a, b in zip(t, p_i))
    w = p_i
    while rank_fp([p_i, p_j, w], p) < 3:
        w = _star_point(e, [rng.randrange(p) for _ in e], p_i, p)
    off_line = tuple((a + lam * b) % p for a, b in zip(t, w))
    out = [replace(star, points={**star.points, (i, j): moved})
           for moved in (off_plane, off_line)]

    def on_lines(anchors):
        return {(a, b): _star_point(e, anchors[a], anchors[b], p)
                for a, b in combinations(range(star.n + 1), 2)}

    prop = [tuple(c * a % p for a in anchors[0]) for c in (1, 2, 3)] + anchors[3:]
    general = {ab: _star_point(e, [rng.randrange(p) for _ in e], prop[0], p)
               for ab in combinations(range(3), 2)}
    out.append(replace(star, anchors=prop, points={**on_lines(prop), **general}))
    flat = [_star_point(e, anchors[0], anchors[1], p)] + anchors[1:]
    out.append(replace(star, anchors=flat, points=on_lines(flat)))
    return out


def test_star_span_exhaustive():
    # the per-point check against the subset reference: both accept every
    # drawn star, the per-point check rejects every tampered one, and where
    # it accepts, so does the reference
    rng = random.Random(5)
    for n in range(2, 8):
        for seed in range(3):
            star = star_configuration(n, DEFAULT_PRIME, seed)
            assert star_span_check(star) and _subset_span_check(star), (n, seed)
            for bad in _tampered(star, rng):
                assert not star_span_check(bad), (n, seed)
            # a point moved along its own line is still the same point
            (i, j), t = rng.choice(sorted(star.points.items()))
            lam = rng.randrange(2, DEFAULT_PRIME)
            scaled = replace(star, points={
                **star.points, (i, j): tuple(lam * a % DEFAULT_PRIME for a in t)})
            assert star_span_check(scaled) and _subset_span_check(scaled), (n, seed)


def test_star_draw_gives_up_with_a_value_error():
    # over F_2, all 21 anchors of P^20 must pair to 1 with the hyperplane:
    # about one draw in 2^21 does
    with pytest.raises(ValueError, match="64 degenerate draws"):
        star_configuration(20, 2, 0)


def test_collision_directions_are_pairwise_differences_at_every_prime():
    # d_ij + d_jk = d_ik for every triple, at each attempt's prime
    sp = MultiProjectiveSpace((2, 2))
    N = sp.ambient_dim()
    scheme = collision_scheme(sp, extra_doubles=0, seed=0)
    pairs = list(combinations(range(N + 1), 2))
    for prime in (DEFAULT_PRIME, ALTERNATE_PRIME, 101):
        _, _, dirs = draw_scheme_points(sp, scheme, prime, seed=0)
        d = dict(zip(pairs, dirs))
        for i, j, k in combinations(range(N + 1), 3):
            assert all(
                (a + b - c) % prime == 0
                for a, b, c in zip(d[(i, j)], d[(j, k)], d[(i, k)])
            ), (prime, i, j, k)


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


def test_star_check_certifies_at_the_star_prime_and_the_given_seed():
    star = star_configuration(3, ALTERNATE_PRIME, 0)
    for cert in star_nonspeciality_check(star, seed=5).values():
        assert (cert.prime, cert.seed) == (ALTERNATE_PRIME, 5)


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
