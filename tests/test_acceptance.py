"""Acceptance gate: one test per criterion, each with its runtime budget.

Criterion 4 carries a documented exception: the collision-theorem
hypothesis checker cannot pass on P^1 x P^1 in bidegree (3,3), because at
the lower critical number of points (r = 5) the required quartic system
L(4,2^2) has dimension 1, not 0 -- confirmed by the exact rational oracle
and by an explicit curve construction (the doubled (1,1)-curve through the
three points together with the two rulings through the quartic point).
The embedding is still non-defective (criterion 3 certifies it); it just
is not reachable through the single-collision argument, which is why the
m = 1 row is traditionally handled by other means.  That sub-case is a
strict expected failure below.
"""
import json
import random
import time

import pytest

from fatpoints import engine
from fatpoints.degeneration import (
    DivisorSpec,
    castelnuovo_bound_check,
    residue,
    specialize_onto,
    star_configuration,
    star_span_check,
    trace,
)
from fatpoints.engine import (
    ALTERNATE_PRIME,
    DEFAULT_PRIME,
    PrimeFieldConfig,
    build_matrix,
    dimension,
    exact_rank_oracle,
    rank_fp,
)
from fatpoints.arith import b, j, k_down, v, verify_all
from fatpoints.replication import run_basecases, verify_ah, verify_main_theorem
from fatpoints.schemes import (
    FatPoint,
    FatPointScheme,
    PointSpec,
    make_scheme,
    virtual_dim,
)
from fatpoints.secant import theorem_hypotheses
from fatpoints.spaces import Multidegree, MultiProjectiveSpace


def _report(criterion, ok, elapsed, budget):
    line = f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s / budget {budget}s)"
    print(line)
    return line


def test_criterion_1_basecase_replication():
    t0 = time.perf_counter()
    report = run_basecases()
    elapsed = time.perf_counter() - t0
    ok = report["passed"] and report["total"] >= 20 and elapsed < 60
    _report(1, ok, elapsed, 60)
    assert report["failed"] == []
    assert report["total"] >= 20
    assert elapsed < 60


def test_criterion_2_veronese_spot_check():
    t0 = time.perf_counter()
    report = verify_ah(max_n=4, max_d=5)
    elapsed = time.perf_counter() - t0
    ok = report["passed"] and elapsed < 120
    _report(2, ok, elapsed, 120)
    by_nd = {(e["n"], e["d"]): e for e in report["cases"]}
    assert by_nd[(2, 4)]["defects"] == {"5": 1}
    assert by_nd[(3, 4)]["defects"] == {"9": 1}
    assert by_nd[(4, 3)]["defects"] == {"7": 1}
    assert by_nd[(4, 4)]["defects"] == {"14": 1}
    for n in (2, 3, 4, 5):
        e = by_nd[(n, 2)]
        assert e["expected_defective_rs"] == list(range(2, n + 1))
        assert all(d >= 1 for d in e["defects"].values())
    assert report["passed"]
    assert elapsed < 120


def test_criterion_3_main_theorem_desk_scale():
    t0 = time.perf_counter()
    report = verify_main_theorem(max_m=3, max_n=3)
    elapsed = time.perf_counter() - t0
    ok = report["passed"] and elapsed < 300
    _report(3, ok, elapsed, 300)
    assert report["passed"]
    assert len(report["cases"]) == 27
    big = next(
        e for e in report["cases"] if e["space"] == [3, 3] and e["degree"] == [4, 4]
    )
    # 35*35 = 1225 is divisible by N+1 = 7, so the low case certifies as an
    # exactly-zero system rather than a positive regular one
    assert big["low_status"] == "Zero" and big["high_status"] == "Zero"
    assert elapsed < 300


@pytest.mark.parametrize(
    "dims,degs",
    [
        pytest.param(
            (1, 1), (3, 3),
            marks=pytest.mark.xfail(
                strict=True,
                reason="L(4,2^2) on P1xP1 in bidegree (3,3) has dimension 1 "
                "(exact oracle), so condition (2) fails at r=5; see module "
                "docstring",
            ),
        ),
        ((2, 1), (3, 3)),
        ((1, 2), (3, 4)),
        ((2, 2), (4, 4)),
    ],
)
def test_criterion_4_hypothesis_checker(dims, degs):
    report = theorem_hypotheses(
        MultiProjectiveSpace(dims), Multidegree(degs)
    )
    N = sum(dims)
    assert report.big_enough
    assert report.dim3 - report.dim4 >= N * (N + 1) // 2
    assert report.all_hold


def test_criterion_5_arithmetic_ledger():
    t0 = time.perf_counter()
    failures = {k: ces for k, ces in verify_all(bound=40).items() if ces}
    for m in range(1, 41):
        assert j(m) == 5 * m + 4
        assert 2 * k_down(3, 4, m, 2) == 5 * m * m + 13 * m + 4
    for n in range(4, 41):
        assert b(n) - b(n - 3) == 10
        assert v(n) - v(n - 3) == (5 if n % 3 == 1 else 8)
    elapsed = time.perf_counter() - t0
    _report(5, failures == {} and elapsed < 5, elapsed, 5)
    assert failures == {}
    assert elapsed < 5


def test_criterion_6a_computed_at_least_virtual():
    rng = random.Random(61)
    for _ in range(500):
        dims = tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 2)))
        sp = MultiProjectiveSpace(dims)
        dg = Multidegree(tuple(rng.randint(1, 3) for _ in dims))
        scheme = make_scheme([(rng.randint(1, 3), rng.randint(1, 5))])
        cert = dimension(sp, dg, scheme)
        assert cert.computed_dim >= max(0, virtual_dim(sp, dg, scheme))


def test_criterion_6b_vdim_additivity():
    rng = random.Random(62)
    done = 0
    while done < 200:
        dims = (rng.randint(1, 3), rng.randint(1, 3))
        sp = MultiProjectiveSpace(dims)
        dg = Multidegree((rng.randint(0, 3), rng.randint(0, 3)))
        factor = rng.randrange(2)
        if dg.degrees[factor] < 1 or dims[factor] < 2:
            continue
        div = DivisorSpec(factor, rng.randint(0, dims[factor]))
        scheme = make_scheme([(rng.randint(1, 4), rng.randint(1, 6))])
        spec = specialize_onto(sp, scheme, div, rng.randint(0, len(scheme.points)))
        rdeg, rspec = residue(sp, dg, spec, div)
        tsp, tdg, tspec = trace(sp, dg, spec, div)
        vd = virtual_dim(sp, dg, spec)
        assert vd == virtual_dim(sp, rdeg, rspec) + virtual_dim(tsp, tdg, tspec)
        done += 1


def test_criterion_6c_castelnuovo_bound():
    rng = random.Random(63)
    done = 0
    while done < 100:
        dims = (rng.randint(1, 2), rng.randint(1, 2))
        sp = MultiProjectiveSpace(dims)
        dg = Multidegree((rng.randint(1, 3), rng.randint(1, 3)))
        factor = rng.randrange(2)
        if dims[factor] < 2:
            factor = 1 - factor
        if dims[factor] < 2:
            continue
        div = DivisorSpec(factor, rng.randint(0, dims[factor]))
        scheme = make_scheme([(rng.randint(1, 3), rng.randint(1, 4))])
        spec = specialize_onto(sp, scheme, div, rng.randint(1, len(scheme.points)))
        rep = castelnuovo_bound_check(sp, dg, spec, div,
                                      PrimeFieldConfig(seed=done))
        assert rep["bound_holds"] and rep["additive"] and rep["vdim_le_dim"]
        done += 1


def test_criterion_6d_factor_swap_symmetry():
    rng = random.Random(64)
    for _ in range(50):
        m, n = rng.randint(1, 2), rng.randint(1, 3)
        c, d = rng.randint(1, 3), rng.randint(1, 3)
        profile = [(rng.randint(1, 3), rng.randint(1, 4))]
        a = dimension(
            MultiProjectiveSpace((m, n)), Multidegree((c, d)), make_scheme(profile)
        )
        bb = dimension(
            MultiProjectiveSpace((n, m)), Multidegree((d, c)), make_scheme(profile)
        )
        assert a.computed_dim == bb.computed_dim


def test_criterion_6e_rank_matches_exact_oracle():
    rng = random.Random(65)
    for _ in range(100):
        shape = rng.choice([(1,), (2,), (1, 1), (1, 2)])
        sp = MultiProjectiveSpace(shape)
        dg = Multidegree(tuple(rng.randint(1, 3) for _ in shape))
        points = [
            FatPoint(
                rng.randint(1, 3),
                PointSpec(
                    None,
                    tuple(
                        tuple(rng.randint(1, 40) for _ in range(k + 1))
                        for k in shape
                    ),
                ),
            )
            for _ in range(rng.randint(1, 3))
        ]
        scheme = FatPointScheme(points)
        mat = build_matrix(sp, dg, scheme, prime=DEFAULT_PRIME, seed=0)
        assert rank_fp(mat.array, DEFAULT_PRIME) == exact_rank_oracle(sp, dg, scheme)


def test_criterion_6f_star_span_exhaustive():
    for n in range(2, 7):
        assert star_span_check(star_configuration(n, DEFAULT_PRIME, seed=10 + n))


def test_criterion_6g_jet_containment_chain():
    from fatpoints.degeneration import collision_scheme

    rng = random.Random(66)
    for i in range(20):
        sp = MultiProjectiveSpace((1, rng.randint(1, 2)))
        dg = Multidegree((3, rng.randint(3, 4)))
        extra = rng.randint(0, 3)
        d_lo = dimension(sp, dg, make_scheme([(4, 1), (2, extra)])).computed_dim
        d_mid = dimension(
            sp, dg, collision_scheme(sp, extra_doubles=extra, seed=i)
        ).computed_dim
        d_hi = dimension(sp, dg, make_scheme([(3, 1), (2, extra)])).computed_dim
        assert d_lo <= d_mid <= d_hi


def test_criterion_7_determinism():
    t0 = time.perf_counter()
    rep1 = run_basecases()
    engine._profiles.clear()  # the second run eliminates afresh
    rep2 = run_basecases()
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)

    other = run_basecases(config=PrimeFieldConfig(prime=ALTERNATE_PRIME, seed=777))
    assert [(e["id"], e["status"]) for e in rep1["cases"]] == [
        (e["id"], e["status"]) for e in other["cases"]
    ]
    elapsed = time.perf_counter() - t0
    _report(7, True, elapsed, 120)
