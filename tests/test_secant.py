import itertools

import pytest

from fatpoints import engine
from fatpoints.arith import r_down, r_up
from fatpoints.engine import (
    DimensionVerdict,
    PrimeFieldConfig,
    build_matrix,
    dimension,
    dimensions,
    rank_fp,
    status_matches,
)
from fatpoints.schemes import FatPointScheme, JetCondition, make_scheme
from fatpoints.secant import (
    collision_r_values,
    critical_r,
    is_defective,
    secant_dim,
    secant_dims,
    theorem_hypotheses,
    veronese_defective_rs,
)
from fatpoints.spaces import Multidegree, MultiProjectiveSpace


def test_secant_expected_dim():
    # min(L - 1, r (N + 1) - 1), read off the double-point certificate
    for dims, degs, r, want in (
        ((2,), (4,), 5, 14), ((1, 1), (3, 3), 5, 14), ((2, 2), (1, 1), 2, 8),
    ):
        space, degree = MultiProjectiveSpace(dims), Multidegree(degs)
        assert secant_dim(space, degree, r).expected_dim == want


def test_secant_dim_defective_quartics():
    verdict = secant_dim(MultiProjectiveSpace((2,)), Multidegree((4,)), 5)
    assert verdict.expected_dim == 14
    assert verdict.actual_dim == 13
    assert verdict.defect == 1
    assert verdict.defective
    assert not verdict.certified  # evidence-grade only


def test_secant_dim_segre_2x2():
    # 2x2 matrices of rank <= 2 inside P^8: the determinantal hypersurface
    verdict = secant_dim(MultiProjectiveSpace((2, 2)), Multidegree((1, 1)), 2)
    assert verdict.expected_dim == 8
    assert verdict.actual_dim == 7
    assert verdict.defect == 1


def test_secant_dim_nondefective_fill():
    verdict = secant_dim(MultiProjectiveSpace((1, 1)), Multidegree((3, 3)), 6)
    assert verdict.actual_dim == verdict.expected_dim == 15
    assert not verdict.defective
    assert verdict.certified


def test_critical_r():
    assert critical_r(MultiProjectiveSpace((1, 1)), Multidegree((3, 3))) == (5, 6)
    assert critical_r(MultiProjectiveSpace((2, 2)), Multidegree((4, 4))) == (45, 46)
    assert critical_r(MultiProjectiveSpace((1, 2)), Multidegree((3, 4))) == (15, 16)


def test_critical_counts_match_arith():
    grid = itertools.product(range(1, 5), range(1, 5), range(1, 6), range(1, 6))
    for m, n, c, d in grid:
        space, degree = MultiProjectiveSpace((m, n)), Multidegree((c, d))
        down, up = r_down(c, d, m, n), r_up(c, d, m, n)
        assert critical_r(space, degree) == (down, down + 1)
        assert collision_r_values(space, degree) == tuple(sorted({down, up}))


# P^2 in degrees 2 and 4 and P^4 in degree 3 retry at r_low, P^2 x P^2 in
# bidegree (1,1) at r_high; P^1 x P^1 in (3,3) certifies both at once
_RETRY_HEAVY = [
    ((2,), (2,)), ((2,), (4,)), ((4,), (3,)), ((1, 1), (3, 3)), ((2, 2), (1, 1)),
]


@pytest.mark.parametrize("dims,degs", _RETRY_HEAVY)
@pytest.mark.parametrize("seed", [0, 1])
def test_is_defective_matches_separate_eliminations(dims, degs, seed):
    space, degree = MultiProjectiveSpace(dims), Multidegree(degs)
    config = PrimeFieldConfig(seed=seed)
    rep = is_defective(space, degree, config)
    for r, cert in ((rep.r_low, rep.low), (rep.r_high, rep.high)):
        scheme = make_scheme([(2, r)])
        # each run's dimension from the subscheme's own, untransposed matrix
        for p, sd, dim in cert.runs:
            mat = build_matrix(space, degree, scheme, prime=p, seed=sd)
            assert dim == mat.cols - rank_fp(mat.array, p), (r, p, sd)
        assert cert.rows == mat.rows
        engine._profiles.clear()  # dimension() eliminates afresh
        assert cert.to_json() == dimension(space, degree, scheme, config).to_json()
    # r_low again, as a duplicate count, and a smaller r before it
    rs = [rep.r_low, rep.r_high, 1, rep.r_low]
    for verdict in secant_dims(space, degree, rs, config):
        alone = secant_dim(space, degree, verdict.r, config)
        assert verdict.to_json() == alone.to_json()


def test_is_defective_builds_one_matrix_per_attempt(build_calls):
    retried = 0
    for dims, degs in _RETRY_HEAVY:
        build_calls.clear()
        rep = is_defective(MultiProjectiveSpace(dims), Multidegree(degs))
        attempts = max(len(rep.low.runs), len(rep.high.runs))
        # each attempt builds the points of the longest prefix still open
        assert build_calls == [
            rep.r_high if len(rep.high.runs) > a else rep.r_low
            for a in range(attempts)
        ]
        retried += attempts > 1
    assert retried
    # P^2 quartics again: both attempts' matrices are remembered
    build_calls.clear()
    is_defective(MultiProjectiveSpace((2,)), Multidegree((4,)))
    assert build_calls == []
    engine._profiles.clear()
    is_defective(MultiProjectiveSpace((2,)), Multidegree((4,)))
    assert build_calls == [6, 5]


def test_secant_dims_builds_nothing_for_no_or_bad_counts(build_calls):
    space, degree = MultiProjectiveSpace((2,)), Multidegree((4,))
    assert secant_dims(space, degree, []) == []
    for rs in ([0], [5, 0]):
        with pytest.raises(ValueError, match="r must be >= 1"):
            secant_dims(space, degree, rs)
    assert build_calls == []


def test_dimensions_rejects_prefixes_of_a_scheme_with_jets():
    space, degree = MultiProjectiveSpace((1, 1)), Multidegree((3, 3))
    scheme = FatPointScheme(make_scheme([(2, 6)]).points, jets=[JetCondition(0, 1)])
    # jet rows come after every point row: only the whole scheme is a prefix
    assert dimensions(space, degree, scheme, [6])[0].rows == 19
    with pytest.raises(ValueError, match="jets"):
        dimensions(space, degree, scheme, [5, 6])


def test_is_defective_verdicts():
    rep = is_defective(MultiProjectiveSpace((1, 1)), Multidegree((3, 3)))
    assert rep.certified_nondefective
    assert rep.defective_evidence == []

    rep = is_defective(MultiProjectiveSpace((2,)), Multidegree((4,)))
    assert not rep.certified_nondefective
    assert 5 in rep.defective_evidence


def test_regular_downward_zero_upward():
    sp = MultiProjectiveSpace((1, 1))
    dg = Multidegree((3, 3))
    low = dimension(sp, dg, make_scheme([(2, 5)]))
    assert low.status == DimensionVerdict.REGULAR
    lower = dimension(sp, dg, make_scheme([(2, 4)]))
    assert lower.status == DimensionVerdict.REGULAR
    high = dimension(sp, dg, make_scheme([(2, 6)]))
    assert high.status == DimensionVerdict.ZERO
    higher = dimension(sp, dg, make_scheme([(2, 7)]))
    assert higher.status == DimensionVerdict.ZERO


def test_theorem_hypotheses_2x1():
    rep = theorem_hypotheses(MultiProjectiveSpace((2, 1)), Multidegree((3, 3)))
    assert rep.r_values == (10,)
    assert rep.all_hold
    assert rep.dim3 - rep.dim4 >= 6


def test_theorem_hypotheses_gap_condition():
    rep = theorem_hypotheses(MultiProjectiveSpace((1, 1)), Multidegree((3, 3)))
    # condition (3) via engine dimensions of single fat points: 10 - 6 >= 3
    assert rep.dim3 == 10 and rep.dim4 == 6
    assert rep.gap_ok and rep.big_enough
    # the r = 6 instance satisfies (1) and (2) ...
    assert rep.per_r[6]["residual_regular"] and rep.per_r[6]["quartic_zero"]
    # ... but at r = 5 the quartic system L(4,2^2) has dimension 1, not 0
    assert not rep.per_r[5]["quartic_zero"]
    assert rep.per_r[5]["quartic_dim"] == 1


def test_hypotheses_per_r_has_no_certificates_key():
    rep = theorem_hypotheses(MultiProjectiveSpace((1, 1)), Multidegree((3, 3)))
    per_r = rep.to_json()["per_r"]
    assert set(per_r) == {"5", "6"}
    assert all("certificates" not in entry for entry in per_r.values())


_HYPOTHESIS_SYSTEMS = [((2, 1), (3, 3)), ((1, 2), (3, 4)), ((1, 1), (3, 3))]


@pytest.mark.parametrize("dims,degs", _HYPOTHESIS_SYSTEMS)
@pytest.mark.parametrize("seed", [0, 1])
def test_theorem_hypotheses_matches_separate_eliminations(dims, degs, seed):
    space, degree = MultiProjectiveSpace(dims), Multidegree(degs)
    config = PrimeFieldConfig(seed=seed)

    def alone(profile):
        engine._profiles.clear()  # each system is eliminated afresh
        return dimension(space, degree, make_scheme(profile), config)

    rep = theorem_hypotheses(space, degree, config)
    assert rep.dim3 == alone([(3, 1)]).computed_dim
    assert rep.dim4 == alone([(4, 1)]).computed_dim
    for entry in rep.per_r.values():
        res = alone([(3, 1), (2, entry["k"])])
        quart = alone([(4, 1), (2, entry["k"])])
        assert entry["residual_regular"] == res.status.certified
        assert entry["residual_dim"] == res.computed_dim
        assert entry["quartic_zero"] == status_matches("Zero", quart)
        assert entry["quartic_dim"] == quart.computed_dim


def test_theorem_hypotheses_builds_one_matrix_per_head(build_calls):
    rep = theorem_hypotheses(MultiProjectiveSpace((2, 1)), Multidegree((3, 3)))
    # a 3-fat head, then a 4-fat head, each before k = 6 double points
    assert rep.per_r[10]["k"] == 6
    assert build_calls == [7, 7]


def test_hypotheses_not_applicable_when_small():
    rep = theorem_hypotheses(MultiProjectiveSpace((1,)), Multidegree((2,)))
    assert not rep.big_enough
    assert not rep.all_hold


def test_veronese_defective_rs():
    assert veronese_defective_rs(4, 2) == [2, 3, 4]
    assert veronese_defective_rs(2, 4) == [5]
    assert veronese_defective_rs(3, 4) == [9]
    assert veronese_defective_rs(4, 3) == [7]
    assert veronese_defective_rs(4, 4) == [14]
    assert veronese_defective_rs(3, 3) == []
    assert veronese_defective_rs(1, 5) == []
