"""Dimensions of linear systems with fat base points on products of
projective spaces, and (non-)defectivity of their secant varieties."""

# set before the submodules load, so any of them can import it
__version__ = "0.1.2"

from .arith import lemma_ids, verify_all, verify_lemma
from .degeneration import (
    DivisorSpec,
    castelnuovo_bound_check,
    collision_scheme,
    residue,
    specialize_onto,
    star_configuration,
    star_nonspeciality_check,
    star_span_check,
    trace,
    vdim_additivity_check,
)
from .engine import (
    Certificate,
    DimensionVerdict,
    PrimeFieldConfig,
    build_matrix,
    dimension,
    dimensions,
    exact_dimension,
    rank_fp,
    rank_profile,
)
from .replication import (
    BaseCase,
    load_bundled_registry,
    run_basecases,
    verify_ah,
    verify_main_theorem,
)
from .schemes import (
    FatPoint,
    FatPointScheme,
    JetCondition,
    PointSpec,
    make_scheme,
    parse_scheme_type,
    virtual_dim,
)
from .secant import (
    DefectivityReport,
    SecantVerdict,
    critical_r,
    is_defective,
    secant_dim,
    secant_dims,
    secant_expected_dim,
    theorem_hypotheses,
)
from .spaces import (
    CoordinateSubvariety,
    Multidegree,
    MultiProjectiveSpace,
    basis_size,
    ideal_basis,
    ideal_basis_size,
    monomial_basis,
)
