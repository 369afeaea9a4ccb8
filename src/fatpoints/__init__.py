"""Dimensions of linear systems with fat base points on products of
projective spaces, and (non-)defectivity of their secant varieties.

numpy is imported at its first use (the first point draw, matrix build,
elimination or lemma sweep), not with the package: engine and arith bind
`np` through _lazy_import.  So importing the package, building its fixture
registry or answering a CLI request from the cache loads no numpy."""

import importlib.util
import sys

# defined before the submodules load, so any of them can import them
__version__ = "0.1.2"


def _lazy_import(name: str):
    """The module `name`, executed at its first attribute access: the
    importlib.util.LazyLoader recipe of the importlib docs.  The module is
    registered in sys.modules at once, so an import of it anywhere returns
    it; once loaded it is a plain module.  A module already in sys.modules
    is returned as it is.  Before Python 3.12 the first access is not
    thread-safe; the package starts no thread."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:  # as `import name` would fail
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


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
    theorem_hypotheses,
)
from .spaces import (
    CoordinateSubvariety,
    Multidegree,
    MultiProjectiveSpace,
    ideal_basis,
    ideal_basis_size,
    monomial_basis,
)
