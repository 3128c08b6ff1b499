"""Exact valuation-theoretic computation on truncated Hahn series."""

from .errors import (
    ApxError,
    IndeterminateValuation,
    InsufficientPrecision,
    InternalInconsistency,
    MarkerViolation,
    NotRepresentable,
    PreconditionError,
    StabilizationError,
)
from .ordval import (
    INF,
    Cut,
    GroupValue,
    compare_value_cut,
    scale_cut,
    shift_cut,
)
from .hahn import (
    Series,
    SubfieldPredicate,
    all_rationals,
    denominators_dividing,
    integers_predicate,
    invert,
    lattice_p_power,
    p_power_denominators,
    truncate_to_subfield,
)
from .parsing import format_poly, format_series, parse_poly, parse_series
from .valpoly import (
    ValPoly,
    binom_val,
    f_adic_expand,
    f_adic_reconstruct,
    formal_derivative,
    taylor_check,
    taylor_coefficients,
)
from .envelope import AffineFamily, eventual_argmin, eventual_order
from .apprtype import ApproxType, Fixed, NotFixed, pushed_forward
from .reldeg import (
    NotFixedLaw,
    RelDegree,
    approx_coefficient,
    check_multiplicativity,
    combine_same_degree,
    h_upper_bound_from_coeffs,
    reduced_factor_shape,
    rel_degree,
    rel_degree_general,
)
from .tamegal import (
    GaloisElem,
    TameCyclic,
    best_ground_approx,
    chi,
    crossed_hom_check,
    standard_basis_decompose,
    trace_generator,
    valuation_independence_witness,
)
from .config import SessionConfig, load_config_file

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
