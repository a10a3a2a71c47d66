"""Kummer curves y^m = f(x) over GF(q): Riemann-Roch dimensions, non-special
divisors of small degree, and verified linear complementary pairs of AG codes."""

from . import errors
from .codes import (
    CertStep,
    LcpReport,
    LinearCode,
    Matrix,
    MinDistance,
    ag_code,
    divisor_gcd,
    divisor_lmd,
    encode_messages,
    fiber_block_rank,
    is_lcp,
    min_distance,
    verify_lcp_conditions,
)
from .curve import (
    CurveFunction,
    Divisor,
    KummerCurve,
    Place,
    curve_create,
    curve_from_json,
    parse_place,
)
from .field import Field, FieldElement, field_create, field_from_json, mth_roots
from .lcp import LcpConstruction, build, lcp_pair, lcp_pole_shift, lcp_punctured
from .nonspecial import (
    Classification,
    DivisorFamily,
    FamilyObstruction,
    Feasibility,
    classify,
    divisor_nonspecial_g,
    divisor_nonspecial_gminus1,
    nonspecial_effective_g,
    nonspecial_g,
    nonspecial_gminus1,
    separable_family,
    support_feasibility,
    unit_multiplicity_family,
)
from .rrspace import (
    XLineDivisor,
    dim_by_decomposition,
    evaluation_rows,
    restrict_to_xline,
    rr_basis,
)
from .semigroup import (
    MaximalElement,
    QTuple,
    dim_by_class_count,
    dim_by_formula,
    gap_count,
    maximal_elements_below,
    stratum_shift,
    t_val,
)

__version__ = "0.1.0"

__all__ = [
    "CertStep", "Classification", "CurveFunction", "Divisor", "DivisorFamily",
    "FamilyObstruction", "Feasibility", "Field", "FieldElement", "KummerCurve",
    "LcpConstruction", "LcpReport", "LinearCode", "Matrix", "MaximalElement",
    "MinDistance", "Place", "QTuple", "XLineDivisor", "ag_code", "build",
    "classify", "curve_create", "curve_from_json", "dim_by_class_count",
    "dim_by_decomposition", "dim_by_formula", "divisor_gcd", "divisor_lmd",
    "divisor_nonspecial_g", "divisor_nonspecial_gminus1", "encode_messages",
    "evaluation_rows", "fiber_block_rank", "field_create", "field_from_json",
    "gap_count", "is_lcp", "lcp_pair", "lcp_pole_shift", "lcp_punctured",
    "maximal_elements_below", "min_distance", "mth_roots", "nonspecial_effective_g",
    "nonspecial_g", "nonspecial_gminus1", "parse_place", "restrict_to_xline",
    "rr_basis", "separable_family", "stratum_shift", "support_feasibility", "t_val",
    "unit_multiplicity_family", "verify_lcp_conditions",
]
