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
    is_lcp,
    min_distance,
    rank,
    stack_rank,
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
    divisor_classify,
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

__all__ = [name for name in dir() if not name.startswith("_")]
