"""Explicit Riemann-Roch bases via decomposition over the rational subfield.

The function field splits as a direct sum of the strata y^i * GF(q)(x) for
0 <= i < m, and at every branch or infinite place the valuations of distinct
strata fall in distinct residue classes.  For a divisor D supported on
ramified places, bundles and infinity, membership of y^i * h(x) in L(D)
therefore reduces to a divisor inequality for h on the projective line:

    ord_{a_k}(h) >= -floor((c_k * d_k + i * lambda_k) / m)
    ord_inf(h)   >= -floor((c_inf - i * deg f) / m)

This yields an explicit monomial-style basis per stratum and a dimension
count that is independent of the closed-form formula in `semigroup` - the
two act as mutual oracles.

The basis of stratum i is y^i * x^j * prod_k (x - a_k)^(-A_k) for the
x-line divisor A = restrict_to_xline(curve, D, i).  `evaluation_rows`
evaluates it in this factored form, one vector power of x - a_k per root,
so no polynomial is expanded on the array path; `rr_basis` is where the
factors are expanded into numerator and denominator polynomials, and the
two are cross-tested against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg, poly
from .curve import AFFINE, BUNDLE, INF, ROOT, CurveFunction, Divisor, KummerCurve, Place
from .curve import check_curve_points
from .errors import UnsupportedSupportError


@dataclass(frozen=True)
class XLineDivisor:
    """A divisor on the rational x-line: coefficients at the roots of f and at x-infinity."""

    root_coeffs: tuple[int, ...]
    inf_coeff: int

    @property
    def degree(self) -> int:
        return sum(self.root_coeffs) + self.inf_coeff


def _branch_coefficients(curve: KummerCurve, D: Divisor) -> tuple[list[int], int]:
    """Per-place coefficients of D over each root, and at infinity."""
    root_c = [0] * len(curve.roots)
    seen_kind: dict[int, str] = {}
    inf_c = 0
    for place, c in D.items():
        if place.kind == AFFINE:
            raise UnsupportedSupportError("divisor has affine support")
        if place.kind == INF:
            if curve.d_inf != 1:
                raise UnsupportedSupportError("infinity is not a rational place here")
            inf_c = c
            continue
        k = place.index
        expected = ROOT if curve.root_gcds[k] == 1 else BUNDLE
        if place.kind != expected:
            raise UnsupportedSupportError(
                f"root {k} must be referenced as a {expected} place"
            )
        if k in seen_kind:
            raise UnsupportedSupportError(f"root {k} referenced twice")
        seen_kind[k] = place.kind
        root_c[k] = c
    return root_c, inf_c


def _restrict(curve: KummerCurve, root_c: list[int], inf_c: int, i: int) -> XLineDivisor:
    """restrict_to_xline from D's branch coefficients (_branch_coefficients)."""
    m = curve.m
    coeffs = tuple((c * d + i * lam) // m
                   for c, d, (_, lam) in zip(root_c, curve.root_gcds, curve.roots))
    return XLineDivisor(coeffs, (inf_c - i * curve.deg_f) // m)


def restrict_to_xline(curve: KummerCurve, D: Divisor, i: int) -> XLineDivisor:
    """The largest x-line divisor A with y^i * L_x(A) inside L(D), stratum i."""
    if not 0 <= i <= curve.m - 1:
        raise UnsupportedSupportError(f"stratum {i} outside [0, {curve.m - 1}]")
    return _restrict(curve, *_branch_coefficients(curve, D), i)


def _xline_divisors(curve: KummerCurve, D: Divisor) -> list[XLineDivisor]:
    """restrict_to_xline(curve, D, i) for i = 0, ..., m-1, with D's branch
    coefficients read once."""
    root_c, inf_c = _branch_coefficients(curve, D)
    return [_restrict(curve, root_c, inf_c, i) for i in range(curve.m)]


def basis_strata(curve: KummerCurve, D: Divisor) -> list[tuple[int, XLineDivisor]]:
    """(i, A) for every stratum i whose x-line divisor A has degree >= 0.

    Stratum i contributes the A.degree + 1 functions
    y^i * x^j * prod_k (x - a_k)^(-A_k), 0 <= j <= A.degree, kept in this
    factored form: evaluation_rows evaluates it factor by factor, and only
    rr_basis expands it into polynomials.
    """
    return [(i, a) for i, a in enumerate(_xline_divisors(curve, D)) if a.degree >= 0]


def rr_basis(curve: KummerCurve, D: Divisor) -> list[CurveFunction]:
    """A GF(q)-basis of L(D) for D supported on ramified places, bundles, infinity.

    Order: stratum index ascending, then x-power ascending.
    """
    field = curve.field
    out: list[CurveFunction] = []
    for i, a in basis_strata(curve, D):
        pairs = [(root_enc, c) for (root_enc, _), c in zip(curve.roots, a.root_coeffs)]
        num = poly.from_roots(field, [(root_enc, -c) for root_enc, c in pairs if c < 0])
        den = poly.from_roots(field, [(root_enc, c) for root_enc, c in pairs if c > 0])
        for j in range(a.degree + 1):
            out.append(CurveFunction.monomial(curve, i, poly.shift(num, j), den))
    return out


def dim_by_decomposition(curve: KummerCurve, D: Divisor) -> int:
    """Riemann-Roch dimension summed over strata; independent of the
    closed-form route and valid for any number of support places."""
    return sum(max(0, a.degree + 1) for a in _xline_divisors(curve, D))


def _affine_drops(D: Divisor) -> tuple[Divisor, list[Place]]:
    """D's ramified part, and the affine places it drops (coefficient -1),
    which are not checked against the curve."""
    drops = [p for p, c in D.items() if p.kind == AFFINE]
    if any(D.coeff(p) != -1 for p in drops):
        raise UnsupportedSupportError("affine coefficients other than -1 are not supported")
    return Divisor((p, c) for p, c in D.items() if p.kind != AFFINE), drops


def _split_affine_drops(curve: KummerCurve, D: Divisor) -> tuple[Divisor, list[Place]]:
    """_affine_drops, with the drops put through check_curve_points."""
    ram, drops = _affine_drops(D)
    check_curve_points(curve, drops)
    return ram, drops


def evaluation_parts(
    curve: KummerCurve, D: Divisor, places: Sequence[Place]
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray]:
    """(rows, H', Phi, strata): evaluation_rows(curve, D, places), and the
    pieces it is made of.

    With ram the ramified part of D, H' is rr_basis(curve, ram) at places and
    strata[r] the stratum i of its row r (the basis function is y^i times a
    function of x).  When D drops affine places, Phi is the same basis at the
    drops, one column per drop, and rows is null_space(Phi^T) H'; otherwise
    Phi is None and rows is H'.  The places and the drops must pass
    check_curve_points (a place may also be a drop).
    """
    check_curve_points(curve, places)
    ram, drops = _split_affine_drops(curve, D)
    basis, strata = _basis_rows(curve, ram, places)
    if not drops:
        return basis, basis, None, strata
    field = curve.field
    phi = _basis_rows(curve, ram, drops)[0]
    return linalg.matmul(field, linalg.null_space(field, phi.T), basis), basis, phi, strata


def evaluation_rows(curve: KummerCurve, D: Divisor, places: Sequence[Place]) -> np.ndarray:
    """Values of a basis of L(D) at affine places: row j is basis function j,
    column i is place i.

    Without affine support the basis is rr_basis(curve, D).  When D drops
    affine places (coefficient -1), L(D) is the kernel of evaluation at the
    drops inside L(ram) for the ramified part ram, and each row is the
    combination of rr_basis(curve, ram) given by a null_space row.
    """
    return evaluation_parts(curve, D, places)[0]


def _basis_rows(curve: KummerCurve, D: Divisor,
                places: Sequence[Place]) -> tuple[np.ndarray, np.ndarray]:
    """rr_basis(curve, D) evaluated at places, for D without affine support,
    and the stratum i of each row (its basis function is y^i times a
    function of x)."""
    field = curve.field
    xs = np.array([p.x for p in places], dtype=np.int64)
    ys = np.array([p.y for p in places], dtype=np.int64)
    shifted = [field.vsub(xs, root_enc) for root_enc, _ in curve.roots]
    strata = basis_strata(curve, D)
    rows = np.zeros((sum(a.degree + 1 for _, a in strata), len(places)), dtype=np.int64)
    row_strata = np.zeros(len(rows), dtype=np.int64)
    r = 0
    for i, a in strata:
        row_strata[r:r + a.degree + 1] = i
        rows[r] = field.vpow(ys, i)
        for x_minus_root, c in zip(shifted, a.root_coeffs):
            if c:
                rows[r] = field.vmul(rows[r], field.vpow(x_minus_root, -c))
        for j in range(1, a.degree + 1):
            rows[r + j] = field.vmul(rows[r + j - 1], xs)
        r += a.degree + 1
    return rows, row_strata


def dim_with_simple_affine_drops(curve: KummerCurve, D: Divisor) -> int:
    """Dimension of L(D) where D = (ramified part) - (distinct affine places).

    Affine coefficients must all be -1; the drops then impose linear
    conditions on L(ramified part) and the dimension falls by the rank of
    the evaluation map, which is exact.  The drops must pass
    check_curve_points.
    """
    return _drops_dimension(curve, *_split_affine_drops(curve, D))


def _drops_dimension(curve: KummerCurve, ram: Divisor, drops: Sequence[Place]) -> int:
    """dim L(ram - sum of drops) for drops that are distinct rational affine
    points of the curve off the roots of f, which is not checked here."""
    return dim_by_decomposition(curve, ram) - linalg.rank(
        curve.field, _basis_rows(curve, ram, drops)[0]
    )
