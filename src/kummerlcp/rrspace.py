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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg, poly
from .curve import AFFINE, BUNDLE, INF, ROOT, CurveFunction, Divisor, KummerCurve, Place
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


def restrict_to_xline(curve: KummerCurve, D: Divisor, i: int) -> XLineDivisor:
    """The largest x-line divisor A with y^i * L_x(A) inside L(D), stratum i."""
    if not 0 <= i <= curve.m - 1:
        raise UnsupportedSupportError(f"stratum {i} outside [0, {curve.m - 1}]")
    root_c, inf_c = _branch_coefficients(curve, D)
    m = curve.m
    coeffs = tuple(
        (root_c[k] * curve.root_gcds[k] + i * lam) // m
        for k, (_, lam) in enumerate(curve.roots)
    )
    inf = (inf_c - i * curve.deg_f) // m
    return XLineDivisor(coeffs, inf)


@dataclass(frozen=True)
class BasisStratum:
    """Basis block y^ypow * (num/den) * x^j for 0 <= j < count."""

    ypow: int
    num: poly.Poly
    den: poly.Poly
    count: int


def basis_strata(curve: KummerCurve, D: Divisor) -> list[BasisStratum]:
    field = curve.field
    out: list[BasisStratum] = []
    for i in range(curve.m):
        a = restrict_to_xline(curve, D, i)
        if a.degree < 0:
            continue
        num: poly.Poly = poly.ONE
        den: poly.Poly = poly.ONE
        for (root_enc, _), c in zip(curve.roots, a.root_coeffs):
            if c > 0:
                den = poly.mul(field, den, poly.pow_(field, poly.linear(field, root_enc), c))
            elif c < 0:
                num = poly.mul(field, num, poly.pow_(field, poly.linear(field, root_enc), -c))
        out.append(BasisStratum(i, num, den, a.degree + 1))
    return out


def rr_basis(curve: KummerCurve, D: Divisor) -> list[CurveFunction]:
    """A GF(q)-basis of L(D) for D supported on ramified places, bundles, infinity.

    Order: stratum index ascending, then x-power ascending.
    """
    out: list[CurveFunction] = []
    for st in basis_strata(curve, D):
        for j in range(st.count):
            out.append(CurveFunction.monomial(curve, st.ypow, poly.shift(st.num, j), st.den))
    return out


def dim_by_decomposition(curve: KummerCurve, D: Divisor) -> int:
    """Riemann-Roch dimension summed over strata; independent of the
    closed-form route and valid for any number of support places."""
    total = 0
    for i in range(curve.m):
        total += max(0, restrict_to_xline(curve, D, i).degree + 1)
    return total


def _split_affine_drops(D: Divisor) -> tuple[Divisor, list[Place]]:
    """D's ramified part, and the affine places it drops (coefficient -1)."""
    drops = [p for p, c in D.items() if p.kind == AFFINE]
    if any(D.coeff(p) != -1 for p in drops):
        raise UnsupportedSupportError("affine coefficients other than -1 are not supported")
    return Divisor((p, c) for p, c in D.items() if p.kind != AFFINE), drops


def evaluation_rows(curve: KummerCurve, D: Divisor, places: Sequence[Place]) -> np.ndarray:
    """Values of a basis of L(D) at affine places: row j is basis function j,
    column i is place i.

    Without affine support the basis is rr_basis(curve, D).  When D drops
    affine places (coefficient -1), L(D) is the kernel of evaluation at the
    drops inside L(ram) for the ramified part ram, and each row is the
    combination of rr_basis(curve, ram) given by a null_space row.
    """
    field = curve.field
    ram, drops = _split_affine_drops(D)
    if drops:
        combos = linalg.null_space(field, evaluation_rows(curve, ram, drops).T)
        return linalg.matmul(field, combos, evaluation_rows(curve, ram, places))
    xs = np.array([p.x for p in places], dtype=np.int64)
    ys = np.array([p.y for p in places], dtype=np.int64)
    strata = basis_strata(curve, D)
    k = sum(st.count for st in strata)
    rows = np.zeros((k, len(places)), dtype=np.int64)
    r = 0
    for st in strata:
        num_vals = poly.eval_many(field, st.num, xs)
        den_vals = poly.eval_many(field, st.den, xs)
        base = field.vmul(field.vdiv(num_vals, den_vals), field.vpow(ys, st.ypow))
        rows[r] = base
        for j in range(1, st.count):
            rows[r + j] = field.vmul(rows[r + j - 1], xs)
        r += st.count
    return rows


def dim_with_simple_affine_drops(curve: KummerCurve, D: Divisor) -> int:
    """Dimension of L(D) where D = (ramified part) - (distinct affine places).

    Affine coefficients must all be -1; the drops then impose linear
    conditions on L(ramified part) and the dimension falls by the rank of
    the evaluation map, which is exact.
    """
    ram, drops = _split_affine_drops(D)
    return dim_by_decomposition(curve, ram) - linalg.rank(
        curve.field, evaluation_rows(curve, ram, drops)
    )
