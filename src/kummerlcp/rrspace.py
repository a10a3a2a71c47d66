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
from .errors import PoleAtPlaceError, UnsupportedSupportError


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


def _evaluation_matrix(basis: Sequence[CurveFunction], places: Sequence[Place]) -> np.ndarray:
    """Value of basis function j at place i in row i, column j."""
    A = np.zeros((len(places), len(basis)), dtype=np.int64)
    for ci, place in enumerate(places):
        for bi, fn in enumerate(basis):
            A[ci, bi] = fn.evaluate(place).enc
    return A


def kernel_basis(
    curve: KummerCurve,
    basis: Sequence[CurveFunction],
    constraints: Sequence[Place],
) -> list[CurveFunction]:
    """Basis of the subspace of span(basis) vanishing at the given affine places."""
    if not constraints:
        return list(basis)
    if any(place.kind != AFFINE for place in constraints):
        raise PoleAtPlaceError("kernel constraints must be affine places")
    combos = linalg.null_space(curve.field, _evaluation_matrix(basis, constraints))
    out: list[CurveFunction] = []
    for row in combos:
        fn = CurveFunction(curve, {})
        for c, b in zip(row.tolist(), basis):
            if c:
                fn = fn + b.scale(int(c))
        out.append(fn)
    return out


def dim_drop_basis(
    curve: KummerCurve, D_base: Divisor, places: Sequence[Place]
) -> list[CurveFunction]:
    """Basis of L(D_base - sum places) for affine places of coefficient one,
    none of them in the support of D_base."""
    base = rr_basis(curve, D_base)
    return kernel_basis(curve, base, list(places))


def function_valuation_bound(curve: KummerCurve, fn: CurveFunction, place: Place) -> int:
    """Lower bound for the valuation of fn at a ramified/bundle/infinite place.

    Exact for single-term functions; for sums it is min over terms, which is
    all the soundness checks need.
    """
    field = curve.field
    if not fn.terms:
        raise ValueError("valuation of the zero function")
    vals = []
    for i, (num, den) in fn.terms.items():
        if place.kind == INF:
            vx = poly.degree(den) - poly.degree(num)
            vals.append(-i * curve.deg_f + curve.m * vx)
        elif place.kind in (ROOT, BUNDLE):
            k = place.index
            root_enc, lam = curve.roots[k]
            d = curve.root_gcds[k]
            mn, _ = poly.root_multiplicity(field, num, root_enc)
            md, _ = poly.root_multiplicity(field, den, root_enc)
            vals.append((i * lam + curve.m * (mn - md)) // d)
        else:
            raise UnsupportedSupportError("valuation bound only at non-affine places")
    return min(vals)


def affine_pole_roots(curve: KummerCurve, fn: CurveFunction) -> set[int]:
    """x-encodings of affine denominator zeros; all must be roots of f for
    functions emitted by rr_basis."""
    field = curve.field
    out: set[int] = set()
    for _, (_, den) in fn.terms.items():
        rest = den
        for root_enc, _ in curve.roots:
            k, rest = poly.root_multiplicity(field, rest, root_enc)
            if k:
                out.add(root_enc)
        if poly.degree(rest) > 0:
            # denominator factor away from the roots of f: locate its zeros
            for x0 in range(field.q):
                if poly.eval_at(field, rest, x0) == 0:
                    out.add(x0)
    return out


def evaluation_functional_rank(
    curve: KummerCurve, basis: Sequence[CurveFunction], places: Sequence[Place]
) -> int:
    """Rank of the evaluation map span(basis) -> GF(q)^places."""
    return linalg.rank(curve.field, _evaluation_matrix(basis, places))


def dim_with_simple_affine_drops(curve: KummerCurve, D: Divisor) -> int:
    """Dimension of L(D) where D = (ramified part) - (distinct affine places).

    Affine coefficients must all be -1; the drops then impose linear
    conditions on L(ramified part) and the dimension falls by the rank of
    the evaluation map, which is exact.
    """
    ram_entries = []
    drops: list[Place] = []
    for place, c in D.items():
        if place.kind == AFFINE:
            if c != -1:
                raise UnsupportedSupportError(
                    "affine coefficients other than -1 are not supported"
                )
            drops.append(place)
        else:
            ram_entries.append((place, c))
    base = Divisor(ram_entries)
    dim_base = dim_by_decomposition(curve, base)
    if not drops or dim_base == 0:
        return dim_base
    basis = rr_basis(curve, base)
    return dim_base - evaluation_functional_rank(curve, basis, drops)
