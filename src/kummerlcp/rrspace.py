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
evaluates it in this factored form, read off the logs at the places: row j
of stratum i has log

    i log y + sum_k ((-A_k) mod (q-1)) log(x - a_k) + j log x   mod q-1,

every exponent reduced before it multiplies a log, and one antilog gather
fills the rows.  The zeros are kept apart: x^j is 0 at x = 0 for j >= 1,
y^i is 0 at y = 0 for i >= 1, and at x = a_k the factor is 0 when A_k < 0
and a pole (DivisionByZeroError) when A_k > 0.  No polynomial is expanded
on the array path; `rr_basis` is where the factors are expanded into
numerator and denominator polynomials, and the two are cross-tested
against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg, poly
from .curve import AFFINE, BUNDLE, INF, ROOT, CurveFunction, Divisor, KummerCurve, Place
from .curve import check_curve_points
from .errors import DivisionByZeroError, UnsupportedSupportError


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


def evaluation_parts(
    curve: KummerCurve, D: Divisor, places: Sequence[Place]
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray]:
    """(rows, H', Phi, strata): evaluation_rows(curve, D, places), and the
    pieces it is made of.

    With ram the ramified part of D, H' is rr_basis(curve, ram) at places and
    strata[r] the stratum i of its row r (the basis function is y^i times a
    function of x).  When D drops affine places, Phi is the same basis at the
    drops, one column per drop, and rows is null_space(Phi^T) H'; otherwise
    Phi is None and rows is H'.  The places and drops are taken as checked
    by check_curve_points (a place may also be a drop).
    """
    ram, drops = _affine_drops(D)
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
    check_curve_points(curve, places)
    check_curve_points(curve, _affine_drops(D)[1])
    return evaluation_parts(curve, D, places)[0]


def _basis_rows(curve: KummerCurve, D: Divisor,
                places: Sequence[Place]) -> tuple[np.ndarray, np.ndarray]:
    """rr_basis(curve, D) evaluated at places, for D without affine support,
    and the stratum i of each row (its basis function is y^i times a
    function of x).

    Row j of stratum i has log i log y + sum_k ((-A_k) mod (q-1)) log(x - a_k)
    + j log x mod q-1, every exponent reduced before it multiplies a log, so
    no int64 product overflows however large A is.  The zeros follow
    Field.vpow's rules for every stratum at once: x^j is 0 at
    x = 0 for j >= 1, y^i is 0 at y = 0 for i >= 1, and at x = a_k the
    factor is 0 when A_k < 0 and a pole (DivisionByZeroError) when A_k > 0.
    The stratum part and the x-power part are each below q-1 or the zero
    sentinel 2(q-1), so their sum, taken in the output array, is a unit's
    log below 2(q-1) or lies in the zero tail, and one antilog gather turns
    the sums into the rows in place.
    """
    field = curve.field
    q1 = field.q - 1
    zero = 2 * q1
    strata = basis_strata(curve, D)
    sizes = np.array([a.degree + 1 for _, a in strata], dtype=np.int64)
    xs = np.array([p.x for p in places], dtype=np.int64)
    ys = np.array([p.y for p in places], dtype=np.int64)
    roots = np.array([a for a, _ in curve.roots], dtype=np.int64)
    # log y and log(x - a_k) at the places, one row each, the sentinel at 0
    logs = field._log[np.vstack([ys, field.vsub(xs, roots[:, None])])]
    # the exponents of y and of each x - a_k, stratum by stratum: i and -A_k
    # as Python ints of any size, reduced mod q-1 before they multiply a log
    exps = [[i, *(-c for c in a.root_coeffs)] for i, a in strata]
    shape = (len(strata), len(roots) + 1)
    stratum_logs = np.array([[e % q1 for e in row] for row in exps],
                            dtype=np.int64).reshape(shape) @ logs % q1
    at_zero = logs == zero
    if at_zero.any():
        # a sentinel times a reduced exponent is 0 mod q-1, so a zero factor
        # goes by its exponent's sign: a positive one vanishes, a negative
        # one is a pole
        signs = np.array([[(e > 0) - (e < 0) for e in row] for row in exps],
                         dtype=np.int64).reshape(shape)
        if ((signs < 0) @ at_zero).any():
            raise DivisionByZeroError("negative power of zero")
        stratum_logs[(signs > 0) @ at_zero] = zero
    # x^j: j log x mod q-1, the sentinel at x = 0 for j >= 1
    ends = np.cumsum(sizes)
    j = np.arange(sizes.sum(), dtype=np.int64) - np.repeat(ends - sizes, sizes)
    rows = np.empty((len(j), len(places)), dtype=np.int64)
    np.multiply((j % q1)[:, None], field._log[xs], out=rows)
    rows %= q1
    rows[np.ix_(j > 0, xs == 0)] = zero
    # each stratum's part, added in place to its rows: no rows-sized temporary
    for part, lo, hi in zip(stratum_logs, (ends - sizes).tolist(), ends.tolist()):
        rows[lo:hi] += part
    # clip (never reached) leaves out unbuffered: each entry's log is read
    # before the entry is written, so the gather runs in place
    np.take(field._exp, rows, out=rows, mode="clip")
    return rows, np.repeat(np.array([i for i, _ in strata], dtype=np.int64), sizes)


def dim_with_simple_affine_drops(curve: KummerCurve, D: Divisor) -> int:
    """Dimension of L(D) where D = (ramified part) - (distinct affine places).

    Affine coefficients must all be -1; the drops then impose linear
    conditions on L(ramified part) and the dimension falls by the rank of
    the evaluation map, which is exact.  The drops must pass
    check_curve_points.
    """
    ram, drops = _affine_drops(D)
    check_curve_points(curve, drops)
    return _drops_dimension(curve, ram, drops)


def _drops_dimension(curve: KummerCurve, ram: Divisor, drops: Sequence[Place]) -> int:
    """dim L(ram - sum of drops) for drops already put through check_curve_points."""
    dim = dim_by_decomposition(curve, ram)
    if not drops:
        return dim
    return dim - linalg.rank(curve.field, _basis_rows(curve, ram, drops)[0])
