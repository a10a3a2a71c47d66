"""Dense univariate polynomials over a Field, as tuples of encodings.

Coefficients are stored low degree first with no trailing zeros; the zero
polynomial is the empty tuple.  Polynomials are built only where one is the
output: `KummerCurve.f_poly` (read by `f_at` and by `CurveFunction.monomial`
to reduce y^m -> f), the numerators and denominators of `CurveFunction`, and
`rrspace.rr_basis`, which expands the factored basis.  Nothing evaluates
them over arrays: `rrspace.evaluation_rows` and the curve's array of
log f(x) evaluate from the roots.  The helpers multiply, shift and evaluate at one
point.
"""

from __future__ import annotations

from .field import Field

Poly = tuple[int, ...]

ZERO: Poly = ()
ONE: Poly = (1,)


def normalize(coeffs) -> Poly:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def degree(a: Poly) -> int:
    return len(a) - 1


def mul(field: Field, a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] = field.add(out[i + j], field.mul(ai, bj))
    return normalize(out)


def pow_(field: Field, a: Poly, k: int) -> Poly:
    if k < 0:
        raise ValueError("negative polynomial power")
    result: Poly = ONE
    base = a
    while k:
        if k & 1:
            result = mul(field, result, base)
        base = mul(field, base, base)
        k >>= 1
    return result


def shift(a: Poly, j: int) -> Poly:
    """Multiply by x^j."""
    if not a:
        return ZERO
    return (0,) * j + a


def linear(field: Field, a_enc: int) -> Poly:
    """The polynomial x - a."""
    return (field.neg(a_enc), 1)


def from_roots(field: Field, pairs, leading: int = 1) -> Poly:
    """leading * prod (x - a)^lam over (a, lam) pairs."""
    out: Poly = (leading % field.q,)
    for a_enc, lam in pairs:
        out = mul(field, out, pow_(field, linear(field, a_enc), lam))
    return out


def eval_at(field: Field, a: Poly, x_enc: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = field.add(field.mul(acc, x_enc), c)
    return acc

