"""Linear algebra over GF(q) on int64 encoding matrices.

Elimination.  Pivoting is deterministic (first nonzero entry in column
order) so echelon forms, ranks and null spaces are bit-reproducible.  Each
pivot step is one Field.vmul (a log/antilog lookup) and one Field.vadd over
the rows below it, so a dense n x n rank costs on the order of n^3 element
operations; codes.fiber_block_rank keeps the ranks of fiber-structured
generators off this path where it can.

Products.  matmul computes over the prime field in float BLAS, the
FFLAS-FFPACK approach (Dumas, Giorgi, Pernet, ACM TOMS 35(3), 2008).  An
element is a polynomial in x with its base-p digits as coefficients, and x
is encoded as p, so digit d of (AB)[a, c] is

    sum_i sum_r digit_i(A[a, r]) * digit_d(x^i B[r, c])   mod p.

For each power i, the i-th digits of A times the e digits of x^i B, laid
side by side, is one float product; the e products add up in one
accumulator, which is reduced mod p and packed back into encodings.  For
e = 1 this is A B mod p.

Exactness.  A term is a product of two digits, at most (p-1)^2, and an
accumulator entry sums e k terms for inner dimension k.  Every partial sum,
in whatever order BLAS adds, is therefore an integer of at most
e k (p-1)^2, and integers are exact in float32 below 2^24 and in float64
below 2^53.  matmul takes float32 when e k (p-1)^2 < 2^24 and float64
otherwise.  Past 2^53 (only primes near 2^20 with k above about 8000 get
there) the inner dimension is summed in parts of at most
(2^53 - p) / (e (p-1)^2) rows, and the accumulator is reduced mod p between
parts, so it never exceeds p - 1 plus one part's sum.

Memory.  B is lifted one column slice and one power of x at a time, and A
is taken in row blocks whose digits are kept as small integers; a slice's
lift and a block's accumulator each fit in _SLICE_BYTES, so the float
temporaries stay a small multiple of it.
"""

from __future__ import annotations

import numpy as np

from .errors import ElementOutOfRangeError, ShapeMismatchError
from .field import Field

_SLICE_BYTES = 1 << 18  # bytes of one lifted slice of B, or accumulator block, in matmul


def _eliminate(field: Field, M: np.ndarray, reduce: bool) -> list[int]:
    """Row-reduce M in place and return the pivot columns.

    Each pivot row is scaled to a leading 1 and its column is cleared below
    it, and also above it when reduce is set (giving the RREF).
    """
    rows, cols = M.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(M[r:, c])[0]
        if nz.size == 0:
            continue
        p0 = r + int(nz[0])
        if p0 != r:
            M[[r, p0]] = M[[p0, r]]
        pivot = int(M[r, c])
        if pivot != 1:
            M[r, c:] = field.vmul(M[r, c:], field.inv(pivot))
        first = 0 if reduce else r + 1
        sel = np.nonzero(M[first:, c])[0] + first
        sel = sel[sel != r]
        if sel.size:
            # row -= factor * pivot_row, as row + (-factor) * pivot_row
            prod = field.vmul(field.vneg(M[sel, c])[:, None], M[r, c:][None, :])
            M[sel, c:] = field.vadd(M[sel, c:], prod)
        pivots.append(c)
        r += 1
    return pivots


def echelon(field: Field, M: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Row echelon form (copy; leading 1s, each pivot column cleared below
    its pivot) and the pivot column indices."""
    R = np.array(M, dtype=np.int64, copy=True)
    return R, _eliminate(field, R, reduce=False)


def rank(field: Field, M: np.ndarray) -> int:
    return len(echelon(field, M)[1])


def rref(field: Field, M: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form (copy) and the pivot column indices."""
    R = np.array(M, dtype=np.int64, copy=True)
    return R, _eliminate(field, R, reduce=True)


def null_space(field: Field, M: np.ndarray) -> np.ndarray:
    """Basis (rows) of {v : M v = 0}, one row per free column, deterministic."""
    R, pivots = rref(field, M)
    free = [c for c in range(R.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), R.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = field.vneg(R[: len(pivots), free]).T
    return basis


def _digits(M: np.ndarray, p: int, e: int) -> np.ndarray:
    """The e base-p digits of the encodings in M as float32, digit d of
    M[a, b] at [a, d, b].

    Digit d is floor(v / p^d) - p floor(v / p^(d+1)), and floor(v / p^d) is
    floor((v + 1/2) * fl(p^-d)) in float32 for every encoding v < 2^20:
    v + 1/2 is exact, its true quotient lies at least 1/(2 p^d) from every
    integer, and the two roundings move it by less than 2^-3 / p^d.
    """
    inv = (1.0 / p ** np.arange(e + 1, dtype=np.float64)).astype(np.float32)
    v = M.astype(np.float32)
    v += 0.5
    quot = v[:, None, :] * inv[:, None]
    np.floor(quot, out=quot)
    low = quot[:, 1:] * p
    return np.subtract(quot[:, :-1], low, out=low)


def _layout(field: Field, k: int, cols: int) -> tuple[type, int, int, int]:
    """How matmul cuts a product with inner dimension k and cols columns:
    the float type of its BLAS products, the inner rows summed between
    reductions mod p, the columns of B per slice and the rows of A per
    block.  A slice's digit lift of x^i B and a block's accumulator each
    fit in _SLICE_BYTES."""
    p, e = field.p, field.e
    term = e * (p - 1) ** 2  # bound on one inner index's share of a sum
    dtype, limit = (np.float32, 1 << 24) if term * k < 1 << 24 else (np.float64, 1 << 53)
    part = min(k, (limit - p) // term)
    lane = np.dtype(dtype).itemsize * e  # bytes per inner row and column of a lift
    width = max(1, _SLICE_BYTES // (lane * part))
    height = max(1, _SLICE_BYTES // (lane * min(width, cols)))
    return dtype, part, width, height


def _operands(field: Field, A, B) -> tuple[np.ndarray, np.ndarray]:
    """A and B as int64 matrices over field with matching inner dimension;
    an array of floats, bools or objects raises TypeError, never cast."""
    A, B = np.asarray(A), np.asarray(B)
    if A.dtype.kind not in "iu" or B.dtype.kind not in "iu":
        raise TypeError(f"matrix entries must be integers, got {A.dtype} and {B.dtype}")
    A, B = A.astype(np.int64, copy=False), B.astype(np.int64, copy=False)
    if A.ndim != 2 or B.ndim != 2:
        raise ShapeMismatchError(f"matmul needs two matrices, got {A.ndim}-D and {B.ndim}-D")
    if A.shape[1] != B.shape[0]:
        raise ShapeMismatchError(f"inner dimensions differ: {A.shape} times {B.shape}")
    for M in (A, B):
        if M.size and (M.min() < 0 or M.max() >= field.q):
            raise ElementOutOfRangeError(f"matrix entries must lie in [0, {field.q})")
    return A, B


def matmul(field: Field, A, B) -> np.ndarray:
    """The product A B over GF(q), exact, through float BLAS products over
    GF(p) (see the module docstring).  A and B must be matrices of
    encodings in [0, q) with A's columns matching B's rows."""
    A, B = _operands(field, A, B)
    p, e = field.p, field.e
    (n, k), cols = A.shape, B.shape[1]
    out = np.zeros((n, cols), dtype=np.int64)
    if out.size == 0 or k == 0:
        return out
    dtype, part, width, height = _layout(field, k, cols)
    pows = np.asarray(field._digit_pows)
    for a0 in range(0, n, height):
        a1 = min(a0 + height, n)
        planes = _digits(A[a0:a1], p, e).astype(np.min_scalar_type(p - 1))  # rows x e x k
        for c0 in range(0, cols, width):
            c1 = min(c0 + width, cols)
            acc = np.zeros((a1 - a0, e * (c1 - c0)), dtype=dtype)
            for r0 in range(0, k, part):
                r1 = min(r0 + part, k)
                Bi = B[r0:r1, c0:c1]
                for i in range(e):
                    if i:
                        Bi = field.vmul(Bi, p)  # p encodes x
                    lift = _digits(Bi, p, e).astype(dtype, copy=False).reshape(r1 - r0, -1)
                    acc += planes[:, i, r0:r1].astype(dtype) @ lift
                if r1 < k:
                    np.fmod(acc, p, out=acc)
            digits = acc.astype(np.int32 if dtype == np.float32 else np.int64)
            digits %= p
            out[a0:a1, c0:c1] = pows @ digits.reshape(a1 - a0, e, -1)
    return out


def row_space_basis(field: Field, M: np.ndarray) -> np.ndarray:
    R, pivots = rref(field, M)
    return R[: len(pivots)]
