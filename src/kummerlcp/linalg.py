"""Linear algebra over GF(q) on int64 encoding matrices.

Elimination.  _eliminate row-reduces a stack of matrices of one shape in
lockstep: one Python step per column for the whole stack, in which every
matrix takes its own pivot, its own row swap and its own row updates.
Pivoting is deterministic (the first nonzero entry at or below the matrix's
current row, columns in order), so echelon forms, ranks and null spaces are
bit-reproducible, and a matrix comes out of a stack exactly as it comes out
alone.  A dense n x n rank costs on the order of n^3 element operations;
codes.fiber_block_rank keeps the ranks of fiber-structured generators off
the dense path and eliminates its character blocks as one stack.

The stack is held as int32 logs, zero as the sentinel S = 2(q-1) of
field.py, and read back into encodings once, at the end.  Besides the Zech
table it uses canon: canon[k] = k mod (q-1) for k < S and S for
S <= k <= 4(q-1).  With lp the log of the pivot, a row with log la below it,
whose entry in the pivot column has log lf, becomes a - (f/p) P for the
pivot row P (logs lP) through

    k = canon[log(-1) + (q-1) - lp]                  log(-1/p)
    lc = canon[canon[lf + k] + lP]                    log(-(f/p) P)
    la' = canon[la + zech[lc - la + S]]               log(a - (f/p) P)

Only rows whose factor f is nonzero are touched.  Every index lies in
[0, 4(q-1)] and zero stays in the tail: log(-1) < q-1, so the first index is
in [1, S); lf and k are units, so lf + k < S; canon[lf + k] + lP is below S
for a unit entry of P and in [S, 4(q-1)) for a zero one; lc and la are in
[0, q-2] or S, so the Zech index is in [0, 2S]; and la plus a Zech entry is
in [0, 4(q-1)] and reaches the tail exactly when a - (f/p) P is zero
(field.py).  Pivot rows are not scaled while the elimination runs: a later
pivot row is zero in every earlier pivot column, so a pivot row's leading
entry never changes, and the antilog gather at the end reads it scaled,
exp[L + (q-1) - lp], which is in the antilog table's two periods for a unit
and in its zero tail for zero.

A matrix with fewer rows than the stack's is padded with zero rows, and in a
stack of more than one matrix each gets one more zero row below (under a
matrix whose rows are all pivots, the current row is that zero row).
A zero row is never a pivot, since a pivot is a nonzero entry, and never
updated, since its factor is zero; the only row swap moves a nonzero row up
to the matrix's current row, which is then one of the matrix's own rows.  So
zero rows stay zero where they are, and each matrix of the stack is
eliminated step for step as it would be alone.

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


def _eliminate(field: Field, stack: np.ndarray, reduce: bool) -> tuple[np.ndarray, list[list[int]]]:
    """Row-reduce each matrix of the int64 stack (depth x rows x cols) in
    lockstep (module docstring); the reduced stack, as a new array, and each
    matrix's pivot columns.

    Each pivot row is scaled to a leading 1 and its column is cleared below
    it, and also above it when reduce is set (giving the RREF).
    """
    depth, rows, cols = stack.shape
    q1 = field.q - 1
    S = 2 * q1
    canon, zech = field._canon_table(), field._zech
    zero = canon[-1]  # S as an int32 scalar
    negate = field._log.item(field.p - 1) + q1  # k = canon[negate - lp]
    stride = rows + (depth > 1)
    L = np.empty((depth, stride, cols), dtype=np.int32)
    if depth > 1:
        L[:, rows] = zero
    L[:, :rows] = field._log.take(stack)
    flat = L.reshape(depth * stride, cols)
    base = np.arange(0, depth * stride, stride or 1)  # empty when there are no rows
    cur = base  # each matrix's current row, as a row of flat
    taken = np.zeros(depth * stride, dtype=bool)  # the pivot rows so far
    # lp of each pivot row; every other row ends as a zero row, which reads
    # back as zero under any shift up to q-1
    lead = np.zeros((depth * stride, 1), dtype=np.int32)
    steps: list[tuple[int, np.ndarray | None]] = []  # (column, which matrices pivot; None: all)
    left = depth * rows
    for c in range(cols):
        if not left:
            break
        tail = flat[:, c:]
        nz = tail[:, 0] != zero
        piv = tail.take(cur, axis=0)
        if S not in piv[:, 0].tolist():
            # every current row is nonzero in c, so it is the first nonzero
            src = dst = cur
            has, n = None, depth
        else:
            free = nz > taken
            src = free.reshape(depth, stride).argmax(axis=1) + base
            has = free.take(src)
            n = np.count_nonzero(has)
            if not n:
                continue
            if n < depth:
                src, dst = src[has], cur[has]
            else:
                dst, has = cur, None
            piv = tail.take(src, axis=0)
            tail[src] = tail.take(dst, axis=0)
            tail[dst] = piv
        cur = cur + (1 if has is None else has)
        taken[dst] = True
        lp = lead[dst] = piv[:, :1]
        if reduce:
            sel = nz if has is None else nz & np.repeat(has, stride)
            sel[src] = False
        else:
            sel = nz > taken
            if src is not dst:
                sel[src] = False  # the pivot's row before the swap
        sel = sel.nonzero()[0]
        if sel.size:
            # a run of consecutive rows (the dense case) is read and written
            # as a slice, any other selection gathered
            run = slice(sel[0], sel[-1] + 1) if sel[-1] - sel[0] < sel.size else sel
            la = tail[run]
            k = canon.take(negate - lp)
            if n > 1:
                which = sel // stride if has is None else (np.cumsum(has) - 1).take(sel // stride)
                k, piv = k.take(which, axis=0), piv.take(which, axis=0)
            lc = canon.take(canon.take(la[:, :1] + k) + piv)
            lc -= la
            lc += zero
            lc = zech.take(lc)
            lc += la
            tail[run] = canon.take(lc)
        steps.append((c, has))
        left -= n
    flat += q1 - lead  # pivot rows read back scaled
    return (field._exp.take(L[:, :rows]),
            [[c for c, has in steps if has is None or has[b]] for b in range(depth)])


def echelons(field: Field, stack) -> tuple[np.ndarray, list[list[int]]]:
    """Row echelon forms of a stack of matrices (depth x rows x cols),
    eliminated in lockstep, and each one's pivot columns.  Pad a matrix with
    fewer rows with zero rows: its form is its own, with zero rows below."""
    return _eliminate(field, np.asarray(stack, dtype=np.int64), reduce=False)


def echelon(field: Field, M: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Row echelon form (copy; leading 1s, each pivot column cleared below
    its pivot) and the pivot column indices."""
    R, pivots = echelons(field, np.asarray(M, dtype=np.int64)[None])
    return R[0], pivots[0]


def rank(field: Field, M: np.ndarray) -> int:
    return len(echelon(field, M)[1])


def rref(field: Field, M: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form (copy) and the pivot column indices."""
    R, pivots = _eliminate(field, np.asarray(M, dtype=np.int64)[None], reduce=True)
    return R[0], pivots[0]


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
