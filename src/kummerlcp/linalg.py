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
is encoded as p, so with A_i and B_j the digit planes of A and B (A =
sum_i x^i A_i),

    AB = sum_i sum_j x^(i+j) A_i B_j.

The product is cut into tiles: a block of A's rows, lifted to its e digit
planes once (unless its rows are too long, see Memory), against one column
slice of B after another.  It takes one of two orders.

  Fold after the product.  A slice of B is lifted to its plain digit
  planes, and one BLAS product of the block's planes (rows (a, i)) by the
  slice's (columns (j, c)) gives all e^2 plane products P[i][j] = A_i B_j
  at once.  Digit d of AB is then sum_{i,j} W[d, (i, j)] P[i][j] mod p,
  one small product with the e x e^2 matrix W[d, (i, j)] = digit d of
  x^(i+j), read off 2e - 2 field multiplications.
  Powers on B.  The slice is lifted as the digits of x^i B for each i < e,
  and one BLAS product of the block's planes (columns (i, r)) by that lift
  (rows (i, r), columns (d, c)) gives digit d of sum_i A_i (x^i B), the
  digits of AB before reduction mod p.

Either way the sums are reduced mod p and packed back into encodings; for
e = 1 the two orders are the same product.  The fold writes e^2 floats per
entry of the n x N product, while powers on B lifts e^2 floats per entry of
the k x N operand B once per row block, and a lift costs about four writes.
So matmul folds after the product when n <= 4 k b, b the number of row
blocks that powers on B would take, and takes powers on B otherwise: that
is when n >> k, as in min_distance's 16384-row chunks with k <= 4.

Exactness.  Every term is a product of two digits, at most (p-1)^2, so a
plane product entry is an integer of at most k (p-1)^2 for inner dimension
k, and a powers-on-B sum one of at most e k (p-1)^2, in whatever order BLAS
adds.  Integers are exact in float32 below 2^24 and in float64 below 2^53;
matmul takes float32 when the bound plus p is below 2^24 and float64
otherwise.  Past 2^53 (only primes near 2^20 with k above about 8000 get
there) the inner dimension is summed in parts of at most
(2^53 - 2p) / bound-per-row rows, reduced mod p between parts, so a sum
never exceeds p - 1 plus one part's sum.  The fold of plane products of
bound P is at most e^2 (p-1) P; when that plus p reaches the float's exact
range (GF(127^2) from k = 3 in float32), the plane products are reduced mod
p first, and the fold is then at most e^2 (p-1)^2, below 2^23 for every
e >= 2 with p^e <= 2^20.  A float integer M with M + p in the exact range
is reduced as M - p floor(fl(M / p)): unless M / p is an integer, it lies
at least 1/p below the next one, farther than the rounding reaches.
Packing sums digits times powers of p to an encoding below 2^20.

Memory.  Each temporary of matmul is at most _SLICE_BYTES: a block's lift
of A, a slice's lift of B, a tile's product and the float casts and digit
temporaries behind them.  At most four are alive at once, so matmul
allocates its int64 output plus at most 4 _SLICE_BYTES (and int64 copies of
operands given in another integer type).  A block's lift of A that holds
whole rows serves every slice; on the fold order B is lifted once per row
block, so blocks take as many rows as fit.  When fewer rows fit than a
square tile of plane products has, the tiles are square and A and B are
lifted in chunks of the inner dimension, each at most half the budget: A
once per slice and B once per row block.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ElementOutOfRangeError, ShapeMismatchError
from .field import Field

_SLICE_BYTES = 1 << 19  # bytes of the largest temporary of matmul


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


def _digits(M: np.ndarray, p: int, e: int, dtype: type) -> np.ndarray:
    """The e base-p digits of the encodings in M as dtype (float32 or
    float64), digit d of M[a, b] at [a, d, b].

    Digit d is floor(v / p^d) - p floor(v / p^(d+1)), and floor(v / p^e) is 0
    for v < q.  floor(v / p^d) is floor((v + 1/2) * fl(p^-d)) in float32, and
    so in float64, for every encoding v < 2^20: v + 1/2 is exact, its true
    quotient lies at least 1/(2 p^d) from every integer, and the two
    roundings move it by less than 2^-3 / p^d.
    """
    inv = (1.0 / p ** np.arange(e, dtype=np.float64)).astype(dtype)
    v = M.astype(dtype)
    v += 0.5
    out = np.multiply(v[:, None, :], inv[:, None])
    del v
    np.floor(out, out=out)
    out[:, :-1] -= p * out[:, 1:]
    return out


def _power_digits(field: Field, M: np.ndarray, dtype: type) -> np.ndarray:
    """The digits of x^i M for every i < e, digit d of (x^i M)[r, c] at
    [i, r, d, c]."""
    p, e = field.p, field.e
    out = np.empty((e, M.shape[0], e, M.shape[1]), dtype=dtype)
    for i in range(e):
        if i:
            M = field.vmul(M, p)  # p encodes x
        out[i] = _digits(M, p, e, dtype)
    return out


def _fold_matrix(field: Field, dtype: type) -> np.ndarray:
    """W (e x e^2) with W[d, i e + j] = digit d of x^(i+j), x encoded as p."""
    p, e = field.p, field.e
    powers = [1]
    for _ in range(2 * e - 2):
        powers.append(field.mul(powers[-1], p))
    i = np.arange(e)
    return _digits(np.array([powers]), p, e, dtype)[0][:, (i[:, None] + i).ravel()]


def _reduce(M: np.ndarray, p: int) -> None:
    """M mod p in place, for float integers M with M + p below the float's
    exact range (module docstring)."""
    quot = M / p
    np.floor(quot, out=quot)
    quot *= p
    M -= quot


class _Layout(NamedTuple):
    """How matmul cuts a product (module docstring)."""

    fold: bool  # fold after the product, or take powers on B
    dtype: type  # float type of the BLAS products
    part: int  # inner rows summed between reductions mod p; k when none is needed
    chunk: int  # inner rows lifted at a time, at most part
    width: int  # columns of B per slice
    height: int  # rows of A per block


def _tiles(field: Field, n: int, k: int, cols: int, fold: bool) -> _Layout:
    """The tiles of an n x k by k x cols product on one of matmul's two
    orders, every lift and product within _SLICE_BYTES."""
    p, e = field.p, field.e
    term = (p - 1) ** 2 * (1 if fold else e)  # bound on one inner row's share of a sum
    dtype, limit = (np.float32, 1 << 24) if term * k + p < 1 << 24 else (np.float64, 1 << 53)
    part = min(k, (limit - 2 * p) // term)
    floats = _SLICE_BYTES // np.dtype(dtype).itemsize
    if not fold:  # x^i B is small when this order is taken: columns first
        width = max(1, min(cols, floats // (e * e * part)))
        height = max(1, min(n, floats // (e * k), floats // (e * width)))
        return _Layout(fold, dtype, part, part, width, height)
    side = math.isqrt(floats // (e * e))  # of a square tile of plane products
    if floats // (e * k) >= min(n, side):  # B is lifted once per row block: rows first
        height = max(1, min(n, floats // (e * k), floats // (e * e)))
        width = max(1, min(cols, floats // (e * part), floats // (e * e * height)))
        return _Layout(fold, dtype, part, part, width, height)
    # rows too long for that: square tiles, the inner dimension in chunks
    height, width = max(1, min(n, side)), max(1, min(cols, side))
    chunk = max(1, min(part, floats // (2 * e * max(height, width))))
    return _Layout(fold, dtype, part, chunk, width, height)


def _layout(field: Field, n: int, k: int, cols: int) -> _Layout:
    """How matmul cuts an n x k by k x cols product: whether it folds after
    the product (the cost rule of the module docstring), and its tiles."""
    powers = _tiles(field, n, k, cols, False)
    if n <= 4 * k * -(-n // powers.height):
        return _tiles(field, n, k, cols, True)
    return powers


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
    fold, dtype, part, chunk, width, height = _layout(field, n, k, cols)
    W = None
    if fold and e > 1:  # for e = 1 the fold is the identity
        W = _fold_matrix(field, dtype)
        # the plane products are reduced mod p first when the fold of their
        # bound would leave the float's exact range
        exact = 1 << (np.finfo(dtype).nmant + 1)
        shrink = e * e * (p - 1) * (p - 1 + part * (p - 1) ** 2) + p >= exact
    pows = np.asarray(field._digit_pows, dtype=dtype)
    for a0 in range(0, n, height):
        a1 = min(a0 + height, n)
        h = a1 - a0
        # a block's lift of A serves every slice when it holds whole rows
        whole = _digits(A[a0:a1], p, e, dtype) if chunk == k else None  # h x e x k
        for c0 in range(0, cols, width):
            c1 = min(c0 + width, cols)
            w = c1 - c0
            acc = None
            for r0 in range(0, k, chunk):
                r1 = min(r0 + chunk, k)
                Ar = _digits(A[a0:a1, r0:r1], p, e, dtype) if whole is None else whole
                if fold:  # every plane product A_i B_j, at [a, i, j, c]
                    lift = _digits(B[r0:r1, c0:c1], p, e, dtype).reshape(r1 - r0, e * w)
                    prod = Ar.reshape(h * e, r1 - r0) @ lift
                else:  # digit d of sum_i A_i (x^i B), at [a, d, c]
                    lift = _power_digits(field, B[r0:r1, c0:c1], dtype).reshape(e * (r1 - r0), e * w)
                    prod = Ar.reshape(h, e * (r1 - r0)) @ lift
                del Ar, lift  # before the next chunk's lifts: at most four temporaries
                if acc is None:
                    acc = prod
                else:
                    if part < k:
                        _reduce(acc, p)
                    acc += prod
                del prod
            if W is not None:
                if shrink:
                    _reduce(acc, p)
                acc = W @ acc.reshape(h, e * e, w)
            _reduce(acc, p)
            out[a0:a1, c0:c1] = pows @ acc.reshape(h, e, w)
    return out


def row_space_basis(field: Field, M: np.ndarray) -> np.ndarray:
    R, pivots = rref(field, M)
    return R[: len(pivots)]
