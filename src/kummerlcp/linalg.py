"""Gaussian elimination over GF(q) on int64 encoding matrices.

Pivoting is deterministic (first nonzero entry in column order) so echelon
forms, ranks and null spaces are bit-reproducible.  Each pivot step is one
Field.vmul (a log/antilog lookup) and one Field.vadd over the rows below
it, so a dense n x n rank costs on the order of n^3 element operations;
codes.fiber_block_rank keeps the ranks of fiber-structured generators off
this path where it can.
"""

from __future__ import annotations

import numpy as np

from .field import Field


def as_matrix(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.int64)
    return arr.reshape(1, -1) if arr.ndim == 1 else arr


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


def rank(field: Field, M: np.ndarray) -> int:
    return len(_eliminate(field, np.array(M, dtype=np.int64, copy=True), reduce=False))


def rref(field: Field, M: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form (copy) and the pivot column indices."""
    R = np.array(M, dtype=np.int64, copy=True)
    return R, _eliminate(field, R, reduce=True)


def null_space(field: Field, M: np.ndarray) -> np.ndarray:
    """Basis (rows) of {v : M v = 0}, one row per free column, deterministic."""
    R, pivots = rref(field, as_matrix(M))
    free = [c for c in range(R.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), R.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = field.vneg(R[: len(pivots), free]).T
    return basis


def matmul(field: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The product A B, summed one row of B at a time, skipping zero entries of A."""
    A = np.asarray(A, dtype=np.int64)
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for row in range(A.shape[1]):
        col = A[:, row]
        sel = col != 0
        if np.any(sel):
            out[sel] = field.vadd(out[sel], field.vmul(col[sel][:, None], B[row][None, :]))
    return out


def row_space_basis(field: Field, M: np.ndarray) -> np.ndarray:
    R, pivots = rref(field, M)
    return R[: len(pivots)]
