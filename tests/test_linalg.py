"""linalg.matmul, the float-BLAS product over GF(p) digit lifts, against the
row-by-row product it replaced."""

import numpy as np
import pytest

import kummerlcp as K
from kummerlcp import linalg
from kummerlcp.errors import ElementOutOfRangeError, ShapeMismatchError

from conftest import FIELD_CHOICES

KERNEL_FIELDS = FIELD_CHOICES + [(2, 1), (1021, 1), (2, 11), (2, 16), (2, 20), (1048573, 1)]


def row_loop_matmul(field, A, B):
    """The product A B, summed one row of B at a time with Field.vmul and
    Field.vadd, skipping zero entries of A."""
    A = np.asarray(A, dtype=np.int64)
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for row in range(A.shape[1]):
        col = A[:, row]
        sel = col != 0
        if np.any(sel):
            out[sel] = field.vadd(out[sel], field.vmul(col[sel][:, None], B[row][None, :]))
    return out


@pytest.mark.parametrize("p,e", KERNEL_FIELDS)
def test_matmul_matches_row_loop_across_slices(p, e, monkeypatch):
    f = K.field_create(p, e)
    rng = np.random.default_rng(p * 7 + e)
    # a budget of 3 to 6 columns at k = 5: most shapes take several column
    # slices of B and several row blocks of A
    monkeypatch.setattr(linalg, "_SLICE_BYTES", 3 * 8 * e * 5)
    for n, k, cols in [(1, 1, 1), (4, 5, 7), (9, 5, 3), (6, 2, 13), (3, 11, 10), (17, 5, 16)]:
        A = rng.integers(0, f.q, size=(n, k))
        A[rng.random(A.shape) < 0.3] = 0
        B = rng.integers(0, f.q, size=(k, cols))
        assert np.array_equal(linalg.matmul(f, A, B), row_loop_matmul(f, A, B))


@pytest.mark.parametrize("p,e", KERNEL_FIELDS)
def test_matmul_matches_row_loop_at_criterion_10_depth(p, e):
    # k about 2000, the depth of the Z-curve codes, over three slices of B
    f = K.field_create(p, e)
    rng = np.random.default_rng(p + e)
    k = 2011
    width = linalg._layout(f, k, 2 * k)[2]
    A = rng.integers(0, f.q, size=(3, k))
    B = rng.integers(0, f.q, size=(k, 2 * width + 1))
    assert np.array_equal(linalg.matmul(f, A, B), row_loop_matmul(f, A, B))


def test_matmul_slices_of_the_z_curve_codes_are_several_columns_wide():
    # criterion 10 encodes through GF(729) generators of about 2000 x 2016;
    # one-column slices would make every BLAS product a matrix-vector one
    assert linalg._layout(K.field_create(3, 6), 2016, 2016)[2] >= 4


@pytest.mark.parametrize("minus", [1, 2])
def test_matmul_splits_the_inner_dimension_past_float64(minus):
    # every term is (p - minus)^2, close to 2^40, so a sum over k terms
    # passes 2^53 at k = 8193 and the inner dimension is summed in parts.
    # All-(q-1) operands are the largest terms; q-2 makes them odd, so a
    # sum past 2^53 that was not reduced mod p would also be rounded.
    f = K.field_create(1048573, 1)
    k = 2**53 // (f.p - 1) ** 2 + 501
    value = f.q - minus
    A = np.full((2, k), value, dtype=np.int64)
    B = np.full((k, 3), value, dtype=np.int64)
    got = linalg.matmul(f, A, B)
    assert np.array_equal(got, np.full((2, 3), k * minus**2 % f.p))
    assert np.array_equal(got, row_loop_matmul(f, A, B))


@pytest.mark.parametrize("p,e", [(3, 2), (2, 11), (1021, 1)])
@pytest.mark.parametrize("n,k,cols", [(0, 4, 5), (4, 0, 5), (4, 5, 0), (0, 0, 0)])
def test_matmul_zero_size(p, e, n, k, cols):
    f = K.field_create(p, e)
    got = linalg.matmul(f, np.zeros((n, k), dtype=np.int64), np.ones((k, cols), dtype=np.int64))
    assert got.shape == (n, cols) and got.dtype == np.int64
    assert not got.any()


@pytest.mark.parametrize("p,e", [(3, 2), (2, 4), (2, 11), (1021, 1)])
def test_matmul_non_contiguous_operands(p, e):
    f = K.field_create(p, e)
    rng = np.random.default_rng(11)
    big = rng.integers(0, f.q, size=(40, 30))
    A = big.T[::2, 3:]  # transposed and strided
    B = np.asfortranarray(rng.integers(0, f.q, size=(74, 50)))[1::2, ::3]
    assert not A.flags.c_contiguous and not B.flags.c_contiguous
    want = row_loop_matmul(f, np.ascontiguousarray(A), np.ascontiguousarray(B))
    assert np.array_equal(linalg.matmul(f, A, B), want)


@pytest.mark.parametrize("A,B", [
    (np.zeros(3, dtype=np.int64), np.zeros((3, 2), dtype=np.int64)),
    (np.zeros((2, 3), dtype=np.int64), np.zeros(3, dtype=np.int64)),
    (np.zeros((1, 2, 3), dtype=np.int64), np.zeros((3, 2), dtype=np.int64)),
    (np.zeros((2, 3), dtype=np.int64), np.zeros((4, 2), dtype=np.int64)),
], ids=["A-1d", "B-1d", "A-3d", "inner-mismatch"])
def test_matmul_rejects_shapes(gf9, A, B):
    with pytest.raises(ShapeMismatchError):
        linalg.matmul(gf9, A, B)


@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32, bool, object, str])
def test_matmul_rejects_non_integer_arrays(gf9, side, dtype):
    # entries are never cast: a float is not truncated, a bool or string not
    # read as a number
    A = np.ones((2, 2), dtype=np.uint8)
    B = np.ones((2, 2), dtype=np.int32)
    assert linalg.matmul(gf9, A, B).tolist() == [[2, 2], [2, 2]]
    if side == "A":
        A = A.astype(dtype)
    else:
        B = B.astype(dtype)
    with pytest.raises(TypeError):
        linalg.matmul(gf9, A, B)


@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize("value", [-1, 9, 1 << 40])
def test_matmul_rejects_entries_outside_field(gf9, side, value):
    A = np.ones((2, 3), dtype=np.int64)
    B = np.ones((3, 2), dtype=np.int64)
    (A if side == "A" else B)[1, 1] = value
    with pytest.raises(ElementOutOfRangeError):
        linalg.matmul(gf9, A, B)
