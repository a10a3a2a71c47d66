"""linalg against the code it replaced: matmul, the float-BLAS product over
GF(p) digit lifts, against the row-by-row product; the lockstep log-domain
elimination against the Field.vmul + Field.vadd elimination, on single
matrices, ragged stacks and the character blocks of codes."""

import tracemalloc
from bisect import bisect_left

import numpy as np
import pytest

import kummerlcp as K
from kummerlcp import codes, linalg
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
    # a budget of 120 e bytes: most shapes take several row blocks of A and
    # column slices of B; the tall ones with k = 1 take powers on B, the
    # others fold after the product, k = 40 with the inner dimension in chunks
    monkeypatch.setattr(linalg, "_SLICE_BYTES", 3 * 8 * e * 5)
    shapes = [(1, 1, 1), (4, 5, 7), (9, 5, 3), (6, 2, 13), (3, 11, 10), (17, 5, 16),
              (40, 1, 3), (64, 1, 2), (3, 40, 5)]
    layouts = [linalg._layout(f, *shape) for shape in shapes]
    assert {(lay.fold, lay.chunk < k) for lay, (_, k, _) in zip(layouts, shapes)} == {
        (False, False), (True, False), (True, True)}
    for n, k, cols in shapes:
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
    width = linalg._layout(f, 3, k, 2 * k).width
    A = rng.integers(0, f.q, size=(3, k))
    B = rng.integers(0, f.q, size=(k, 2 * width + 1))
    assert np.array_equal(linalg.matmul(f, A, B), row_loop_matmul(f, A, B))


def test_matmul_slices_of_the_z_curve_codes_are_several_columns_wide():
    # criterion 10 encodes 200 messages through GF(729) generators of about
    # 2000 x 2016; one-column slices or one-row blocks would make every BLAS
    # product a matrix-vector one
    layout = linalg._layout(K.field_create(3, 6), 200, 2016, 2016)
    assert layout.fold and layout.width >= 4 and layout.height >= 4


def test_matmul_order_follows_the_cost_rule():
    # encoding 100 messages through the benchmark's GF(729) codes folds after
    # the product; min_distance's chunks of 16384 messages with k <= 4 take
    # powers on B, over small and large extensions alike
    f = K.field_create(3, 6)
    assert all(linalg._layout(f, 100, k, 336).fold for k in (26, 167, 310))
    for p, e in [(3, 2), (3, 6), (2, 11), (2, 20)]:
        for k in (1, 2, 4):
            assert not linalg._layout(K.field_create(p, e), 1 << 14, k, 24).fold


@pytest.mark.parametrize("k", [2, 3, 40])
def test_matmul_fold_reduces_plane_products_past_float32(k):
    # over GF(127^2) a plane product is at most k 126^2, in float32's exact
    # range, but its fold reaches e^2 k 126^3, past 2^24 from k = 3, so the
    # plane products are reduced mod p before they are folded; all-(q-1)
    # operands take the largest digits, random ones make the sums odd
    f = K.field_create(127, 2)
    layout = linalg._layout(f, 8, k, 12)
    assert layout.fold and layout.dtype == np.float32
    assert (4 * k * 126**3 >= 1 << 24) == (k >= 3)
    rng = np.random.default_rng(k)
    for A, B in [(np.full((8, k), f.q - 1), np.full((k, 12), f.q - 1)),
                 (rng.integers(0, f.q, size=(8, k)), rng.integers(0, f.q, size=(k, 12)))]:
        assert np.array_equal(linalg.matmul(f, A, B), row_loop_matmul(f, A, B))


def test_matmul_temporaries_stay_within_the_slice_budget():
    # criterion 10's shape: 200 messages through a 1990 x 2016 GF(729) code.
    # The module docstring bounds matmul's allocations by its output plus
    # four temporaries of _SLICE_BYTES each
    f = K.field_create(3, 6)
    rng = np.random.default_rng(10)
    A = rng.integers(0, f.q, size=(200, 1990))
    B = rng.integers(0, f.q, size=(1990, 2016))
    tracemalloc.start()
    try:
        got = linalg.matmul(f, A, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= got.nbytes + 4 * linalg._SLICE_BYTES
    assert np.array_equal(got[:2], row_loop_matmul(f, A[:2], B))


@pytest.mark.parametrize("minus", [1, 2])
def test_matmul_splits_the_inner_dimension_past_float64(minus):
    # every term is (p - minus)^2, close to 2^40, so a sum over k terms
    # passes 2^53 at k = 8193 and the inner dimension is summed in parts,
    # here on the fold order.  All-(q-1) operands are the largest terms;
    # q-2 makes them odd, so a sum past 2^53 that was not reduced mod p
    # would also be rounded.
    f = K.field_create(1048573, 1)
    k = 2**53 // (f.p - 1) ** 2 + 501
    layout = linalg._layout(f, 2, k, 3)
    assert layout.fold and layout.part < k
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


def vadd_elimination(field, M, reduce):
    """A row-reduced copy of M and its pivot columns, by the elimination that
    linalg ran before the log domain: per pivot, one Field.vmul scales the
    pivot row and one Field.vmul and Field.vadd clear its column in the rows
    with a nonzero entry there (all other rows too when reduce is set)."""
    M = np.array(M, dtype=np.int64, copy=True)
    rows, cols = M.shape
    pivots = []
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
            prod = field.vmul(field.vneg(M[sel, c])[:, None], M[r, c:][None, :])
            M[sel, c:] = field.vadd(M[sel, c:], prod)
        pivots.append(c)
        r += 1
    return M, pivots


def edge_matrices(f, rng):
    """Matrices at elimination's edge cases: empty, no rows or no columns,
    all zero, zero rows and columns, duplicated rows, low rank, sparse (zero
    pivots and row swaps), and dense."""
    cases = [np.zeros((0, 0), dtype=np.int64), np.zeros((0, 5), dtype=np.int64),
             np.zeros((4, 0), dtype=np.int64), np.zeros((3, 4), dtype=np.int64)]
    for rows, cols in [(1, 1), (1, 6), (6, 6), (8, 8), (5, 9), (9, 5), (17, 12)]:
        dense = rng.integers(0, f.q, size=(rows, cols))
        sparse = np.where(rng.random((rows, cols)) < 0.6, 0, dense)
        holes = dense.copy()
        holes[rng.integers(rows)] = 0
        holes[:, rng.integers(cols)] = 0
        twins = np.vstack([dense, dense[::2], sparse[:1]])
        rank = int(rng.integers(1, min(rows, cols) + 1))
        low = linalg.matmul(f, rng.integers(0, f.q, size=(rows, rank)),
                            rng.integers(0, f.q, size=(rank, cols)))
        cases += [dense, sparse, holes, twins, low]
    return cases


@pytest.mark.parametrize("p,e", KERNEL_FIELDS)
def test_elimination_matches_vadd_reference(p, e):
    f = K.field_create(p, e)
    for M in edge_matrices(f, np.random.default_rng(p * 13 + e)):
        want, want_pivots = vadd_elimination(f, M, reduce=False)
        R, pivots = linalg.echelon(f, M)
        assert R.dtype == np.int64 and np.array_equal(R, want) and pivots == want_pivots
        assert linalg.rank(f, M) == len(want_pivots)
        want, want_pivots = vadd_elimination(f, M, reduce=True)
        R, pivots = linalg.rref(f, M)
        assert R.dtype == np.int64 and np.array_equal(R, want) and pivots == want_pivots
        assert np.array_equal(linalg.row_space_basis(f, M), want[:len(want_pivots)])
        free = [c for c in range(M.shape[1]) if c not in want_pivots]
        basis = np.zeros((len(free), M.shape[1]), dtype=np.int64)
        basis[np.arange(len(free)), free] = 1
        basis[:, want_pivots] = f.vneg(want[:len(want_pivots), free]).T
        assert np.array_equal(linalg.null_space(f, M), basis)


@pytest.mark.parametrize("p,e", KERNEL_FIELDS)
def test_ragged_stack_matches_each_matrix_alone(p, e):
    # members of different heights, some with no rows, padded with zero rows:
    # each comes out as its own elimination with the zero rows below
    f = K.field_create(p, e)
    rng = np.random.default_rng(p * 17 + e)
    for cols in (0, 1, 6, 11):
        cases = [M for M in edge_matrices(f, rng) if M.shape[1] == cols] or [
            rng.integers(0, f.q, size=(n, cols)) for n in (0, 3, 7)]
        for depth in (1, 2, 7):
            members = [cases[int(i)] for i in rng.integers(len(cases), size=depth)]
            members[int(rng.integers(depth))] = np.zeros((0, cols), dtype=np.int64)
            height = max(len(M) for M in members)
            stack = np.zeros((depth, height, cols), dtype=np.int64)
            for slot, M in zip(stack, members):
                slot[:len(M)] = M
            forms, pivots = linalg.echelons(f, stack)
            assert forms.shape == stack.shape and len(pivots) == depth
            for form, piv, M in zip(forms, pivots, members):
                want, want_pivots = vadd_elimination(f, M, reduce=False)
                assert np.array_equal(form[:len(M)], want) and piv == want_pivots
                assert not form[len(M):].any()
    assert linalg.echelons(f, np.zeros((0, 3, 4), dtype=np.int64))[1] == []


def per_block_rank(field, splits):
    """codes._bordered_rank with each character block eliminated on its own
    by the reference elimination."""
    fibers, lone, m = splits[0].fibers, splits[0].lone, len(splits[0].parts)
    shared = fibers + lone
    drops = sum(b.drops for b in splits)
    total = -sum(b.drop_rank for b in splits)
    residuals = []
    for i in range(m):
        M = np.zeros((sum(len(b.parts[i]) for b in splits), shared + drops), dtype=np.int64)
        r, c = 0, shared
        for b in splits:
            part = b.parts[i]
            M[r:r + len(part), :shared] = part[:, :shared]
            M[r:r + len(part), c:c + b.drops] = part[:, shared:]
            r, c = r + len(part), c + b.drops
        if fibers and len(M):
            M, pivots = vadd_elimination(field, M, reduce=False)
            total += bisect_left(pivots, fibers)
            M = M[bisect_left(pivots, fibers):len(pivots)]
        residuals.append(M[:, fibers:])
    if lone + drops:
        total += len(vadd_elimination(field, np.vstack(residuals), reduce=False)[1])
    return total


def assert_blocks_match_per_block(monkeypatch, code_g, code_h):
    """_bordered_rank of G, H and their stack equals the per-block ranks, and
    every stacked block's form equals its own reference elimination."""
    stacks = []

    def recorded(field, stack):
        forms, pivots = linalg._eliminate(field, np.asarray(stack, dtype=np.int64), False)
        stacks.append((stack, forms, pivots))
        return forms, pivots

    monkeypatch.setattr(linalg, "echelons", recorded)
    f = code_g.field
    for splits in ([code_g.generator.blocks], [code_h.generator.blocks],
                   [code_g.generator.blocks, code_h.generator.blocks]):
        assert codes._bordered_rank(f, splits) == per_block_rank(f, splits)
    assert max(len(stack) for stack, _, _ in stacks) == code_g.curve.m
    for stack, forms, pivots in stacks:
        for M, form, piv in zip(stack, forms, pivots):
            want, want_pivots = vadd_elimination(f, M, reduce=False)
            assert np.array_equal(form, want) and piv == want_pivots


def test_bordered_rank_blocks_match_per_block_on_gf1021(monkeypatch):
    # construction R on 48 fibers: a lone point (R_2) and a drop column (R_1)
    curve = K.curve_create(K.field_create(1021, 1), 4, 1, [(1, 1), (2, 1), (3, 1)])
    E = K.Divisor.of((curve.root_place(1), 1), (curve.root_place(2), 2))
    res = K.lcp_punctured(curve, E, 31, curve.split_x_values()[:48])
    assert_blocks_match_per_block(monkeypatch, res.code_g, res.code_h)


def test_bordered_rank_blocks_match_per_block_on_z_curve(monkeypatch, z_lcp_results):
    # the whole Z-curve at s = 77: 7 blocks of 288 columns in one stack
    res = z_lcp_results[0][77]
    assert res.code_g.generator.blocks.fibers == 288
    assert_blocks_match_per_block(monkeypatch, res.code_g, res.code_h)
