import collections
import dataclasses
import itertools
import json
import math
import random

import numpy as np
import pytest

import kummerlcp as K
from kummerlcp import cli, lcp, linalg, rrspace
from kummerlcp.codes import (
    CertStep,
    ConditionReport,
    CharacterBlocks,
    LcpReport,
    _bordered_rank,
    _chain_divisor,
    _code_pair,
    _nonspecial_gminus1_report,
    _unranked_code,
    encode_messages,
    fiber_block_rank,
)
from kummerlcp.errors import (
    CertificateInvalidError,
    ElementOutOfRangeError,
    FieldMismatchError,
    InternalInvariantError,
    ShapeMismatchError,
    SupportOverlapError,
    UnsupportedPlaceStructureError,
)

from conftest import FIELD_CHOICES, count_code_ranks, plant_dependent_row, random_curve


def reference_rref(f, M):
    """Scalar Gauss-Jordan with Field.add/mul/inv only; -1 is encoded as p - 1."""
    R = [[int(v) for v in row] for row in M]
    rows, cols = len(R), len(R[0])
    pivots = []
    for c in range(cols):
        r = len(pivots)
        hit = next((i for i in range(r, rows) if R[i][c]), None)
        if hit is None:
            continue
        R[r], R[hit] = R[hit], R[r]
        inv = f.inv(R[r][c])
        R[r] = [f.mul(inv, v) for v in R[r]]
        for i in range(rows):
            if i != r and R[i][c]:
                minus_factor = f.mul(f.p - 1, R[i][c])
                R[i] = [f.add(a, f.mul(minus_factor, b)) for a, b in zip(R[i], R[r])]
        pivots.append(c)
        if len(pivots) == rows:
            break
    return R, pivots


def random_low_rank(f, rng, rows, cols):
    """A rows x cols product of random rows x r and r x cols factors, r < both,
    with one random column zeroed, built with scalar arithmetic."""
    r = rng.randrange(min(rows, cols))
    A = [[rng.randrange(f.q) for _ in range(r)] for _ in range(rows)]
    B = [[rng.randrange(f.q) for _ in range(cols)] for _ in range(r)]
    M = [[0] * cols for _ in range(rows)]
    for i, j in itertools.product(range(rows), range(cols)):
        for t in range(r):
            M[i][j] = f.add(M[i][j], f.mul(A[i][t], B[t][j]))
    dead = rng.randrange(cols)
    for row in M:
        row[dead] = 0
    return np.array(M, dtype=np.int64)


@pytest.mark.parametrize("p,e", FIELD_CHOICES + [(1021, 1), (2, 11), (2, 16)])
def test_elimination_matches_scalar_gauss_jordan(p, e):
    f = K.field_create(p, e)
    rng = random.Random(p * 100 + e)
    for _ in range(6):
        rows, cols = rng.randint(2, 9), rng.randint(2, 12)
        M = random_low_rank(f, rng, rows, cols)
        ref, ref_pivots = reference_rref(f, M)
        R, pivots = linalg.rref(f, M)
        assert pivots == ref_pivots
        assert R.tolist() == ref
        assert linalg.rank(f, M) == len(ref_pivots)
        assert linalg.row_space_basis(f, M).tolist() == ref[: len(ref_pivots)]
        free = [c for c in range(cols) if c not in ref_pivots]
        ns = linalg.null_space(f, M)
        assert ns.shape == (len(free), cols)
        for v, fc in zip(ns.tolist(), free):
            expect = [0] * cols
            expect[fc] = 1
            for i, pc in enumerate(ref_pivots):
                expect[pc] = f.mul(f.p - 1, ref[i][fc])
            assert v == expect
            for row in M.tolist():
                acc = 0
                for a, b in zip(row, v):
                    acc = f.add(acc, f.mul(a, b))
                assert acc == 0


@pytest.mark.parametrize("p,e", FIELD_CHOICES + [(1021, 1), (2, 11), (2, 16)])
def test_matmul_matches_scalar_triple_loop(p, e):
    f = K.field_create(p, e)
    rng = random.Random(p * 31 + e)
    for _ in range(6):
        n, k, cols = rng.randint(0, 7), rng.randint(1, 6), rng.randint(1, 9)
        # about a third zeros
        A = [[rng.choice([0, rng.randrange(f.q)]) for _ in range(k)] for _ in range(n)]
        B = [[rng.randrange(f.q) for _ in range(cols)] for _ in range(k)]
        want = [[0] * cols for _ in range(n)]
        for i, j, t in itertools.product(range(n), range(cols), range(k)):
            want[i][j] = f.add(want[i][j], f.mul(A[i][t], B[t][j]))
        got = linalg.matmul(f, np.array(A, dtype=np.int64).reshape(n, k),
                            np.array(B, dtype=np.int64))
        assert got.shape == (n, cols)
        assert got.tolist() == want


def test_rank_identity_and_zero(gf9):
    ident = K.Matrix(gf9, np.eye(5, dtype=np.int64))
    assert fiber_block_rank(K.LinearCode(ident, 5, 5)) == 5
    zero = K.Matrix(gf9, np.zeros((4, 7), dtype=np.int64))
    assert fiber_block_rank(K.LinearCode(zero, 7, 4)) == 0


def test_rank_idempotent_under_elimination(gf9):
    rng = np.random.default_rng(3)
    M = rng.integers(0, 9, size=(50, 80))
    r1 = linalg.rank(gf9, M)
    R, pivots = linalg.rref(gf9, M)
    assert len(pivots) == r1
    assert linalg.rank(gf9, R) == r1


def test_null_space(gf9):
    rng = np.random.default_rng(5)
    M = rng.integers(0, 9, size=(6, 10))
    ns = linalg.null_space(gf9, M)
    assert ns.shape[0] == 10 - linalg.rank(gf9, M)
    for row in ns:
        out = np.zeros(6, dtype=np.int64)
        for j, v in enumerate(row.tolist()):
            if v:
                out = gf9.vadd(out, gf9.vmul(np.full(6, v, dtype=np.int64), M[:, j]))
        assert not out.any()


def test_matrix_shape_errors(gf9, gf4):
    a = K.Matrix(gf9, np.zeros((2, 3), dtype=np.int64))
    b = K.Matrix(gf9, np.zeros((2, 4), dtype=np.int64))
    c = K.Matrix(gf4, np.zeros((2, 3), dtype=np.int64))
    a, b, c = (K.LinearCode(mat, mat.cols, mat.rows) for mat in (a, b, c))
    with pytest.raises(ShapeMismatchError):
        fiber_block_rank(a, b)
    with pytest.raises(FieldMismatchError):
        fiber_block_rank(a, c)


def test_divisor_gcd_lmd(h3):
    q1, q2, q3 = (h3.root_place(k) for k in range(3))
    A = K.Divisor.of((q1, 1), (q2, 2))
    B = K.Divisor.of((q2, 3), (q3, -1))
    assert K.divisor_gcd(A, A) == A
    assert K.divisor_gcd(A, B) == K.Divisor.of((q2, 2), (q3, -1))
    assert K.divisor_lmd(A, B) == K.Divisor.of((q1, 1), (q2, 3))
    rng = random.Random(9)
    places = h3.totally_ramified_places()
    for _ in range(100):
        A = K.Divisor((p, rng.randint(-5, 5)) for p in places)
        B = K.Divisor((p, rng.randint(-5, 5)) for p in places)
        assert K.divisor_gcd(A, B) + K.divisor_lmd(A, B) == A + B


def eval_places(curve):
    return [p for _, fiber in curve.split_fibers() for p in fiber]


def test_ag_code_24_4(h3):
    places = eval_places(h3)
    G = K.Divisor.of((K.Place.infinity(), 6))
    code = K.ag_code(h3, places, G)
    assert (code.N, code.k) == (24, 4)
    d = K.min_distance(code)
    assert d.exact
    assert 18 <= d.value <= code.N - code.k + 1  # designed bound and Singleton


def test_ag_code_zero_dimension(h3):
    places = eval_places(h3)
    code = K.ag_code(h3, places, K.Divisor.of((K.Place.infinity(), -1)))
    assert code.k == 0
    assert math.isinf(K.min_distance(code).value)


def test_ag_code_constants(h3):
    places = eval_places(h3)
    code = K.ag_code(h3, places, K.Divisor.zero())
    assert code.k == 1
    assert K.min_distance(code).value == code.N


def test_ag_code_support_overlap(h3):
    places = eval_places(h3)
    G = K.Divisor.of((places[0], 1))
    with pytest.raises(SupportOverlapError):
        K.ag_code(h3, places, G)


def test_dimension_identity_when_deg_exceeds_length(h3):
    # deg G = 26 >= N = 24: k = l(G) - l(G - D), computed via the reduction
    # G - D ~ (deg G - N) Qinf
    places = eval_places(h3)
    G = K.Divisor.of((K.Place.infinity(), 26))
    code = K.ag_code(h3, places, G)
    ell_g = K.dim_by_decomposition(h3, G)
    reduced = G - K.Divisor.of((K.Place.infinity(), 24))
    ell_g_minus_d = K.dim_by_decomposition(h3, reduced)
    assert ell_g == 24 and ell_g_minus_d == 1
    assert code.k == ell_g - ell_g_minus_d == 23
    assert code.generator.rows == code.k  # generator reduced to a row basis


def test_goppa_bound_random_codewords(h3):
    rng = np.random.default_rng(42)
    places = eval_places(h3)
    for deg in (5, 6, 7, 9, 12):
        G = K.Divisor.of((K.Place.infinity(), deg))
        code = K.ag_code(h3, places, G)
        msgs = rng.integers(0, 9, size=(200, code.k))
        words = encode_messages(code, msgs)
        weights = np.count_nonzero(words, axis=1)
        nonzero = np.any(msgs != 0, axis=1)
        assert np.all(weights[nonzero] >= code.N - deg)
        assert code.k == deg + 1 - h3.genus()


@pytest.mark.parametrize("messages", [
    [[1, 2]],  # narrower than k = 3
    [[1, 2, 0, 1]],  # wider than k
    [1, 2, 0],  # not a matrix
    [[[1, 2, 0]]],
], ids=["narrow", "wide", "1d", "3d"])
def test_encode_messages_rejects_shapes(h3, messages):
    code = K.ag_code(h3, eval_places(h3), K.Divisor.of((K.Place.infinity(), 5)))
    assert code.k == 3
    with pytest.raises(ShapeMismatchError):
        encode_messages(code, np.array(messages))


@pytest.mark.parametrize("value", [-1, 9, 100])
def test_encode_messages_rejects_entries_outside_field(h3, value):
    code = K.ag_code(h3, eval_places(h3), K.Divisor.of((K.Place.infinity(), 5)))
    with pytest.raises(ElementOutOfRangeError):
        encode_messages(code, np.array([[value, 0, 1]]))


@pytest.mark.parametrize("messages", [
    [[1.5, 2.9, 0]],
    [[1.0, 2.0, 0.0]],
    [[True, False, True]],
    [["1", "2", "0"]],
], ids=["float", "whole-float", "bool", "str"])
def test_encode_messages_reads_integers_only(h3, messages):
    code = K.ag_code(h3, eval_places(h3), K.Divisor.of((K.Place.infinity(), 5)))
    with pytest.raises(TypeError):
        encode_messages(code, messages)


def reference_min_distance(code):
    """Minimum weight over every nonzero message, with scalar field arithmetic."""
    f, gen = code.field, code.generator.data.tolist()
    best = code.N
    for msg in itertools.product(range(f.q), repeat=code.k):
        if any(msg):
            word = [0] * code.N
            for coef, row in zip(msg, gen):
                word = [f.add(w, f.mul(coef, g)) for w, g in zip(word, row)]
            best = min(best, sum(1 for w in word if w))
    return best


def test_min_distance_matches_enumeration_h3(h3):
    codes = [K.ag_code(h3, eval_places(h3), K.Divisor.of((K.Place.infinity(), 6)))]
    for construction, s in [("1", 1), ("1", 7), ("R", 1), ("R", 6)]:
        result = K.build(h3, construction, s)
        codes.append(min(result.code_g, result.code_h, key=lambda c: c.k))
    assert [c.k for c in codes] == [4, 3, 3, 3, 3]
    for code in codes:
        d = K.min_distance(code)
        assert d.exact and d.value == reference_min_distance(code)


def test_is_lcp_complement_and_self(gf9):
    ident = np.eye(6, dtype=np.int64)
    c1 = K.LinearCode(K.Matrix(gf9, ident[:4]), 6, 4)
    c2 = K.LinearCode(K.Matrix(gf9, ident[4:]), 6, 2)
    rep = K.is_lcp(c1, c2)
    assert rep.verdict and rep.rank_of_stack == 6
    rep2 = K.is_lcp(c1, c1)
    assert not rep2.verdict


def test_derived_facts_are_read_off_their_sources(gf4, h3_pole_shift):
    fields = {cls: [f.name for f in dataclasses.fields(cls)]
              for cls in (K.LinearCode, LcpReport, K.QTuple, CharacterBlocks)}
    assert fields == {K.LinearCode: ["generator", "N", "k", "curve", "G"],
                      LcpReport: ["k1", "k2", "N", "rank_of_stack", "conditions"],
                      K.QTuple: ["curve", "places"],
                      CharacterBlocks: ["places", "parts", "fibers", "lone", "drops",
                                        "drop_rank"]}
    # a code is over its generator's field: [[1, 2], [2, 3]] has rank 1 over
    # GF(4) (row 2 is 2 times row 1), and is stored as GF(4)
    code = K.LinearCode(K.Matrix(gf4, [[1, 2], [2, 3]]), 2, 2)
    assert code.field is code.generator.field is gf4
    assert fiber_block_rank(code) == 1
    assert code.to_json()["field"] == gf4.to_json()
    for c in (h3_pole_shift.code_g, h3_pole_shift.code_h):
        assert c.field is c.generator.field
        assert c.generator.blocks.m == len(c.generator.blocks.parts) == 4
    # the verdict is read off the ranks
    for report, verdict in ((LcpReport(15, 9, 24, 20), "NOT_LCP"),
                            (LcpReport(15, 8, 24, 24), "NOT_LCP"),
                            (LcpReport(15, 9, 24, 24), "LCP")):
        assert report.verdict == (verdict == "LCP")
        assert report.to_json()["verdict"] == verdict


def test_is_lcp_row_operation_invariance(h3):
    places = eval_places(h3)
    E = K.Divisor.of((K.Place.infinity(), -1), (h3.root_place(1), 1), (h3.root_place(2), 2))
    res = K.lcp_pole_shift(h3, E, 3)
    gen = res.code_g.generator.data.copy()
    rng = np.random.default_rng(0)
    f = h3.field
    # scale each row by a random nonzero constant and add one row to another
    for i in range(gen.shape[0]):
        gen[i] = f.vmul(gen[i], int(rng.integers(1, 9)))
    gen[0] = f.vadd(gen[0], gen[1])
    scrambled = K.LinearCode(K.Matrix(f, gen), res.code_g.N, res.code_g.k)
    rep = K.is_lcp(scrambled, res.code_h)
    assert rep.verdict == res.report.verdict


def test_verify_conditions_pass_and_fail(h3):
    E = K.Divisor.of((K.Place.infinity(), -1), (h3.root_place(1), 1), (h3.root_place(2), 2))
    res = K.lcp_pole_shift(h3, E, 3)
    report = K.verify_lcp_conditions(h3, res.d_places, res.G, res.H, res.certificates)
    assert report.passed
    # perturbing H by +1 at a root breaks the degree-sum condition
    H_bad = res.H + K.Divisor.of((h3.root_place(0), 1))
    bad = K.verify_lcp_conditions(h3, res.d_places, res.G, H_bad, res.certificates)
    assert not bad.passed
    names_failed = [c.name for c in bad.checks if not c.passed]
    assert "degree sum" in names_failed
    # moving gcd weight breaks the gcd-degree condition
    G_shift = res.G + K.Divisor.of((h3.root_place(1), 1)) - K.Divisor.of((K.Place.infinity(), 1))
    bad2 = K.verify_lcp_conditions(h3, res.d_places, G_shift, res.H, res.certificates)
    assert not bad2.passed
    assert any("gcd" in c.name for c in bad2.checks if not c.passed)


def test_verify_conditions_bad_certificate(h3):
    E = K.Divisor.of((K.Place.infinity(), -1), (h3.root_place(1), 1), (h3.root_place(2), 2))
    res = K.lcp_pole_shift(h3, E, 3)
    b0 = h3.split_x_values()[0]
    # subtracting a fiber twice more leaves coefficient -2 at its places
    over = list(res.certificates) + [CertStep("x-b", b0, 2)]
    with pytest.raises(CertificateInvalidError):
        K.verify_lcp_conditions(h3, res.d_places, res.G, res.H, over)
    # one fiber added back leaves positive affine coefficients
    under = list(res.certificates) + [CertStep("x-b", b0, -1)]
    with pytest.raises(CertificateInvalidError):
        K.verify_lcp_conditions(h3, res.d_places, res.G, res.H, under)


def folded_chain(curve, certificates):
    """The certificate chain's divisor as a fold of Divisor additions."""
    total = K.Divisor.zero()
    for step in certificates:
        args = ("y",) if step.kind == "y" else ("x-b", step.b)
        total = total + step.mult * curve.principal_divisor(*args)
    return total


def terms_chain(curve, certificates):
    """The certificate chain's divisor as one Divisor read from every sorted
    term of its principal divisors."""
    terms = []
    for step in certificates:
        args = ("y",) if step.kind == "y" else ("x-b", step.b)
        terms.extend((place, step.mult * c) for place, c in curve.principal_divisor(*args).items())
    return K.Divisor(terms)


def test_chain_divisor_equals_fold(h3, z_curve, h3_constructions):
    # Divisor equality compares the coefficient dicts, so a zero coefficient
    # left in the sum would also fail it
    for res in h3_constructions:
        div = _chain_divisor(h3, res.certificates)
        assert div == folded_chain(h3, res.certificates) == terms_chain(h3, res.certificates)
    # construction 1's chain on every split fiber of the Z-curve at s = 77
    chain = [CertStep("y", None, 77)] + [CertStep("x-b", x0, -1)
                                         for x0 in z_curve.split_x_values()]
    assert len(chain) == 289
    div = _chain_divisor(z_curve, chain)
    assert div == folded_chain(z_curve, chain) == terms_chain(z_curve, chain)
    assert div.degree() == 0
    # chains that cancel, to zero and in part, on the Z-curve and on H3
    for curve in (z_curve, h3):
        x0 = curve.split_x_values()[0]
        steps = [CertStep("y", None, 3), CertStep("x-b", x0, 2), CertStep("x-b", curve.roots[0][0], 1)]
        back = [CertStep(s.kind, s.b, -s.mult) for s in reversed(steps)]
        div = _chain_divisor(curve, steps + back)
        assert not div and div == terms_chain(curve, steps + back) == K.Divisor.zero()
        # all but the root's step cancel
        div = _chain_divisor(curve, steps + back[1:])
        assert div == terms_chain(curve, steps + back[1:])
        assert div == curve.principal_divisor("x-b", curve.roots[0][0])
    with pytest.raises(CertificateInvalidError):
        _chain_divisor(z_curve, chain[:3] + [CertStep("z", None, 1)])


def test_chain_divisor_reads_fibers_off_d(monkeypatch, h3, h3_constructions):
    # with D given, a step over m places of D builds no principal divisor
    built = []
    principal = K.KummerCurve.principal_divisor

    def counted(curve, kind, b=None):
        built.append(kind)
        return principal(curve, kind, b)

    monkeypatch.setattr(K.KummerCurve, "principal_divisor", counted)
    for res in h3_constructions:
        built.clear()
        div = _chain_divisor(h3, res.certificates, res.d_places)
        assert built == ["y"]
        assert div == _chain_divisor(h3, res.certificates) == terms_chain(h3, res.certificates)
    # certificate steps read as from a file whose b carries fewer than m
    # places of D: the first fiber of construction R (only R_2 is in D), a
    # root of f, and a split fiber taken out of D
    res = next(r for r in h3_constructions if r.construction == "R")
    first_x = res.d_places[0].x
    outside = res.certificates[-1].b
    d_places = [p for p in res.d_places if p.x != outside]
    steps = [CertStep.from_json(c) for c in (
        {"gen": "x-b", "b": first_x, "mult": 2},
        {"gen": "x-b", "b": h3.roots[1][0], "mult": -1},
        {"gen": "x-b", "b": outside, "mult": -3},
        {"gen": "y", "b": None, "mult": 1},
    )]
    certificates = list(res.certificates) + steps
    built.clear()
    div = _chain_divisor(h3, certificates, d_places)
    assert built == ["y", "x-b", "x-b", "x-b", "x-b", "y"]
    assert div == terms_chain(h3, certificates) == _chain_divisor(h3, certificates)


def test_verifier_checks_no_residual_drop_again(monkeypatch, h3_punctured):
    # gcd(G, H) of construction R drops R_1, which verify_lcp_conditions has
    # checked as an affine place of H; only the public dimension checks it again
    res = h3_punctured
    checked = []
    check = rrspace.check_curve_points

    def counted(curve, places):
        checked.append(list(places))
        return check(curve, places)

    monkeypatch.setattr(rrspace, "check_curve_points", counted)
    report = K.verify_lcp_conditions(res.curve, res.d_places, res.G, res.H, res.certificates)
    assert report.passed and checked == []
    W = K.divisor_gcd(res.G, res.H)
    r1 = [p for p in W.support() if p.kind == "aff"]
    assert len(r1) == 1
    assert rrspace.dim_with_simple_affine_drops(res.curve, W) == 0
    assert checked == [r1]


def test_a_pair_checks_each_place_once(monkeypatch, tmp_path, capsys, h3):
    # the pair pass checks D, and the drop R_1 of construction R, once: in
    # verify_lcp_conditions, and not again where the codes are evaluated
    checked = collections.Counter()

    def counting(check):
        def counted(curve, places):
            checked.update(places)
            return check(curve, places)
        return counted

    for module in (K.codes, rrspace):
        monkeypatch.setattr(module, "check_curve_points", counting(module.check_curve_points))
    E = K.Divisor.of((K.Place.infinity(), -1), (h3.root_place(1), 1), (h3.root_place(2), 2))
    res = K.lcp_pole_shift(h3, E, 3)
    assert checked == collections.Counter(res.d_places)
    checked.clear()
    path = tmp_path / "result.json"
    path.write_text(json.dumps(res.to_json()))
    assert cli.main(["lcp-verify", "--result", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "LCP"
    assert checked == collections.Counter(res.d_places)
    checked.clear()
    E = K.Divisor.of((h3.root_place(1), 1), (h3.root_place(2), 2))
    res = K.lcp_punctured(h3, E, 3)
    r1 = next(p for p in res.H.support() if p.kind == "aff")
    assert checked == collections.Counter([*res.d_places, r1])


def test_verify_conditions_partial_chain_still_sound(h3):
    # dropping the fiber steps leaves -1 coefficients on all of D, which the
    # evaluation-functional route still decides correctly (just more slowly)
    E = K.Divisor.of((K.Place.infinity(), -1), (h3.root_place(1), 1), (h3.root_place(2), 2))
    res = K.lcp_pole_shift(h3, E, 3)
    report = K.verify_lcp_conditions(h3, res.d_places, res.G, res.H, res.certificates[:1])
    assert report.passed


@pytest.fixture(scope="module")
def partial_curve():
    """y^6 = x^3 (x-1)^2 (x-2) over GF(7): g = 1, infinity is not a rational
    place, and root:2 is the one totally ramified place."""
    curve = K.curve_create(K.field_create(7, 1), 6, 1, [(0, 3), (1, 2), (2, 1)])
    assert (curve.genus(), curve.totally_ramified_places()) == (1, [curve.root_place(2)])
    return curve


def test_condition_report_on_unsupported_support(partial_curve):
    # W has degree g - 1 = 0, but its dimension cannot be taken at infinity
    W = K.Divisor.of((K.Place.infinity(), 1), (partial_curve.root_place(2), -1))
    report = ConditionReport()
    _nonspecial_gminus1_report(partial_curve, W, report, "W")
    assert [c.to_json() for c in report.checks] == [
        {"name": "W degree", "passed": True, "detail": "deg = 0, g-1 = 0"},
        {"name": "W nonspecial", "passed": False,
         "detail": "unsupported support: infinity is not a rational place here"},
    ]


def test_condition_report_without_a_covering_tuple(partial_curve):
    # one totally ramified place makes no tuple, so the dimension decides
    # alone and no criterion row is recorded
    report = ConditionReport()
    _nonspecial_gminus1_report(partial_curve, K.Divisor([]), report, "W")
    assert [c.to_json() for c in report.checks] == [
        {"name": "W degree", "passed": True, "detail": "deg = 0, g-1 = 0"},
        {"name": "W nonspecial", "passed": False, "detail": "dim = 1"},
    ]


def test_min_distance_designed_bound(tmp_path, capsys, h3_pole_shift):
    # 9^15 codewords are more than min_distance exhausts: it gives the bound
    # N - deg G, and a stored code, which has no G, the bound 1
    code = h3_pole_shift.code_g
    assert (code.N, code.k, code.G.degree()) == (24, 15, 17)
    assert K.min_distance(code) == K.MinDistance(7, False)
    path = tmp_path / "code.json"
    path.write_text(json.dumps(code.to_json()))
    assert cli.main(["code-info", "--code", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["min_distance"] == {"value": 1, "exact": False}


def test_k_equals_rank_in_window_random(h3):
    rng = random.Random(8)
    places = eval_places(h3)
    g = h3.genus()
    ram = h3.totally_ramified_places()
    seen = 0
    while seen < 25:
        D = K.Divisor((p, rng.randint(-2, 8)) for p in ram)
        deg = D.degree()
        if not 2 * g - 2 < deg < len(places):
            continue
        code = K.ag_code(h3, places, D)
        assert code.k == deg + 1 - g == linalg.rank(h3.field, code.generator.data)
        seen += 1


def test_code_serialization(h3):
    places = eval_places(h3)
    code = K.ag_code(h3, places, K.Divisor.of((K.Place.infinity(), 6)))
    obj = code.to_json()
    assert obj["N"] == 24 and obj["k"] == 4
    assert len(obj["generator"]) == 4 and len(obj["generator"][0]) == 24


# --- fiber-block ranks against dense elimination --------------------------------

def dense_rank(*codes):
    return linalg.rank(codes[0].field, np.vstack([c.generator.data for c in codes]))


def assert_ranks_agree(c1, c2, fast=(True, True)):
    """Ranks of c1, c2 and their stack by fiber blocks equal the dense ranks,
    and the fast path applies to each code exactly when expected."""
    for code, expect in zip((c1, c2), fast):
        assert (code.generator.blocks is not None) == expect
        assert fiber_block_rank(code) == dense_rank(code)
    assert fiber_block_rank(c1, c2) == dense_rank(c1, c2)


@pytest.fixture(scope="module")
def h3_constructions(h3):
    """All 18 H3 constructions: 1 at s = 1..7, 2 at s = 3..7, R at s = 1..6."""
    E = K.Divisor.of((K.Place.infinity(), -1), (h3.root_place(1), 1), (h3.root_place(2), 2))
    Q = [h3.root_place(k) for k in range(3)]
    E1 = K.Divisor.of((Q[0], -3), (Q[1], 2), (Q[2], 3))
    E2 = K.Divisor.of((K.Place.infinity(), -3), (Q[0], 2), (Q[1], 3))
    Eg = K.Divisor.of((Q[1], 1), (Q[2], 2))
    return ([K.lcp_pole_shift(h3, E, s) for s in range(1, 8)]
            + [K.lcp_pair(h3, E1, E2, s) for s in range(3, 8)]
            + [K.lcp_punctured(h3, Eg, s) for s in range(1, 7)])


def assert_pair_ranks(res):
    """A construction's k1 and k2, which its stack's rank proves, are each
    code's own rank (assert_ranks_agree checks that against dense elimination)."""
    assert (res.code_g.k, res.code_h.k) == (res.report.k1, res.report.k2)
    assert (res.code_g.k, res.code_h.k) == (fiber_block_rank(res.code_g),
                                            fiber_block_rank(res.code_h))


def test_fiber_block_rank_all_h3_constructions(h3_constructions):
    for res in h3_constructions:
        assert_ranks_agree(res.code_g, res.code_h)
        assert_pair_ranks(res)
        assert res.report.rank_of_stack == (21 if res.construction == "R" else 24)
        if res.construction == "R":
            # R_2 is a border column of both codes; H's K H' is ranked from H'
            # and its one drop column at R_1
            g_blocks, h_blocks = res.code_g.generator.blocks, res.code_h.generator.blocks
            assert (g_blocks.lone, g_blocks.drops) == (1, 0)
            assert (h_blocks.lone, h_blocks.drops, h_blocks.drop_rank) == (1, 1, 1)


def random_branch_divisor(rng, curve):
    entries = [curve.branch_divisor_entry(k, rng.randint(-3, 6)) for k in range(len(curve.roots))]
    if curve.d_inf == 1:
        entries.append((K.Place.infinity(), rng.randint(-3, 12)))
    return K.Divisor(entries)


def test_fiber_block_rank_random_divisors(bundle_curve, gk2):
    rng = random.Random(62)
    curves = [bundle_curve, gk2] + [random_curve(rng) for _ in range(100)]
    checked = with_bundles = deficits = 0
    for curve in curves:
        fibers = curve.split_fibers()
        if not fibers:
            continue
        chosen = rng.sample(fibers, rng.randint(1, min(6, len(fibers))))
        places = [p for _, fiber in chosen for p in fiber]
        rng.shuffle(places)  # the columns need not come fiber by fiber
        c1, c2 = (_unranked_code(curve, places, random_branch_divisor(rng, curve))
                  for _ in range(2))
        assert_ranks_agree(c1, c2)
        checked += 1
        with_bundles += any(d > 1 for d in curve.root_gcds)
        deficits += fiber_block_rank(c1) < c1.generator.rows
    assert checked >= 40 and with_bundles >= 8 and deficits >= 5


def test_fiber_block_rank_random_constructions():
    rng = random.Random(61)
    built = {"1": 0, "2": 0}
    for _ in range(60):
        curve = random_curve(rng)
        if not curve.split_x_values():
            continue
        pair = None
        try:  # construction 2 needs E1 on the zeros and E2 on infinity and Q_1..Q_{n-1}
            E1 = lcp._default_gminus1(curve, zeros_only=True)
            tup = K.QTuple.of(curve, [K.Place.infinity()]
                              + [curve.root_place(k) for k in range(len(curve.roots) - 1)])
            fam = K.unit_multiplicity_family(curve, tup)
            if isinstance(fam, K.DivisorFamily):
                pair = E1, fam.canonical()
        except K.errors.KummerError:
            pass
        for s in range(1, 6):
            for construction in ("1", "2"):
                try:
                    if construction == "1":
                        res = lcp.build(curve, "1", s)
                    elif pair is not None:
                        res = lcp.lcp_pair(curve, *pair, s)
                    else:
                        continue
                except K.errors.KummerError:
                    continue
                assert_ranks_agree(res.code_g, res.code_h)
                assert_pair_ranks(res)
                built[construction] += 1
    assert built["1"] >= 20 and built["2"] >= 10


@pytest.fixture(scope="module")
def h3_pole_shift(h3):
    E = K.Divisor.of((K.Place.infinity(), -1), (h3.root_place(1), 1), (h3.root_place(2), 2))
    return K.lcp_pole_shift(h3, E, 3)


@pytest.fixture(scope="module")
def h3_punctured(h3):
    E = K.Divisor.of((h3.root_place(1), 1), (h3.root_place(2), 2))
    return K.lcp_punctured(h3, E, 3)


def variant(code, data):
    """A code on code's curve and divisor with the given generator, made by
    hand: it carries no character blocks."""
    return K.LinearCode(K.Matrix(code.field, data), code.N, len(data), code.curve, code.G)


def places_of(code):
    """The places an evaluation code's generator was split on."""
    return code.generator.blocks.places


def parts_of(code):
    """(H', row strata, Phi) of an evaluation code, from rrspace.evaluation_parts."""
    _, basis, phi, strata = rrspace.evaluation_parts(code.curve, code.G, places_of(code))
    return basis, strata, phi


def planted_code(monkeypatch, code, basis, strata, phi=None):
    """An evaluation code on code's curve, places and divisor whose H', row
    strata and Phi are the given arrays, its generator H' or, with drops,
    null_space(Phi^T) H' as in rrspace.evaluation_parts."""
    f = code.field
    rows = basis if phi is None else linalg.matmul(f, linalg.null_space(f, phi.T), basis)
    with monkeypatch.context() as patch:
        patch.setattr(rrspace, "evaluation_parts", lambda *args: (rows, basis, phi, strata))
        return _unranked_code(code.curve, places_of(code), code.G)


def test_fiber_block_rank_planted_deficits(monkeypatch, h3_pole_shift):
    code, other = h3_pole_shift.code_g, h3_pole_shift.code_h
    f, N = code.field, code.N
    basis, strata, _ = parts_of(code)
    assert np.array_equal(basis, code.generator.data)
    dup = planted_code(monkeypatch, code, np.vstack([basis, basis[2:3]]),
                       np.append(strata, strata[2]))
    assert_ranks_agree(dup, other)
    assert fiber_block_rank(dup) == code.k and fiber_block_rank(dup, other) == N
    # the last row of a stratum replaced by a combination of its first two
    i = next(i for i in range(code.curve.m) if np.count_nonzero(strata == i) >= 3)
    r0, last = np.flatnonzero(strata == i)[[0, -1]]
    dep = basis.copy()
    dep[last] = f.vadd(f.vmul(basis[r0], 2), basis[r0 + 1])
    dependent = planted_code(monkeypatch, code, dep, strata)
    assert_ranks_agree(dependent, other)
    assert fiber_block_rank(dependent) == code.k - 1
    assert fiber_block_rank(dependent, other) == N - 1


def test_fiber_block_rank_falls_back_to_dense(h3_pole_shift, h3_punctured):
    # a generator made by hand carries no strata, so its ranks are dense,
    # even when its rows are the evaluation code's own
    for res in (h3_pole_shift, h3_punctured):
        code, other = res.code_g, res.code_h
        f, rows = code.field, code.generator.data
        assert_ranks_agree(variant(code, rows), other, fast=(False, True))
        strata = parts_of(code)[1]
        mixed = rows.copy()
        mixed[0] = f.vadd(rows[0], rows[np.argmax(strata != strata[0])])
        assert_ranks_agree(variant(code, mixed), other, fast=(False, True))
    # the [I | 0] forgery
    forged = variant(code, np.eye(code.k, code.N, dtype=np.int64))
    assert forged.generator.blocks is None and fiber_block_rank(forged) == code.k
    # a generator replaced after the fact loses the blocks: K H' mixes strata
    rebuilt = _unranked_code(other.curve, places_of(other), other.G)
    assert rebuilt.generator.blocks is not None
    rebuilt.generator = K.Matrix(f, rebuilt.generator.data)
    assert rebuilt.generator.blocks is None and fiber_block_rank(rebuilt) == other.k



def count_block_ranks(monkeypatch) -> list:
    """The _bordered_rank calls made from now on, as the number of blocks in each."""
    calls = []

    def counted(field, splits):
        calls.append(len(splits))
        return _bordered_rank(field, splits)

    monkeypatch.setattr("kummerlcp.codes._bordered_rank", counted)
    return calls


def test_generator_data_is_read_only(h3):
    # a fresh build, so that a write which got through would reach no fixture
    E = K.Divisor.of((K.Place.infinity(), -1), (h3.root_place(1), 1), (h3.root_place(2), 2))
    res = K.lcp_pole_shift(h3, E, 3)
    g_code, h_code = res.code_g, res.code_h
    stored = cli._code_from_json(h3.field, g_code.to_json(), "code.json")
    for code in (K.ag_code(h3, res.d_places, res.G), g_code, stored):
        with pytest.raises(ValueError):
            code.generator.data[0, 0] = 1
    # zeroing G in place would leave its blocks ranking the old rows: LCP at
    # rank 24 against a dense rank of 9
    with pytest.raises(ValueError):
        g_code.generator.data[:] = 0
    report = K.is_lcp(g_code, h_code)
    assert report.verdict and report.rank_of_stack == dense_rank(g_code, h_code) == 24


def test_generator_data_cannot_be_made_writable(h3):
    # numpy lets a read-only view be made writable again while the array that
    # owns its data is writable; that owner is frozen for every generator
    # that carries blocks, the row bases of codes outside the window included
    E = K.Divisor.of((K.Place.infinity(), -1), (h3.root_place(1), 1), (h3.root_place(2), 2))
    res = K.lcp_pole_shift(h3, E, 3)
    places = res.d_places
    wide = K.Divisor.of((K.Place.infinity(), 3 * len(places)))  # deg G > N
    row_basis = K.ag_code(h3, places, wide)
    assert row_basis.k == len(places) < len(rrspace.evaluation_rows(h3, wide, places))
    for code in (K.ag_code(h3, places, res.G), res.code_g, res.code_h, row_basis):
        assert code.generator.blocks is not None
        with pytest.raises(ValueError):
            code.generator.data.flags.writeable = True


def test_hand_built_code_keeps_the_block_path(monkeypatch, h3_pole_shift):
    # the blocks travel with the generator, so a LinearCode made by hand
    # around an evaluation generator, with no curve or divisor, is ranked by them
    code, other = h3_pole_shift.code_g, h3_pole_shift.code_h
    calls = count_block_ranks(monkeypatch)
    bare = K.LinearCode(code.generator, code.N, code.k)
    assert fiber_block_rank(bare) == dense_rank(bare) == code.k
    assert fiber_block_rank(bare, other) == dense_rank(bare, other) == code.N
    assert calls == [1, 2]


def test_blocks_on_reordered_places_take_the_dense_path(monkeypatch, h3, h3_pole_shift):
    # H's rows on G's places in reverse order: the blocks of the two codes
    # were split on different column orders, so they are not stacked (that
    # would give 24; the dense rank is 23), though each code's own are used
    code, other = h3_pole_shift.code_g, h3_pole_shift.code_h
    reordered = _unranked_code(h3, places_of(code)[::-1], other.G)
    assert set(reordered.generator.blocks.places) == set(code.generator.blocks.places)
    calls = count_block_ranks(monkeypatch)
    assert fiber_block_rank(code, reordered) == dense_rank(code, reordered) == 23
    assert calls == []
    assert fiber_block_rank(reordered) == dense_rank(reordered) == other.k
    assert calls == [1]


def test_replaced_matrix_has_no_blocks(h3_pole_shift):
    code = h3_pole_shift.code_g
    gen = code.generator
    assert gen.blocks is not None
    for matrix in (dataclasses.replace(gen, data=gen.data[::-1]), dataclasses.replace(gen),
                   K.Matrix(gen.field, gen.data)):
        assert matrix.blocks is None and not matrix.data.flags.writeable
        bare = K.LinearCode(matrix, code.N, code.k)
        assert fiber_block_rank(bare) == code.k
    with pytest.raises(ValueError):  # blocks is not an init field
        dataclasses.replace(gen, blocks=gen.blocks)


# --- bordered blocks: lone points and affine drops ----------------------------------

def test_bordered_rank_partial_fibers(h3, h3_pole_shift):
    code, other = h3_pole_shift.code_g, h3_pole_shift.code_h
    # the last column dropped: five whole fibers and three lone points
    partial, partial_other = (_unranked_code(h3, places_of(code)[:-1], c.G) for c in (code, other))
    assert np.array_equal(partial.generator.data, code.generator.data[:, :-1])
    assert_ranks_agree(partial, partial_other)
    assert partial.generator.blocks.lone == 3
    # 2 + 4 + 2 points on three fibers: one whole fiber and four lone points
    fibers = [fiber for _, fiber in h3.split_fibers()]
    places = fibers[0][:2] + fibers[1] + fibers[2][2:]
    c1, c2 = (_unranked_code(h3, places, c.G) for c in (code, other))
    assert_ranks_agree(c1, c2)
    assert (c1.generator.blocks.fibers, c1.generator.blocks.lone) == (1, 4)
    # no whole fiber at all: every column is a border column
    lone_only = fibers[0][:2] + fibers[1][:3] + fibers[2][:1]
    c1, c2 = (_unranked_code(h3, lone_only, c.G) for c in (code, other))
    assert_ranks_agree(c1, c2)
    assert (c1.generator.blocks.fibers, c1.generator.blocks.lone) == (0, 6)


def test_bordered_rank_planted_deficits(monkeypatch, h3_punctured):
    res = h3_punctured
    g_code, h_code = res.code_g, res.code_h
    f, N, k1, k2 = g_code.field, g_code.N, g_code.k, h_code.k
    assert places_of(g_code)[0] == res.d_places[0]  # column 0 is R_2, the border column
    G, g_strata, _ = parts_of(g_code)
    basis, strata, phi = parts_of(h_code)
    assert phi.shape[1] == 1  # H drops R_1

    def plant(g_rows, h_basis, h_phi, g_labels=g_strata, h_labels=strata):
        """The planted G and H, their ranks checked against dense elimination."""
        c1 = planted_code(monkeypatch, g_code, g_rows, g_labels)
        c2 = planted_code(monkeypatch, h_code, h_basis, h_labels, h_phi)
        assert_ranks_agree(c1, c2)
        return c1, c2

    # unplanted: H' and Phi as _unranked_code builds them
    c1, c2 = plant(G, basis, phi)
    assert (c1.generator, c2.generator) == (g_code.generator, h_code.generator)
    assert fiber_block_rank(c1, c2) == N
    # a zero border column in both codes: the square stack loses one rank
    zero_g, zero_b = G.copy(), basis.copy()
    zero_g[:, 0] = zero_b[:, 0] = 0
    assert fiber_block_rank(*plant(zero_g, zero_b, phi)) == N - 1
    # the border column a copy of fiber column 5 in both codes
    copy_g, copy_b = G.copy(), basis.copy()
    copy_g[:, 0], copy_b[:, 0] = G[:, 5], basis[:, 5]
    assert fiber_block_rank(*plant(copy_g, copy_b, phi)) == N - 1
    # a duplicated row of G, and of H' with its Phi row: the row spaces stay
    c1, c2 = plant(np.vstack([G, G[1:2]]), np.vstack([basis, basis[2:3]]),
                   np.vstack([phi, phi[2:3]]), np.append(g_strata, g_strata[1]),
                   np.append(strata, strata[2]))
    assert (fiber_block_rank(c1), fiber_block_rank(c2), fiber_block_rank(c1, c2)) == (k1, k2, N)
    assert c2.generator.rows == k2 + 1
    # two drop columns, the second twice the first: rank(Phi) = 1, K unchanged
    c1, c2 = plant(G, basis, np.hstack([phi, f.vmul(phi, 2)]))
    assert (c2.generator.blocks.drops, c2.generator.blocks.drop_rank) == (2, 1)
    assert (fiber_block_rank(c2), fiber_block_rank(c1, c2)) == (k2, N)


@pytest.fixture(scope="module")
def hyperelliptic():
    """y^2 = x (x-1) (x-2) (x-3) (x-4) over GF(11): genus 2, and L(4 Q_inf) is
    spanned by 1, x, x^2, functions of x alone."""
    F = K.field_create(11, 1)
    return K.curve_create(F, 2, 1, [(a, 1) for a in range(5)])


def test_bordered_rank_dependent_drop_columns(hyperelliptic):
    curve = hyperelliptic
    fibers = [fiber for _, fiber in curve.split_fibers()]
    inf = K.Place.infinity()
    # both points of one fiber dropped: the two Phi columns are equal
    H = K.Divisor.of((inf, 4), (fibers[0][0], -1), (fibers[0][1], -1))
    assert rrspace.dim_with_simple_affine_drops(curve, H) == 2
    places = [p for fiber in fibers[1:] for p in fiber]
    code = _unranked_code(curve, places, H)
    blocks = code.generator.blocks
    assert (blocks.drops, blocks.drop_rank, blocks.lone) == (2, 1, 0)
    assert fiber_block_rank(code) == dense_rank(code) == 2
    G = K.Divisor.of((inf, len(places) - 1))
    other = _unranked_code(curve, places, G)
    assert_ranks_agree(other, code)
    # one lone point from a further fiber, and drops from two more fibers
    lone = fibers[1][0]
    places = [p for fiber in fibers[2:] for p in fiber] + [lone]
    H2 = K.Divisor.of((inf, 4), (fibers[0][0], -1), (fibers[0][1], -1), (fibers[1][1], -1))
    c1, c2 = _unranked_code(curve, places, G), _unranked_code(curve, places, H2)
    assert_ranks_agree(c1, c2)
    blocks = c2.generator.blocks
    assert (blocks.drops, blocks.drop_rank, blocks.lone, fiber_block_rank(c2)) == (3, 2, 1, 1)


def test_bordered_rank_no_whole_fiber(hyperelliptic):
    # one point of each fiber: every column is a border column, and the
    # blocks are eliminated and their residuals ranked as for any other split
    curve = hyperelliptic
    fibers = [fiber for _, fiber in curve.split_fibers()]
    inf = K.Place.infinity()
    places = [fiber[0] for fiber in fibers[1:]]
    G = K.Divisor.of((inf, 3))
    H = K.Divisor.of((inf, 4), (fibers[0][0], -1), (fibers[0][1], -1))
    c1, c2 = _unranked_code(curve, places, G), _unranked_code(curve, places, H)
    assert_ranks_agree(c1, c2)
    assert [(c.generator.blocks.fibers, c.generator.blocks.lone, c.generator.blocks.drops)
            for c in (c1, c2)] == [(0, len(places), 0), (0, len(places), 2)]
    assert (fiber_block_rank(c1), fiber_block_rank(c2)) == (2, 2)


def test_bordered_rank_gf1021_construction_r():
    F = K.field_create(1021, 1)
    curve = K.curve_create(F, 4, 1, [(1, 1), (2, 1), (3, 1)])
    E = K.Divisor.of((curve.root_place(1), 1), (curve.root_place(2), 2))
    xs = curve.split_x_values()
    for fibers in (48, 144):
        N = 4 * fibers - 3
        s = (N - 3) // 6  # the middle of (g-1)/n < s < (N-m-g+2)/n, n = 3
        res = K.lcp_punctured(curve, E, s, xs[:fibers])
        assert_ranks_agree(res.code_g, res.code_h)
        assert_pair_ranks(res)
        assert res.report.rank_of_stack == N == res.code_g.k + res.code_h.k


def test_bordered_rank_random_lone_points_and_drops(bundle_curve, gk2):
    rng = random.Random(63)
    curves = [bundle_curve, gk2] + [random_curve(rng) for _ in range(120)]
    checked = lone_seen = deficits = dependent = 0
    for curve in curves:
        fibers = [fiber for _, fiber in curve.split_fibers()]
        if len(fibers) < 2:
            continue
        rng.shuffle(fibers)
        whole = [p for fiber in fibers[:rng.randint(1, min(5, len(fibers) - 1))]
                 for p in fiber]
        off = [p for p in curve.rational_places() if p.kind == "aff" and p not in whole]
        n_lone = rng.randint(1, 2)
        if len(off) < n_lone + 3:
            continue
        rng.shuffle(off)
        places, pool = whole + off[:n_lone], off[n_lone:]
        rng.shuffle(places)

        def with_drops():
            drops = rng.sample(pool, rng.randint(1, 3))
            return random_branch_divisor(rng, curve) - K.Divisor((p, 1) for p in drops)

        c1, c2 = (_unranked_code(curve, places, with_drops()) for _ in range(2))
        assert_ranks_agree(c1, c2)
        b1, b2 = c1.generator.blocks, c2.generator.blocks
        assert b1.drops >= 1 and b2.drops >= 1
        checked += 1
        lone_seen += b1.lone >= 1
        deficits += fiber_block_rank(c1) < c1.generator.rows
        dependent += b1.drop_rank < b1.drops
    assert checked >= 40 and lone_seen >= 40 and deficits >= 5 and dependent >= 4


def test_bordered_rank_outside_window(bundle_curve, gk2):
    # deg G >= N: ag_code replaces the evaluation rows by a row basis, and
    # the character blocks stay bound to it because the row space is the same
    rng = random.Random(64)
    curves = [bundle_curve, gk2] + [random_curve(rng) for _ in range(120)]
    checked = with_drops = 0
    for curve in curves:
        fibers = [fiber for _, fiber in curve.split_fibers()]
        if len(fibers) < 2 or curve.d_inf != 1:
            continue
        rng.shuffle(fibers)
        places = [p for fiber in fibers[1:rng.randint(2, min(6, len(fibers)))] for p in fiber]
        places += fibers[0][:rng.randint(0, 2)]  # lone points
        drops = rng.sample(fibers[0][2:], rng.randint(0, min(2, len(fibers[0]) - 2)))
        G = random_branch_divisor(rng, curve) - K.Divisor((p, 1) for p in drops)
        g = curve.genus()
        excess = len(places) - G.degree() + rng.randint(2 * g - 1, 2 * g + 4)
        G = G + K.Divisor.of((K.Place.infinity(), excess))
        c1 = K.ag_code(curve, places, G)
        c2 = K.ag_code(curve, places, random_branch_divisor(rng, curve))
        assert G.degree() >= c1.N and c1.generator.rows == c1.k
        assert c1.k < len(rrspace.evaluation_rows(curve, G, places))
        assert_ranks_agree(c1, c2)
        checked += 1
        with_drops += bool(drops)
    assert checked >= 25 and with_drops >= 12


@pytest.mark.parametrize("place", ["aff:1:1", "aff:0:0", "aff:99:1", "aff:1:99"],
                         ids=["off-curve", "over-a-root", "x-outside-field", "y-outside-field"])
def test_evaluation_places_must_be_curve_points(h3, h3_pole_shift, place):
    res = h3_pole_shift
    D = list(res.d_places) + [K.parse_place(h3, place)]
    G = res.G + K.Divisor.of((K.Place.infinity(), 1))
    with pytest.raises(UnsupportedPlaceStructureError):
        K.ag_code(h3, D, G)
    with pytest.raises(UnsupportedPlaceStructureError):
        K.verify_lcp_conditions(h3, D, G, res.H, res.certificates)


@pytest.mark.parametrize("place", ["aff:1:1", "aff:0:0", "aff:99:1"],
                         ids=["off-curve", "over-a-root", "x-outside-field"])
def test_dropped_places_must_be_curve_points(h3, h3_punctured, place):
    res = h3_punctured
    r1 = next(p for p in res.H.support() if p.kind == "aff")
    H = res.H + K.Divisor.of((r1, 1), (K.parse_place(h3, place), -1))
    with pytest.raises(UnsupportedPlaceStructureError):
        K.ag_code(h3, res.d_places, H)
    with pytest.raises(UnsupportedPlaceStructureError):
        K.verify_lcp_conditions(h3, res.d_places, res.G, H, res.certificates)


# --- one rank per pair: the stack's rank proves both dimensions -------------------

def test_code_pair_takes_the_stack_rank_only(monkeypatch, h3_pole_shift, h3_punctured):
    for res in (h3_pole_shift, h3_punctured):
        calls = count_code_ranks(monkeypatch)
        c1, c2, report = _code_pair(res.curve, res.d_places, res.G, res.H, res.certificates)
        assert calls == [2]
        N = res.code_g.N
        # is_lcp's report has no conditions; the pair's carries them
        assert dataclasses.replace(report, conditions=None) == K.is_lcp(res.code_g, res.code_h) == LcpReport(
            res.code_g.k, res.code_h.k, N, N)
        assert report.verdict
        assert report.conditions == res.report.conditions and report.conditions.passed
        assert (c1.generator, c2.generator) == (res.code_g.generator, res.code_h.generator)
        assert (c1.k, c2.k) == (dense_rank(c1), dense_rank(c2))


def test_code_pair_lemma_below_full_length(monkeypatch, h3_pole_shift):
    # H - Q_inf loses one dimension, and C(D, H - Q_inf) lies in C(D, H), so
    # the stack has rank N - 1, its row count: the lemma gives both ranks
    # though the pair is no LCP, and no code is ranked on its own
    res = h3_pole_shift
    H = res.H - K.Divisor.of((K.Place.infinity(), 1))
    calls = count_code_ranks(monkeypatch)
    c1, c2, report = _code_pair(res.curve, res.d_places, res.G, H, res.certificates)
    assert calls == [2]
    monkeypatch.undo()
    N = res.code_g.N
    assert (report.k1, report.k2, report.rank_of_stack) == (res.code_g.k, res.code_h.k - 1, N - 1)
    assert not report.verdict and not report.conditions.passed
    assert (c1.k, c2.k) == (dense_rank(c1), dense_rank(c2))
    assert dense_rank(c1, c2) == N - 1
    assert c2.generator == K.ag_code(res.curve, res.d_places, H).generator


def test_code_pair_failure_path_ranks_each_code(monkeypatch, h3):
    # 24 Q_inf ~ D on all six fibers, so L(24 Q_inf) has 22 rows of rank 21
    # at D, and L(3 Q_inf) lies inside it: 22 + 2 rows, a stack of rank 21.
    # Both degrees are outside the window, so no dimension check raises
    D = [p for _, fiber in h3.split_fibers() for p in fiber]
    inf = K.Place.infinity()
    G, H = K.Divisor.of((inf, 24)), K.Divisor.of((inf, 3))
    assert (rrspace.dim_by_decomposition(h3, G), rrspace.dim_by_decomposition(h3, H)) == (22, 2)
    calls = count_code_ranks(monkeypatch)
    c1, c2, report = _code_pair(h3, D, G, H, [])
    assert calls == [2, 1, 1]
    monkeypatch.undo()
    assert (report.k1, report.k2, report.rank_of_stack, report.verdict) == (21, 2, 21, False)
    g_code, h_code = K.ag_code(h3, D, G), K.ag_code(h3, D, H)
    assert dataclasses.replace(report, conditions=None) == K.is_lcp(g_code, h_code)
    assert report.conditions == K.verify_lcp_conditions(h3, D, G, H, [])
    assert (c1.k, c2.k) == (dense_rank(c1), dense_rank(c2)) == (21, 2)
    assert (c1.generator, c2.generator) == (g_code.generator, h_code.generator)


def test_code_pair_failure_path_planted_dependent_row(monkeypatch, h3_pole_shift):
    # G's 15 rows have rank 14, so the stack [G; H] has rank N - 1 = 23 and
    # proves nothing: G is ranked on its own and fails the window check, in
    # the pair builder, in ag_code and in the construction alike
    res = h3_pole_shift
    plant_dependent_row(monkeypatch, res.G)
    stack = fiber_block_rank(_unranked_code(res.curve, res.d_places, res.G), res.code_h)
    assert stack == res.code_g.N - 1
    message = r"^rank 14 does not match deg G \+ 1 - g = 15$"
    with pytest.raises(InternalInvariantError, match=message):
        _code_pair(res.curve, res.d_places, res.G, res.H, res.certificates)
    with pytest.raises(InternalInvariantError, match=message):
        K.ag_code(res.curve, res.d_places, res.G)
    E = K.Divisor.of((K.Place.infinity(), -1), (res.curve.root_place(1), 1),
                     (res.curve.root_place(2), 2))
    with pytest.raises(InternalInvariantError, match=message):
        K.lcp_pole_shift(res.curve, E, 3)
