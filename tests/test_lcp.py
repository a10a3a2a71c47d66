import math
import random
from collections import Counter

import numpy as np
import pytest

import kummerlcp as K
from kummerlcp import linalg, nonspecial, rrspace
from kummerlcp.codes import verify_lcp_conditions
from kummerlcp.errors import (
    ConditionViolationError,
    ENotCertifiedError,
    FieldMismatchError,
    InternalInvariantError,
    NeedTwoFibersError,
    NotSeparableError,
    SRangeViolationError,
)
from kummerlcp.lcp import _default_effective_g, _default_gminus1

from conftest import FIELD_CHOICES


@pytest.fixture(scope="module")
def h3_E(h3):
    return K.Divisor.of(
        (K.Place.infinity(), -1), (h3.root_place(1), 1), (h3.root_place(2), 2)
    )


def admissible_s_pole_shift(curve, N):
    g = curve.genus()
    lam0 = curve.deg_f
    return [s for s in range(1, N) if g - 1 < s * lam0 < N + 1 - g]


def test_pole_shift_all_admissible_s(h3, h3_E):
    N = 24
    s_values = admissible_s_pole_shift(h3, N)
    assert s_values == [1, 2, 3, 4, 5, 6, 7]
    for s in s_values:
        res = K.lcp_pole_shift(h3, h3_E, s)
        assert (res.code_g.k, res.code_h.k) == (N - 3 * s, 3 * s)
        assert res.report.verdict and res.report.conditions.passed
        assert res.G.degree() + res.H.degree() == N + 2 * h3.genus() - 2
        assert K.divisor_gcd(res.G, res.H) == h3_E


def test_pole_shift_example_dims(h3, h3_E):
    res = K.lcp_pole_shift(h3, h3_E, 3)
    assert (res.code_g.N, res.code_g.k) == (24, 15)
    assert (res.code_h.N, res.code_h.k) == (24, 9)


def test_pole_shift_s_range_violation(h3, h3_E):
    with pytest.raises(SRangeViolationError):
        K.lcp_pole_shift(h3, h3_E, 0)
    with pytest.raises(SRangeViolationError):
        K.lcp_pole_shift(h3, h3_E, 8)


def test_pole_shift_uncertified_E(h3):
    bad = K.Divisor.of((h3.root_place(0), 2))  # degree 2 but special
    with pytest.raises(ENotCertifiedError):
        K.lcp_pole_shift(h3, bad, 3)


def test_pole_shift_partial_eval_set(h3, h3_E):
    xs = h3.split_x_values()[:4]  # N = 16
    s_values = [s for s in range(1, 16) if 2 < 3 * s < 16 + 1 - 3]
    for s in s_values:
        res = K.lcp_pole_shift(h3, h3_E, s, eval_x=xs)
        assert res.code_g.N == 16
        assert (res.code_g.k, res.code_h.k) == (16 - 3 * s, 3 * s)
        assert res.report.verdict and res.report.conditions.passed


@pytest.mark.parametrize("construction", ["1", "2", "R"])
def test_repeated_eval_x_counts_once(h3, construction):
    Q = [h3.root_place(k) for k in range(3)]
    E2 = K.Divisor.of((K.Place.infinity(), -3), (Q[0], 2), (Q[1], 3))
    xs = h3.split_x_values()
    assert xs == [1, 2, 3, 4, 6, 8]
    once = K.build(h3, construction, 4, E2=E2, eval_x=xs)
    twice = K.build(h3, construction, 4, E2=E2, eval_x=[xs[0]] + xs + [xs[-1]])
    assert twice.to_json() == once.to_json()
    assert [c.b for c in twice.certificates[1:]] == (xs if construction != "R" else xs[1:])


@pytest.mark.parametrize("construction", ["1", "2", "R"])
@pytest.mark.parametrize("bad", [1.7, 1.0, True, "1"], ids=["float", "whole-float", "bool", "str"])
def test_eval_x_entries_must_be_integers(h3, construction, bad):
    Q = [h3.root_place(k) for k in range(3)]
    E2 = K.Divisor.of((K.Place.infinity(), -3), (Q[0], 2), (Q[1], 3))
    with pytest.raises(TypeError):
        K.build(h3, construction, 4, E2=E2, eval_x=[bad, 2, 3, 4, 6, 8])


@pytest.mark.parametrize("construction", ["1", "2", "R"])
def test_eval_x_field_elements_and_numpy_integers(h3, gf4, construction):
    Q = [h3.root_place(k) for k in range(3)]
    E2 = K.Divisor.of((K.Place.infinity(), -3), (Q[0], 2), (Q[1], 3))
    xs = [1, 2, 3, 4, 6, 8]
    plain = K.build(h3, construction, 4, E2=E2, eval_x=xs).to_json()
    elements = [K.FieldElement(h3.field, x) for x in xs]
    assert K.build(h3, construction, 4, E2=E2, eval_x=elements).to_json() == plain
    assert K.build(h3, construction, 4, E2=E2, eval_x=np.array(xs)).to_json() == plain
    with pytest.raises(FieldMismatchError):
        K.build(h3, construction, 4, E2=E2, eval_x=[K.FieldElement(gf4, 1)] + xs[1:])


def test_verifier_raises_invariant_violations(h3, h3_E, monkeypatch):
    res = K.lcp_pole_shift(h3, h3_E, 3)
    names = [c.name for c in res.report.conditions.checks]
    assert "gcd(G,H) criterion" in names and "lmd(G,H)-D criterion" in names
    # the criterion's accept cross-check now disagrees; the verifier must not
    # drop the criterion rows and pass
    monkeypatch.setattr(nonspecial, "dim_by_formula", lambda qtuple, alpha: 5)
    with pytest.raises(InternalInvariantError):
        verify_lcp_conditions(h3, res.d_places, res.G, res.H, res.certificates)


def test_pair_construction(h3):
    Q = [h3.root_place(k) for k in range(3)]
    inf = K.Place.infinity()
    E1 = K.Divisor.of((Q[0], -3), (Q[1], 2), (Q[2], 3))
    E2 = K.Divisor.of((inf, -3), (Q[0], 2), (Q[1], 3))
    for s in range(3, 8):
        res = K.lcp_pair(h3, E1, E2, s)
        k2 = 2 * s + 3 - (-3)
        assert (res.code_g.k, res.code_h.k) == (24 - k2, k2)
        assert res.report.verdict and res.report.conditions.passed
        assert K.divisor_gcd(res.G, res.H) == E1
        assert res.G.degree() + res.H.degree() == 24 + 2 * h3.genus() - 2


def test_pair_condition_violations(h3):
    Q = [h3.root_place(k) for k in range(3)]
    inf = K.Place.infinity()
    E1 = K.Divisor.of((Q[0], -3), (Q[1], 2), (Q[2], 3))
    E2 = K.Divisor.of((inf, -3), (Q[0], 2), (Q[1], 3))
    with pytest.raises(ConditionViolationError) as exc:
        K.lcp_pair(h3, E1, E2, 2)  # s < alpha_n = 3
    assert exc.value.which == "ii"
    with pytest.raises(ConditionViolationError):
        K.lcp_pair(h3, E1, E2, 8)
    # an arrangement with weight on the first place makes s = 0 violate i)
    E1b = K.Divisor.of((Q[0], 3), (Q[1], 2), (Q[2], -3))
    assert K.divisor_nonspecial_gminus1(h3, E1b)
    with pytest.raises(ConditionViolationError) as exc:
        K.lcp_pair(h3, E1b, E2, 0)
    assert exc.value.which == "i"


def test_pair_requires_separable(bundle_curve):
    E = K.Divisor.zero()
    with pytest.raises(NotSeparableError):
        K.lcp_pair(bundle_curve, E, E, 1)


def test_punctured_construction(h3):
    E = K.Divisor.of((h3.root_place(1), 1), (h3.root_place(2), 2))
    first_fiber = h3.split_fibers()[0][1]
    r1, r2 = first_fiber[0], first_fiber[1]
    for s in range(1, 7):
        res = K.lcp_punctured(h3, E, s)
        assert res.code_g.N == 21 == 24 - 4 + 1
        assert (res.code_g.k, res.code_h.k) == (21 - 3 * s, 3 * s)
        assert res.report.verdict and res.report.conditions.passed
        assert K.divisor_gcd(res.G, res.H) == E - K.Divisor.of((r1, 1))
        assert res.d_places[0] == r2
        assert r1 not in res.d_places
        assert res.G.degree() + res.H.degree() == 21 + 2 * h3.genus() - 2


def test_punctured_s_range(h3):
    E = K.Divisor.of((h3.root_place(1), 1), (h3.root_place(2), 2))
    with pytest.raises(SRangeViolationError):
        K.lcp_punctured(h3, E, 0)
    with pytest.raises(SRangeViolationError):
        K.lcp_punctured(h3, E, 7)


def test_punctured_needs_degree_g(h3, h3_E):
    with pytest.raises(ENotCertifiedError):
        K.lcp_punctured(h3, h3_E, 2)  # degree g-1, not g


def test_punctured_needs_two_fibers(h3):
    E = K.Divisor.of((h3.root_place(1), 1), (h3.root_place(2), 2))
    with pytest.raises(NeedTwoFibersError):
        K.lcp_punctured(h3, E, 1, eval_x=h3.split_x_values()[:1])


def random_separable_curve(rng):
    """y^m = c f(x) with f separable of degree n >= 2 prime to m, so infinity
    is totally ramified, of genus >= 1 and with at least two split fibers."""
    while True:
        p, e = rng.choice(FIELD_CHOICES + [(5, 1), (7, 1), (11, 1), (13, 1)])
        field = K.field_create(p, e)
        m, n = rng.randint(2, 8), rng.randint(2, min(5, field.q - 1))
        if m % p == 0 or math.gcd(m, n) != 1:
            continue
        roots = [(a, 1) for a in rng.sample(range(field.q), n)]
        curve = K.curve_create(field, m, rng.randrange(1, field.q), roots)
        if curve.genus() >= 1 and len(curve.split_x_values()) >= 2:
            return curve


def nonspecial_g_divisors(curve, rng, tries=300):
    """Non-special divisors of degree g on the all-ramified tuple, drawn with
    coefficients from a box around 0, negative ones included."""
    qtuple = K.QTuple.all_ramified(curve)
    g, m = curve.genus(), curve.m
    found = set()
    for _ in range(tries):
        alpha = [rng.randint(-m, 2 * m) for _ in range(qtuple.n - 1)]
        alpha.append(g - sum(alpha))
        if K.nonspecial_g(qtuple, alpha):
            found.add(qtuple.divisor(alpha))
    return sorted(found, key=repr)


def test_punctured_evaluation_at_r1_is_onto(h3):
    # lcp_punctured does not check that evaluation at R_1 is onto: on the
    # s-range deg(H + R_1) = g + s*n >= 2g, so H + R_1 and H are non-special
    # and dim L(H) = dim L(H + R_1) - 1 = s*n (Riemann-Roch)
    rng = random.Random(14)
    cases = non_effective = 0
    for curve in [h3] + [random_separable_curve(rng) for _ in range(8)]:
        n, g, m = len(curve.roots), curve.genus(), curve.m
        zero_sum = K.Divisor((curve.root_place(k), 1) for k in range(n))
        N = m * len(curve.split_x_values())
        r1 = K.Divisor.of((curve.split_fibers()[0][1][0], 1))
        for E in nonspecial_g_divisors(curve, rng)[:6]:
            assert nonspecial.divisor_nonspecial_g(curve, E)
            non_effective += min(c for _, c in E.items()) < 0
            for s in (s for s in range(1, N) if g - 1 < s * n < N - m - g + 2):
                H = E + s * zero_sum - r1
                assert rrspace.dim_by_decomposition(curve, H + r1) == s * n + 1
                assert rrspace.dim_with_simple_affine_drops(curve, H) == s * n
                cases += 1
    assert cases >= 100 and non_effective >= 10


@pytest.mark.parametrize("which", ["h3", "gf1021-48-fibers"])
def test_punctured_build_eliminates_each_matrix_once(monkeypatch, h3, which):
    # G: 4 stratum blocks and the border residual; H: null_space(Phi^T),
    # then the same 5 (rank Phi is read off the kernel); the stack: 5; the
    # two condition divisors: one rank each.  Basis rows: G at D, H' at D
    # and at R_1, and each condition divisor at its drops
    if which == "h3":
        curve, s, xs = h3, 3, None
    else:
        curve = K.curve_create(K.field_create(1021, 1), 4, 1, [(1, 1), (2, 1), (3, 1)])
        s, xs = 31, curve.split_x_values()[:48]
    E = K.Divisor.of((curve.root_place(1), 1), (curve.root_place(2), 2))
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(linalg, "_eliminate", counted("eliminate", linalg._eliminate))
    monkeypatch.setattr(rrspace, "_basis_rows", counted("basis_rows", rrspace._basis_rows))
    res = K.lcp_punctured(curve, E, s, xs)
    assert res.report.verdict
    assert calls == {"eliminate": 18, "basis_rows": 5}


def test_pole_shift_on_bundle_curve(bundle_curve):
    E = _default_gminus1(bundle_curve)
    N = 4 * len(bundle_curve.split_x_values())
    g = bundle_curve.genus()
    lam0 = bundle_curve.deg_f
    for s in admissible_s_pole_shift(bundle_curve, N):
        res = K.lcp_pole_shift(bundle_curve, E, s)
        assert (res.code_g.k, res.code_h.k) == (N - s * lam0, s * lam0)
        assert res.report.verdict and res.report.conditions.passed
        # H really does carry the bundle weight of (y^s)
        assert res.H.coeff(K.Place.bundle(1, 2)) == s


def test_default_divisors(h3):
    E = _default_gminus1(h3)
    assert K.divisor_nonspecial_gminus1(h3, E)
    Eg = _default_effective_g(h3)
    assert Eg == K.Divisor.of((h3.root_place(1), 1), (h3.root_place(2), 2))
    assert K.divisor_nonspecial_g(h3, Eg)


def test_build_dispatch(h3):
    res = K.build(h3, "1", 3)
    assert res.construction == "1"
    res_r = K.build(h3, "R", 2)
    assert res_r.construction == "R"
    with pytest.raises(ENotCertifiedError):
        K.build(h3, "2", 3)  # E2 required
    with pytest.raises(ValueError):
        K.build(h3, "X", 1)


def test_result_serialization_roundtrip(h3):
    res = K.build(h3, "1", 3)
    obj = res.to_json()
    assert obj["construction"] == "1"
    assert obj["report"]["verdict"] == "LCP"
    assert len(obj["codes"]) == 2
    curve = K.curve_from_json(obj["curve"])
    G = K.Divisor.from_json(curve, obj["G"])
    assert G == res.G
