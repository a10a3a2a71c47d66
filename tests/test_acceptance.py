"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is exact (integer equality) and the stated time
budgets are asserted where the criterion carries one.
"""

import random
import time

import numpy as np
import pytest

import kummerlcp as K
from kummerlcp.codes import encode_messages

from conftest import random_curve, random_tuple
from test_nonspecial import brute_force_gminus1_set


def _report(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion} PASS  {detail}")


def test_criterion_01_genus(h3, z_curve):
    t0 = time.time()
    g_h3 = h3.genus()
    g_z = z_curve.genus()
    elapsed = time.time() - t0
    assert g_h3 == 3
    assert g_z == 24
    assert elapsed < 1.0
    _report("criterion 1 (genus)", f"H3 g=3, Z g=24 in {elapsed:.3f}s")


def test_criterion_02_rational_places(z_curve):
    t0 = time.time()
    count = len(z_curve.rational_places())
    elapsed = time.time() - t0
    assert count == 2026
    assert elapsed < 30.0
    _report("criterion 2 (rational places)", f"Z has 2026 places in {elapsed:.2f}s")


def test_criterion_03_h3_divisors(h3):
    roots = K.QTuple.of(h3, [h3.root_place(k) for k in range(3)])
    assert K.dim_by_formula(roots, [-2, 2, 3]) == 1
    assert K.classify(roots, [-2, 2, 3]).verdict == "NonspecialDegG"
    full = K.QTuple.all_ramified(h3)
    alpha = [-1, -2, 2, 3]  # tuple order: infinity first
    assert K.dim_by_formula(full, alpha) == 1
    assert K.classify(full, alpha).verdict == "Special"
    _report("criterion 3 (H3 divisors)", "dim 1 / NonspecialDegG and dim 1 / Special")


def test_criterion_04_z_divisor(z_curve):
    tup = K.QTuple.all_ramified(z_curve)
    E = K.Divisor(
        [(K.Place.infinity(), -7)]
        + [(z_curve.root_place(k + 1), c) for k, c in enumerate([1, 2, 3, 3, 4, 5, 6, 6])]
    )
    alpha = tup.alpha_of(E)
    assert K.nonspecial_gminus1(tup, alpha)
    assert E.degree() == 23
    assert K.dim_by_formula(tup, alpha) == 0
    _report("criterion 4 (Z divisor E)", "deg 23, dim 0, criterion holds")


def test_criterion_05_gk_impossibility(gk2):
    t0 = time.time()
    tup = K.QTuple.all_ramified(gk2)
    feas = K.support_feasibility(tup)
    assert not feas.possible
    found = brute_force_gminus1_set(gk2, tup)
    elapsed = time.time() - t0
    assert found == set()
    assert elapsed < 10.0
    _report("criterion 5 (GK impossibility)",
            f"witness {feas.witness!r}, 9^3 scan empty in {elapsed:.2f}s")


def _test_curves(seed=20260808, count=20):
    rng = random.Random(seed)
    curves = []
    while len(curves) < count:
        curve = random_curve(rng)
        if len(curve.totally_ramified_places()) >= 2:
            curves.append(curve)
    return rng, curves


def test_criterion_06_cross_oracle():
    rng, curves = _test_curves()
    checked = 0
    while checked < 1000:
        curve = curves[checked % len(curves)]
        tup = random_tuple(rng, curve)
        assert tup is not None
        m = curve.m
        alpha = [rng.randint(-2 * m, 2 * m) for _ in range(tup.n)]
        a = K.dim_by_formula(tup, alpha)
        b = K.dim_by_class_count(tup, alpha)
        c = K.dim_by_decomposition(curve, tup.divisor(alpha))
        assert a == b == c, (curve, tup.places, alpha, a, b, c)
        checked += 1
    _report("criterion 6 (cross-oracle)",
            f"{checked} random divisors on {len(curves)} curves, zero mismatches")


def test_criterion_07_gap_counts():
    _, curves = _test_curves()
    places_checked = 0
    for curve in curves:
        g = curve.genus()
        for place in curve.totally_ramified_places():
            dims = [K.dim_by_decomposition(curve, K.Divisor.of((place, a)))
                    for a in range(2 * g + 1)]
            gaps = sum(1 for a in range(1, 2 * g + 1) if dims[a] == dims[a - 1])
            assert gaps == g, (curve, place)
            places_checked += 1
    _report("criterion 7 (gap counts)",
            f"{places_checked} totally ramified places, |gaps| = g everywhere")


def test_criterion_08_enumeration_completeness(h2, h3, w_curve):
    for name, curve in (("H2", h2), ("H3", h3)):
        tup = K.QTuple.all_ramified(curve)
        brute = brute_force_gminus1_set(curve, tup)
        sep = set()
        for alpha0 in range(curve.m):
            sep |= K.separable_family(curve, alpha0).all_divisors_canonical_shift()
        unit = K.unit_multiplicity_family(curve, tup).all_divisors_canonical_shift()
        assert sep == brute == unit, name
    tup_w = K.QTuple.of(w_curve, [w_curve.root_place(k) for k in range(3)])
    fam_w = K.unit_multiplicity_family(w_curve, tup_w)
    assert fam_w.all_divisors_canonical_shift() == brute_force_gminus1_set(w_curve, tup_w)
    _report("criterion 8 (enumeration completeness)",
            "families equal brute-force sets on H2, H3 and the two-block curve")


@pytest.fixture(scope="session")
def h3_lcp_results(h3):
    E = K.Divisor.of(
        (K.Place.infinity(), -1), (h3.root_place(1), 1), (h3.root_place(2), 2)
    )
    Q = [h3.root_place(k) for k in range(3)]
    E1 = K.Divisor.of((Q[0], -3), (Q[1], 2), (Q[2], 3))
    E2 = K.Divisor.of((K.Place.infinity(), -3), (Q[0], 2), (Q[1], 3))
    Eg = K.Divisor.of((Q[1], 1), (Q[2], 2))
    t0 = time.time()
    results = []
    for s in range(1, 8):
        results.append(("1", s, K.lcp_pole_shift(h3, E, s), 24 - 3 * s, 3 * s))
    for s in range(3, 8):
        k2 = 2 * s + 6
        results.append(("2", s, K.lcp_pair(h3, E1, E2, s), 24 - k2, k2))
    for s in range(1, 7):
        results.append(("R", s, K.lcp_punctured(h3, Eg, s), 21 - 3 * s, 3 * s))
    return results, time.time() - t0


def test_criterion_09_lcp_end_to_end(z_lcp_results, h3_lcp_results):
    z_results, z_elapsed = z_lcp_results
    for s, res in z_results.items():
        assert (res.code_g.N, res.code_g.k) == (2016, 2016 - 13 * s)
        assert (res.code_h.N, res.code_h.k) == (2016, 13 * s)
        assert res.report.verdict
        assert res.report.conditions.passed
    assert z_elapsed < 600.0
    h3_results, h3_elapsed = h3_lcp_results
    for construction, s, res, k1, k2 in h3_results:
        assert (res.code_g.k, res.code_h.k) == (k1, k2), (construction, s)
        assert res.report.verdict and res.report.conditions.passed, (construction, s)
    assert h3_elapsed < 30.0
    _report(
        "criterion 9 (LCP end-to-end)",
        f"Z s=2,77,153 verified in {z_elapsed:.1f}s; "
        f"{len(h3_results)} H3 results in {h3_elapsed:.1f}s",
    )


def test_criterion_10_goppa_bound(z_lcp_results, h3_lcp_results):
    rng = np.random.default_rng(20260808)
    z_results, _ = z_lcp_results
    h3_results, _ = h3_lcp_results
    codes = []
    for res in z_results.values():
        codes.extend([res.code_g, res.code_h])
    for _, _, res, _, _ in h3_results:
        codes.extend([res.code_g, res.code_h])
    checked = 0
    for code in codes:
        g = code.curve.genus()
        deg = code.G.degree()
        if 2 * g - 2 < deg < code.N:
            assert code.k == deg + 1 - g
        msgs = rng.integers(0, code.field.q, size=(200, code.k), dtype=np.int64)
        words = encode_messages(code, msgs)
        weights = np.count_nonzero(words, axis=1)
        nonzero = np.any(msgs != 0, axis=1)
        assert np.all(weights[nonzero] >= code.N - deg), (code.N, code.k, deg)
        checked += 1
    _report("criterion 10 (designed distance)",
            f"{checked} codes x 200 random words, zero violations")
