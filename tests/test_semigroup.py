import random

import numpy as np
import pytest

import kummerlcp as K
from kummerlcp.errors import (
    DuplicatePlaceError,
    IndexOutOfRangeError,
    NotTotallyRamifiedError,
    QTupleSizeError,
)
from kummerlcp.semigroup import maximal_elements_below

from conftest import per_stratum_dim_by_formula, random_curve, random_tuple


def test_stratum_shift_values(h3, z_curve):
    inf = K.Place.infinity()
    # H_3 infinity: lambda = -3 and -3 = 1 mod 4, so the shift is i
    for i in range(1, 4):
        assert K.t_val(h3, inf, i) == i
        assert K.t_val(h3, h3.root_place(0), i) == i
    # Z root x=0 has multiplicity 5, m=7: shift of stratum 3 is 15 mod 7 = 1
    assert K.t_val(z_curve, z_curve.root_place(0), 3) == 1
    # the per-tuple table agrees with the direct residue for every integer i
    tup = K.QTuple.all_ramified(z_curve)
    for i in range(-7, 15):
        assert tup.shifts(i) == tuple((i * lam) % 7 for lam in tup.lambdas)


def test_t_val_range_errors(h3):
    with pytest.raises(IndexOutOfRangeError):
        K.t_val(h3, h3.root_place(0), 0)
    with pytest.raises(IndexOutOfRangeError):
        K.t_val(h3, h3.root_place(0), 4)
    with pytest.raises(IndexOutOfRangeError):
        K.gap_count(h3, 0)


def test_gap_counts_hermitian(h3, h2, h4):
    # Hermitian: gap_count(i) = q - i
    for curve, q0 in ((h2, 2), (h3, 3), (h4, 4)):
        assert [K.gap_count(curve, i) for i in range(1, q0 + 1)] == \
            [q0 - i for i in range(1, q0 + 1)]


def test_gap_counts_z(z_curve):
    assert [K.gap_count(z_curve, i) for i in range(1, 7)] == [7, 6, 5, 3, 2, 1]


def test_gap_count_separable_closed_form():
    # separable f of degree n: gap_count(i) = n - 1 - floor(i n / m)
    rng = random.Random(11)
    for _ in range(100):
        curve = random_curve(rng)
        if any(lam != 1 for _, lam in curve.roots):
            continue
        n = curve.deg_f
        for i in range(1, curve.m):
            assert K.gap_count(curve, i) == n - 1 - (i * n) // curve.m


def test_gap_count_sum_is_genus_random():
    rng = random.Random(13)
    for _ in range(150):
        curve = random_curve(rng)
        assert sum(K.gap_count(curve, i) for i in range(1, curve.m)) == curve.genus()


def test_qtuple_validation(h3, gf4):
    places = h3.totally_ramified_places()
    with pytest.raises(QTupleSizeError):
        K.QTuple.of(h3, places[:1])
    with pytest.raises(DuplicatePlaceError):
        K.QTuple.of(h3, [places[0], places[0]])
    with pytest.raises(NotTotallyRamifiedError):
        K.QTuple.of(h3, [places[0], K.Place.affine(1, 1)])
    # n <= q: GF(4) Hermitian has exactly 3 ramified places, q = 4, fine;
    # but a 5-place tuple on GF(4) is impossible to request legitimately
    h2 = K.curve_create(gf4, 3, 1, [(0, 1), (1, 1)])
    with pytest.raises(QTupleSizeError):
        K.QTuple.of(h2, h2.totally_ramified_places() + [K.Place.root(0)] * 2)


def test_enumeration_matches_class_count_small(h3):
    tup = K.QTuple.of(h3, [h3.root_place(k) for k in range(3)])
    rng = random.Random(5)
    for _ in range(60):
        alpha = [rng.randint(-5, 5) for _ in range(3)]
        elems = list(maximal_elements_below(tup, alpha))
        firsts = {e.point(tup)[0] for e in elems}
        assert len(firsts) == K.dim_by_class_count(tup, alpha)
        # every enumerated element is dominated and satisfies its sum constraint
        for e in elems:
            assert all(c <= a for c, a in zip(e.point(tup), alpha))
            assert sum(e.offsets) == tup.stratum_sum(e.stratum)


def test_enumeration_order_deterministic(h3):
    tup = K.QTuple.of(h3, [h3.root_place(k) for k in range(3)])
    alpha = [2, 3, 1]
    once = [(e.stratum, e.offsets) for e in maximal_elements_below(tup, alpha)]
    twice = [(e.stratum, e.offsets) for e in maximal_elements_below(tup, alpha)]
    assert once == twice
    assert once == sorted(once)


def test_zero_alpha_stratum_zero(h3):
    tup = K.QTuple.of(h3, [h3.root_place(k) for k in range(3)])
    elems = [e for e in maximal_elements_below(tup, [0, 0, 0]) if e.stratum == 0]
    assert [e.offsets for e in elems] == [(0, 0, 0)]


def test_empty_when_alpha_very_negative(h3):
    tup = K.QTuple.of(h3, [h3.root_place(k) for k in range(3)])
    assert list(maximal_elements_below(tup, [-40, -40, -40])) == []
    assert K.dim_by_formula(tup, [-40, -40, -40]) == 0


def test_dim_examples_h3(h3):
    roots = K.QTuple.of(h3, [h3.root_place(k) for k in range(3)])
    assert K.dim_by_formula(roots, [-2, 2, 3]) == 1
    assert K.dim_by_class_count(roots, [-2, 2, 3]) == 1
    full = K.QTuple.all_ramified(h3)
    assert K.dim_by_formula(full, [-1, -2, 2, 3]) == 1  # special of degree 2
    assert K.dim_by_formula(full, [0, 0, 0, 0]) == 1


def test_dominated_element_counts_per_stratum(h3):
    tup = K.QTuple.of(h3, [h3.root_place(k) for k in range(3)])
    sizes = [0, 0, 0, 0]
    for e in maximal_elements_below(tup, [-2, 2, 3]):
        sizes[e.stratum] += 1
    assert sizes == [0, 0, 1, 0]


def test_formula_equals_class_count_random():
    rng = random.Random(101)
    checked = 0
    while checked < 400:
        curve = random_curve(rng)
        tup = random_tuple(rng, curve)
        if tup is None:
            continue
        m = curve.m
        alpha = [rng.randint(-2 * m, 2 * m) for _ in range(tup.n)]
        assert K.dim_by_formula(tup, alpha) == K.dim_by_class_count(tup, alpha)
        checked += 1


def test_formula_plan_matches_per_stratum_sums_random():
    # negative, huge and numpy-integer alphas, as lists and as arrays
    rng = random.Random(1818)
    huge = 10 ** 30
    checked = 0
    while checked < 300:
        curve = random_curve(rng)
        tup = random_tuple(rng, curve)
        if tup is None:
            continue
        m, n = curve.m, tup.n
        small = [rng.randint(-3 * m, 3 * m) for _ in range(n)]
        for alpha in (small,
                      [rng.randint(-3 * m, -1) for _ in range(n)],
                      [rng.randint(-huge, huge) for _ in range(n)],
                      [huge + rng.randrange(m) for _ in range(n)],
                      [-huge - rng.randrange(m) for _ in range(n)],
                      [np.int64(a) for a in small],
                      np.array(small, dtype=np.int64)):
            assert K.dim_by_formula(tup, alpha) == per_stratum_dim_by_formula(tup, alpha), \
                (curve.to_json(), list(alpha))
        for wrong in (small[:-1], small + [0]):
            with pytest.raises(IndexOutOfRangeError):
                K.dim_by_formula(tup, wrong)
        checked += 1


def test_monotonicity_and_riemann_bounds():
    rng = random.Random(303)
    checked = 0
    while checked < 200:
        curve = random_curve(rng)
        tup = random_tuple(rng, curve)
        if tup is None:
            continue
        m = curve.m
        g = curve.genus()
        alpha = [rng.randint(-2 * m, 2 * m) for _ in range(tup.n)]
        k = rng.randrange(tup.n)
        bigger = list(alpha)
        bigger[k] += rng.randint(1, 3)
        d1 = K.dim_by_formula(tup, alpha)
        d2 = K.dim_by_formula(tup, bigger)
        assert d1 <= d2 <= d1 + (sum(bigger) - sum(alpha))
        deg = sum(alpha)
        assert d1 >= max(0, deg + 1 - g)
        if deg < 0:
            assert d1 == 0
        if deg >= 2 * g - 1:
            assert d1 == deg + 1 - g
        checked += 1


def test_divisor_alpha_roundtrip(h3):
    tup = K.QTuple.all_ramified(h3)
    alpha = [-1, 0, 1, 2]
    D = tup.divisor(alpha)
    assert tup.alpha_of(D) == alpha
    with pytest.raises(NotTotallyRamifiedError):
        tup.alpha_of(K.Divisor.of((K.Place.affine(1, 1), 1)))
