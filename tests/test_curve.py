import random

import numpy as np
import pytest

import kummerlcp as K
from kummerlcp.curve import CurveFunction
from kummerlcp.errors import (
    CharDividesMError,
    DuplicateRootError,
    FieldMismatchError,
    MultiplicityOutOfRangeError,
    NoTotallyRamifiedPlaceError,
    PoleAtPlaceError,
    UnsupportedPlaceStructureError,
)

from conftest import BIG_FIELDS, hermitian, random_big_curve, random_curve


def riemann_hurwitz_genus(curve):
    """Independent genus: tame cover of the line, different degree m - gcd per branch place."""
    diff = sum(curve.m - d for d in curve.root_gcds) + (curve.m - curve.d_inf)
    two_g_minus_2 = -2 * curve.m + diff
    assert two_g_minus_2 % 2 == 0
    return (two_g_minus_2 + 2) // 2


def test_curve_create_errors(gf9, gf4):
    with pytest.raises(CharDividesMError):
        K.curve_create(gf9, 6, 1, [(0, 1)])
    with pytest.raises(DuplicateRootError):
        K.curve_create(gf9, 4, 1, [(0, 1), (0, 2)])
    # a single root of multiplicity m: the multiplicity bound fires
    with pytest.raises(MultiplicityOutOfRangeError):
        K.curve_create(gf4, 3, 1, [(0, 3)])
    with pytest.raises(NoTotallyRamifiedPlaceError):
        K.curve_create(gf9, 4, 1, [(0, 2), (1, 2)])


H3_ROOTS = [(0, 1), (5, 1), (7, 1)]


@pytest.mark.parametrize("m,leading,roots", [
    (4, 1.9, [(0.4, 1.6), (5, 1), (7.9, 1)]),
    (4.0, 1, H3_ROOTS),
    (4, 1.0, H3_ROOTS),
    (4, True, H3_ROOTS),
    (4, 1, [(0.0, 1), (5, 1), (7, 1)]),
    (4, 1, [(0, 1.0), (5, 1), (7, 1)]),
    (4, 1, [(0, 1), (5, True), (7, 1)]),
    (4, "1", H3_ROOTS),
], ids=["all-floats", "float-m", "float-leading", "bool-leading", "float-root",
        "float-lambda", "bool-lambda", "str-leading"])
def test_curve_create_reads_integers_only(gf9, m, leading, roots):
    with pytest.raises(TypeError):
        K.curve_create(gf9, m, leading, roots)


def test_curve_create_field_elements(h3, gf9, gf4):
    same = K.curve_create(gf9, np.int64(4), gf9.element(1),
                          [(gf9.element(a), np.int32(lam)) for a, lam in H3_ROOTS])
    assert same.to_json() == h3.to_json()
    with pytest.raises(FieldMismatchError):
        K.curve_create(gf9, 4, gf4.element(1), H3_ROOTS)
    with pytest.raises(FieldMismatchError):
        K.curve_create(gf9, 4, 1, [(gf4.element(0), 1), (5, 1), (7, 1)])


def test_h3_structure(h3):
    assert h3.genus() == 3
    assert h3.deg_f == 3
    assert h3.d_inf == 1
    assert [p.id() for p in h3.totally_ramified_places()] == [
        "inf", "root:0", "root:1", "root:2",
    ]
    assert len(h3.rational_places()) == 28
    assert len(h3.split_x_values()) == 6


def test_z_structure(z_curve):
    assert z_curve.genus() == 24
    places = z_curve.totally_ramified_places()
    assert len(places) == 10 and places[0].kind == "inf"
    assert len(z_curve.split_x_values()) == 288


def test_gk_structure(gk2):
    assert gk2.genus() == 10 == riemann_hurwitz_genus(gk2)
    assert len(gk2.totally_ramified_places()) == 3


@pytest.mark.parametrize("q0", [2, 3, 4])
def test_hermitian_maximality(q0):
    curve = hermitian(q0)
    assert len(curve.rational_places()) == q0**3 + 1


def test_fiber_partition(h3):
    # every x value accounts for its fiber; totals match the enumeration
    count = 1  # infinity
    root_xs = {a for a, _ in h3.roots}
    for x0 in range(9):
        if x0 in root_xs:
            count += 1
        else:
            count += len(h3.fiber(x0))
    assert count == len(h3.rational_places())


def test_places_match_per_x_scan_on_random_curves():
    rng = random.Random(20261018)
    for _ in range(40):
        curve = random_curve(rng)
        f = curve.field
        mth_power = [f.pow(y, curve.m) for y in range(f.q)]
        f_vals = [curve.f_at(x) for x in range(f.q)]
        fibers = [tuple(y for y in range(f.q) if mth_power[y] == f_vals[x])
                  for x in range(f.q)]
        root_xs = {a for a, _ in curve.roots}
        places = [K.Place.infinity()] if curve.d_inf == 1 else []
        places += [K.Place.root(k) for k, d in enumerate(curve.root_gcds) if d == 1]
        places += [K.Place.affine(x, y) for x in range(f.q) if x not in root_xs
                   for y in fibers[x]]
        assert curve.rational_places() == places
        assert curve.split_x_values() == [x for x in range(f.q) if x not in root_xs
                                          and len(fibers[x]) == curve.m]
        assert [curve.fiber(x) for x in range(f.q)] == fibers


@pytest.mark.parametrize("p,e", BIG_FIELDS)
def test_fiber_table_matches_f_at_above_add_table(p, e):
    # the fiber table evaluates f from its roots and leading constant; f_at
    # runs Horner on the expanded polynomial
    rng = random.Random(p ** e)
    for _ in range(2):
        curve = random_big_curve(rng, p, e)
        f = curve.field
        assert curve.leading != 1
        mth_power = f.vpow(np.arange(f.q), curve.m)
        for x in range(f.q):
            assert curve.fiber(x) == tuple(np.nonzero(mth_power == curve.f_at(x))[0].tolist())


def test_genus_matches_riemann_hurwitz_on_random_curves():
    rng = random.Random(20240809)
    for _ in range(200):
        curve = random_curve(rng)
        assert curve.genus() == riemann_hurwitz_genus(curve)


def test_principal_divisor_y(h3):
    dy = h3.principal_divisor("y")
    assert dy.degree() == 0
    assert dy.coeff(K.Place.infinity()) == -3
    for k in range(3):
        assert dy.coeff(h3.root_place(k)) == 1


def test_principal_divisor_x_minus_root(h3):
    d = h3.principal_divisor("x-b", 0)
    assert d == K.Divisor.of((h3.root_place(0), 4), (K.Place.infinity(), -4))


def test_principal_divisor_x_minus_split(h3):
    b = h3.split_x_values()[0]
    d = h3.principal_divisor("x-b", b)
    assert d.degree() == 0
    assert d.coeff(K.Place.infinity()) == -4
    fiber = h3.fiber(b)
    assert len(fiber) == 4
    for y0 in fiber:
        assert d.coeff(K.Place.affine(b, y0)) == 1


def test_principal_divisor_b_integer_or_element(h3, gf4):
    b = h3.split_x_values()[0]
    want = h3.principal_divisor("x-b", b)
    assert h3.principal_divisor("x-b", h3.field.element(b)) == want
    assert h3.principal_divisor("x-b", np.int64(b)) == want
    for bad in (2.7, float(b), True, str(b)):
        with pytest.raises(TypeError):
            h3.principal_divisor("x-b", bad)
    with pytest.raises(FieldMismatchError):
        h3.principal_divisor("x-b", gf4.element(1))


def test_principal_divisor_unsupported():
    # y^4 over GF(7): fibers have size gcd(4, 6) = 2 or 0, never 4, so no
    # x - b away from the roots has enumerable places
    f7 = K.field_create(7, 1)
    curve = K.curve_create(f7, 4, 1, [(0, 1), (1, 1), (2, 1)])
    assert curve.split_x_values() == []
    bad = [x0 for x0 in range(7) if curve.f_at(x0) != 0]
    with pytest.raises(UnsupportedPlaceStructureError):
        curve.principal_divisor("x-b", bad[0])


def test_principal_divisor_degree_zero_random():
    rng = random.Random(7)
    for _ in range(50):
        curve = random_curve(rng)
        if curve.d_inf != 1:
            continue
        assert curve.principal_divisor("y").degree() == 0
        a0 = curve.roots[0][0]
        assert curve.principal_divisor("x-b", a0).degree() == 0


def test_bundle_principal_divisors(bundle_curve):
    c = bundle_curve
    dy = c.principal_divisor("y")
    bundle = K.Place.bundle(1, 2)
    assert dy.coeff(bundle) == 1 and bundle.degree == 2
    assert dy.degree() == 0
    dx = c.principal_divisor("x-b", 1)
    assert dx.coeff(bundle) == 2 and dx.degree() == 0


def test_evaluate_constant_and_coordinates(h3):
    one = CurveFunction.one(h3)
    y = CurveFunction.monomial(h3, 1)
    for x0, fiber in h3.split_fibers()[:2]:
        for place in fiber:
            assert one.evaluate(place).enc == 1
            assert y.evaluate(place).enc == place.y


def test_evaluate_reduces_y_powers(h3):
    # y^4 / x must agree with direct substitution y0^4 * x0^{-1}
    fn = CurveFunction.monomial(h3, 4, den=(0, 1))
    assert list(fn.terms.keys()) == [0]  # reduced to the y^0 stratum
    f9 = h3.field
    for x0, fiber in h3.split_fibers():
        for place in fiber:
            direct = f9.div(f9.pow(place.y, 4), x0)
            assert fn.evaluate(place).enc == direct


def test_evaluate_pole(h3):
    fn = CurveFunction.monomial(h3, 0, den=(0, 1))  # 1/x
    split = h3.split_fibers()
    x0, fiber = split[0]
    assert fn.evaluate(fiber[0]).enc == h3.field.inv(x0)
    zero_fiber_place = K.Place.affine(0, 0)
    with pytest.raises(PoleAtPlaceError):
        fn.evaluate(zero_fiber_place)


def test_divisor_algebra(h3):
    p1, p2 = h3.root_place(0), h3.root_place(1)
    d = K.Divisor.of((p1, 2), (p2, -1))
    assert (d + d).degree() == 2
    assert (d - d) == K.Divisor.zero()
    assert (3 * d).coeff(p1) == 6
    assert d.support() == [p1, p2]
    assert hash(d) == hash(K.Divisor.of((p2, -1), (p1, 2)))


def test_curve_serialization_roundtrip(h3, z_curve):
    for curve in (h3, z_curve):
        again = K.curve_from_json(curve.to_json())
        assert again.to_json() == curve.to_json()
        assert again.genus() == curve.genus()


def test_divisor_serialization_roundtrip(h3):
    d = K.Divisor.of((K.Place.infinity(), -1), (h3.root_place(2), 5))
    assert K.Divisor.from_json(h3, d.to_json()) == d
