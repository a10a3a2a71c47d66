import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kummerlcp as K
from kummerlcp import cli
from kummerlcp import curve as curve_mod
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
from kummerlcp.field import json_int, log_mth_roots

from conftest import (BIG_FIELDS, FIELD_CHOICES, hermitian, mth_roots_by_scan,
                      random_big_curve, random_curve)


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


def _cli_json(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return json.loads(out.getvalue())


def test_places_match_per_x_scan_on_random_curves(tmp_path):
    # of these 40 curves, 10 have d_inf > 1 (a partial listing) and 11 a bundle root
    rng = random.Random(20261018)
    path = str(tmp_path / "curve.json")
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
        xs, ys = curve.affine_points()
        assert xs.dtype == ys.dtype == np.int64
        assert list(zip(xs.tolist(), ys.tolist())) == [(p.x, p.y) for p in places
                                                       if p.kind == "aff"]
        with open(path, "w") as fh:
            json.dump(curve.to_json(), fh)
        assert _cli_json("curve-info", "--curve", path)["rational_places"] == len(places)
        listing = _cli_json("curve-places", "--curve", path)
        assert listing["count"] == len(places)
        assert listing["places"] == [p.id() for p in places]
        assert listing["partial"] == (curve.d_inf != 1)
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


@pytest.mark.parametrize("p,e", BIG_FIELDS)
def test_fiber_table_is_the_same_in_any_slices(monkeypatch, p, e):
    # the fibers are read off one table, log f(x) over the field: slices of
    # 7 and of 1000 elements (not dividing q) against one slice
    rng = random.Random(p * e)
    for _ in range(2):
        curve = random_big_curve(rng, p, e)
        want = curve._f_logs()
        for width in (7, 1000):
            monkeypatch.setattr(curve_mod, "_FIELD_SLICE", width)
            curve._logs = None
            got = curve._f_logs()
            assert np.array_equal(got, want) and got.dtype == np.int64


def test_fiber_table_memory_on_gf2_20():
    # y^41 = x(x+1) over GF(2^20): the fibers are read off log f(x) over the
    # field, one int64 array (8 MB).  Built slice by slice, with the split x
    # read off it, its traced peak is about 17 MB; f over the whole field at
    # once peaks at about 56 MB.  tracemalloc sees numpy's buffers and,
    # unlike ru_maxrss, is not raised by the RSS of the process that starts
    # the child
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    script = ("import tracemalloc, kummerlcp as K\n"
              "f = K.field_create(2, 20)\n"
              "curve = K.curve_create(f, 41, 1, [(0, 1), (1, 1)])\n"
              "tracemalloc.start()\n"
              "curve.split_x_values()\n"
              "print(tracemalloc.get_traced_memory()[1] / 2**20)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 40, f"the log table allocated {proc.stdout.strip()} MB at its peak"


def _splitting_m(q, p):
    """The least m >= 3 prime to p that divides q - 1 (fibers split)."""
    return next(m for m in range(3, q) if (q - 1) % m == 0 and m % p)


def _partial_m(q, p):
    """The least m >= 3 prime to p with 1 < gcd(m, q-1) < m (fibers of
    gcd(m, q-1) points, none split)."""
    return next(m for m in range(3, 4 * q) if 1 < math.gcd(m, q - 1) < m and m % p)


@pytest.mark.parametrize("p,e", FIELD_CHOICES + BIG_FIELDS + [(1021, 1)])
def test_fibers_match_a_y_scan(p, e):
    # m dividing q-1 and m with gcd(m, q-1) < m, a root of multiplicity
    # m-1 > 1 and a leading constant other than 1.  The scan raises every y
    # to the m-th power by square and multiply, and f_at runs Horner on the
    # expanded polynomial: neither reads the logs of f
    f = K.field_create(p, e)
    rng = random.Random(p ** e)
    for m in (_splitting_m(f.q, p), _partial_m(f.q, p)):
        xs = rng.sample(range(f.q), 3)
        roots = [(xs[0], m - 1)] + [(a, rng.randint(1, m - 1)) for a in xs[1:]]
        curve = K.curve_create(f, m, rng.randrange(2, f.q), roots)
        roots_of = mth_roots_by_scan(f, m)
        fibers = [tuple(roots_of[curve.f_at(x)]) for x in range(f.q)]
        assert [curve.fiber(x) for x in range(f.q)] == fibers
        root_xs = {a for a, _ in roots}
        split = [x for x in range(f.q) if x not in root_xs and len(fibers[x]) == m]
        assert curve.split_x_values() == split
        assert split == [] or (f.q - 1) % m == 0
        assert [(x0, [(pl.x, pl.y) for pl in fiber]) for x0, fiber in curve.split_fibers()] == \
            [(x0, [(x0, y0) for y0 in fibers[x0]]) for x0 in split]
        xs, ys = curve.affine_points()
        assert xs.dtype == ys.dtype == np.int64
        assert list(zip(xs.tolist(), ys.tolist())) == [(x, y) for x in range(f.q)
                                                       if x not in root_xs for y in fibers[x]]


@pytest.mark.parametrize("p,e", FIELD_CHOICES + BIG_FIELDS)
def test_affine_point_count_matches_the_points(p, e):
    # curve-info's count, d = gcd(m, q-1) points over every x0 with d | log
    # f(x0), for d = m (split fibers), 1 < d < m and d = 1 (one point over
    # every x0 off the roots)
    f = K.field_create(p, e)
    rng = random.Random(p * 1000 + e)
    coprime = next(m for m in range(2, 4 * f.q) if math.gcd(m, f.q - 1) == 1 and m % p)
    for m in (_splitting_m(f.q, p), _partial_m(f.q, p), coprime):
        for _ in range(2):
            xs = rng.sample(range(f.q), rng.randint(1, 4))
            lams = [1] + [rng.randint(1, m - 1) for _ in xs[1:]]
            curve = K.curve_create(f, m, rng.randrange(1, f.q), list(zip(xs, lams)))
            assert curve.affine_point_count() == len(curve.affine_points()[0])
        if m == coprime:
            assert curve.affine_point_count() == f.q - len(xs)


def test_fiber_reads_x_as_an_element_of_the_field(h3, gf4):
    b = h3.split_x_values()[0]
    assert h3.fiber(h3.field.element(b)) == h3.fiber(np.int64(b)) == h3.fiber(b)
    for bad in (-1, h3.field.q):
        with pytest.raises(UnsupportedPlaceStructureError):
            h3.fiber(bad)
    for bad in (True, 2.5):
        with pytest.raises(TypeError):
            h3.fiber(bad)
    with pytest.raises(FieldMismatchError):
        h3.fiber(gf4.element(1))


def test_split_fibers_reads_x_as_an_element_of_the_field(h3):
    xs = h3.split_x_values()[:2]
    want = h3.split_fibers(xs)
    assert h3.split_fibers([h3.field.element(xs[1]), np.int64(xs[0]), xs[1]]) == want
    for bad in ([-1], [h3.field.q], [xs[0], 0]):  # 0 is a root of f
        with pytest.raises(UnsupportedPlaceStructureError):
            h3.split_fibers(bad)
    with pytest.raises(TypeError):
        h3.split_fibers([float(xs[0])])


@pytest.mark.parametrize("p,e", FIELD_CHOICES + BIG_FIELDS)
def test_fibers_at_given_x_leave_the_log_array_unbuilt(p, e):
    # split_fibers(xs) and fiber(x) on a fresh curve read log f only at
    # those x: the same fibers and errors as read off the array of log f(x)
    # over the field (affine_points and its log_mth_roots), and that array
    # is never built
    f = K.field_create(p, e)
    rng = random.Random(p * 31 + e)
    m = _splitting_m(f.q, p)
    checked = 0
    while checked < 2:
        roots = [(a, rng.randint(1, m - 1)) for a in rng.sample(range(f.q), 3)]
        lead = rng.randrange(1, f.q)
        try:
            tabled = K.curve_create(f, m, lead, roots)
        except K.errors.KummerError:
            continue
        split = tabled.split_x_values()
        logs = tabled._f_logs()
        point_xs, point_ys = tabled.affine_points()
        xs = rng.sample(split, min(len(split), 5))
        sample = rng.sample(range(f.q), min(f.q, 40)) + [a for a, _ in roots]
        unsplit = [x for x in sample if x not in split]
        fresh = K.curve_create(f, m, lead, roots)
        assert fresh.split_fibers(xs) == [
            (x, [K.Place.affine(x, y) for y in point_ys[point_xs == x].tolist()])
            for x in sorted(xs)]
        assert fresh.split_fibers([]) == []
        assert [fresh.fiber(x) for x in sample] == [
            tuple(log_mth_roots(f, logs.item(x), m)) for x in sample]
        with pytest.raises(UnsupportedPlaceStructureError):
            fresh.split_fibers(xs + unsplit[:1])
        assert fresh._logs is None
        checked += 1


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


def test_divisor_coefficients_are_integers():
    inf = K.Place.infinity()
    for bad in (2.7, True, "3"):
        with pytest.raises(TypeError):
            K.Divisor.of((inf, bad))
    d = K.Divisor.of((inf, np.int64(2)))
    assert d == K.Divisor.of((inf, 2)) and type(d.coeff(inf)) is int
    with pytest.raises(TypeError):
        2.5 * d


def test_places_from_constructors_equal_parsed_places(h3, bundle_curve):
    cases = [(h3, K.Place.infinity(), "inf"), (h3, K.Place.root(2), "root:2"),
             (h3, K.Place.affine(3, 5), "aff:3:5"), (bundle_curve, K.Place.bundle(1, 2), "bundle:1")]
    for curve, place, text in cases:
        parsed = K.parse_place(curve, text)
        assert parsed == place and hash(parsed) == hash(place) and {place: 1}[parsed] == 1
        assert parsed.id() == repr(parsed) == text
    assert K.Place.bundle(1, 2).degree == 2 and K.Place.root(1).degree == 1


def test_places_of_different_kinds_never_equal():
    # the same index, x, y and degree under each kind
    places = [K.Place(kind, index=0, x=0, y=0, degree=1)
              for kind in (curve_mod.INF, curve_mod.ROOT, curve_mod.BUNDLE, curve_mod.AFFINE)]
    assert all(p != q for i, p in enumerate(places) for q in places[i + 1:])
    assert len(set(places)) == len(places)
    assert K.Place.root(0) != K.Place.bundle(0, 1) != K.Place.infinity()


def test_divisor_items_order():
    inf, r0, r2 = K.Place.infinity(), K.Place.root(0), K.Place.root(2)
    b1, a = K.Place.bundle(1, 2), K.Place.affine
    want = [(inf, 1), (r0, -2), (r2, 3), (b1, 4), (a(1, 2), -1), (a(1, 5), -1), (a(3, 0), 6)]
    for order in (want, want[::-1], want[3:] + want[:3]):
        d = K.Divisor(order)
        assert d.items() == want
        assert d.support() == [p for p, _ in want]
        assert sorted(d.support_set(), key=lambda p: p.sort_key()) == d.support()


def test_divisor_is_immutable_with_cached_hash(h3):
    inf, r0, r1 = K.Place.infinity(), h3.root_place(0), h3.root_place(1)
    d = K.Divisor.of((r1, 2), (inf, -3), (r0, 1))
    assert hash(d) == hash(frozenset(d.items())) == hash(d)
    items = d.items()
    items.append((h3.root_place(2), 7))
    items[0] = (inf, 99)
    assert d.items() == [(inf, -3), (r0, 1), (r1, 2)]
    assert d.coeff(h3.root_place(2)) == 0 and d.coeff(inf) == -3 and d.degree() == 0
    zero = K.Divisor.zero()
    assert d * 0 == 0 * d == zero and not d * 0 and (d * 0).items() == []
    assert -d == K.Divisor.of((r1, -2), (inf, 3), (r0, -1))
    assert hash(-d) == hash(frozenset((-d).items()))
    assert d + -d == d - d == zero and hash(d - d) == hash(zero)
    assert d + K.Divisor.of((r0, -1)) == K.Divisor.of((inf, -3), (r1, 2))
    assert (d - K.Divisor.of((r1, 2))).support() == [inf, r0]


def test_json_int_refuses_non_integers():
    for good in (3, -7, 10 ** 30, np.int64(4), np.int32(-2), np.uint8(9)):
        got = json_int(good)
        assert got == good and type(got) is int
    inf = K.Place.infinity()
    for bad in (True, False, np.bool_(True), np.bool_(False), 2.0, np.float64(2.0), "3", None):
        with pytest.raises(TypeError):
            json_int(bad)
        with pytest.raises(TypeError):
            K.Divisor.of((inf, bad))


def test_curve_serialization_roundtrip(h3, z_curve):
    for curve in (h3, z_curve):
        again = K.curve_from_json(curve.to_json())
        assert again.to_json() == curve.to_json()
        assert again.genus() == curve.genus()


def test_divisor_serialization_roundtrip(h3):
    d = K.Divisor.of((K.Place.infinity(), -1), (h3.root_place(2), 5))
    assert K.Divisor.from_json(h3, d.to_json()) == d
