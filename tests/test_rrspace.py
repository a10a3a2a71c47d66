import random

import numpy as np
import pytest

import kummerlcp as K
from kummerlcp import linalg, poly
from kummerlcp.curve import BUNDLE, INF, ROOT
from kummerlcp.errors import (
    DivisionByZeroError,
    UnsupportedPlaceStructureError,
    UnsupportedSupportError,
)
from kummerlcp.rrspace import _basis_rows, dim_with_simple_affine_drops, evaluation_rows

from conftest import BIG_FIELDS, random_big_curve, random_curve, random_tuple


def divmod_linear(field, a, root_enc):
    """Synthetic division by (x - root); returns (quotient, remainder)."""
    if not a:
        return poly.ZERO, 0
    quot = [0] * (len(a) - 1)
    acc = 0
    for i in range(len(a) - 1, -1, -1):
        acc = field.add(field.mul(acc, root_enc), a[i])
        if i > 0:
            quot[i - 1] = acc
    return poly.normalize(quot), acc


def root_multiplicity(field, a, root_enc):
    """Largest k with (x - root)^k | a; returns (k, a / (x - root)^k)."""
    k = 0
    cur = a
    while cur:
        quot, rem = divmod_linear(field, cur, root_enc)
        if rem != 0:
            break
        k += 1
        cur = quot
    return k, cur


def function_valuation_bound(curve, fn, place):
    """Lower bound for the valuation of fn at a ramified/bundle/infinite place.

    Exact for single-term functions; for sums it is min over terms, which is
    all the soundness checks need.
    """
    field = curve.field
    vals = []
    for i, (num, den) in fn.terms.items():
        if place.kind == INF:
            vx = poly.degree(den) - poly.degree(num)
            vals.append(-i * curve.deg_f + curve.m * vx)
        else:
            assert place.kind in (ROOT, BUNDLE)
            k = place.index
            root_enc, lam = curve.roots[k]
            d = curve.root_gcds[k]
            mn, _ = root_multiplicity(field, num, root_enc)
            md, _ = root_multiplicity(field, den, root_enc)
            vals.append((i * lam + curve.m * (mn - md)) // d)
    return min(vals)


def affine_pole_roots(curve, fn):
    """x-encodings of affine denominator zeros; all must be roots of f for
    functions emitted by rr_basis."""
    field = curve.field
    out = set()
    for _, (_, den) in fn.terms.items():
        rest = den
        for root_enc, _ in curve.roots:
            k, rest = root_multiplicity(field, rest, root_enc)
            if k:
                out.add(root_enc)
        if poly.degree(rest) > 0:
            # denominator factor away from the roots of f: locate its zeros
            for x0 in range(field.q):
                if poly.eval_at(field, rest, x0) == 0:
                    out.add(x0)
    return out


def scalar_rows(curve, D, places):
    """Values of rr_basis(curve, D) at places through CurveFunction.evaluate."""
    return np.array([[fn.evaluate(p).enc for p in places] for fn in K.rr_basis(curve, D)],
                    dtype=np.int64).reshape(-1, len(places))


def affine_places(curve):
    return [p for p in curve.rational_places() if p.kind == "aff"]


def random_ramified_divisor(rng, curve, lo, hi):
    """Random coefficients on infinity (when rational) and every branch place."""
    entries = [(K.Place.infinity(), rng.randint(lo, hi))] if curve.d_inf == 1 else []
    entries += [curve.branch_divisor_entry(k, rng.randint(lo, hi))
                for k in range(len(curve.roots))]
    return K.Divisor(entries)


def test_restrict_examples(h3):
    inf = K.Place.infinity()
    zero = K.Divisor.zero()
    a0 = K.restrict_to_xline(h3, zero, 0)
    assert a0.root_coeffs == (0, 0, 0) and a0.inf_coeff == 0

    a1 = K.restrict_to_xline(h3, K.Divisor.of((inf, 6)), 1)
    assert a1.inf_coeff == 0 and a1.root_coeffs == (0, 0, 0)
    assert a1.degree == 0  # contributes the single basis element y

    D = K.Divisor.of((h3.root_place(0), -2), (h3.root_place(1), 2), (h3.root_place(2), 3))
    a2 = K.restrict_to_xline(h3, D, 2)
    assert a2.root_coeffs == (0, 1, 1) and a2.inf_coeff == -2
    assert a2.degree == 0


def test_restrict_rejects_affine_support(h3):
    D = K.Divisor.of((K.Place.affine(1, 1), 1))
    with pytest.raises(UnsupportedSupportError):
        K.restrict_to_xline(h3, D, 0)


def test_rr_basis_examples(h3):
    assert [fn.terms for fn in K.rr_basis(h3, K.Divisor.zero())] == \
        [{0: ((1,), (1,))}]
    D = K.Divisor.of((h3.root_place(0), -2), (h3.root_place(1), 2), (h3.root_place(2), 3))
    basis = K.rr_basis(h3, D)
    assert len(basis) == 1
    assert list(basis[0].terms.keys()) == [2]


def test_dim_oracle_gap_sequence(h3):
    inf = K.Place.infinity()
    dims = [K.dim_by_decomposition(h3, K.Divisor.of((inf, a))) for a in range(8)]
    # pole orders at infinity form the semigroup generated by 3 and 4;
    # gaps {1, 2, 5}, genus 3
    assert dims == [1, 1, 1, 2, 3, 3, 4, 5]
    gaps = [a for a in range(1, 8) if dims[a] == dims[a - 1]]
    assert gaps == [1, 2, 5]


def test_dim_oracle_negative_degree(h3):
    for place in h3.totally_ramified_places():
        assert K.dim_by_decomposition(h3, K.Divisor.of((place, -1))) == 0


def test_gap_counts_all_places_random():
    rng = random.Random(99)
    for _ in range(20):
        curve = random_curve(rng, max_m=8, max_deg=8)
        g = curve.genus()
        for place in curve.totally_ramified_places():
            dims = [K.dim_by_decomposition(curve, K.Divisor.of((place, a)))
                    for a in range(0, 2 * g + 1)]
            gaps = sum(1 for a in range(1, 2 * g + 1) if dims[a] == dims[a - 1])
            assert gaps == g


def test_basis_count_matches_formula_random():
    rng = random.Random(404)
    checked = 0
    while checked < 250:
        curve = random_curve(rng, max_m=8, max_deg=8)
        tup = random_tuple(rng, curve)
        if tup is None:
            continue
        m = curve.m
        alpha = [rng.randint(-2 * m, 2 * m) for _ in range(tup.n)]
        D = tup.divisor(alpha)
        want = K.dim_by_formula(tup, alpha)
        assert K.dim_by_decomposition(curve, D) == want
        assert len(K.rr_basis(curve, D)) == want
        checked += 1


def test_basis_valuation_soundness(h3, bundle_curve):
    rng = random.Random(17)
    for curve in (h3, bundle_curve):
        branch_places = []
        if curve.d_inf == 1:
            branch_places.append(K.Place.infinity())
        for k, d in enumerate(curve.root_gcds):
            branch_places.append(curve.branch_divisor_entry(k, 0)[0])
        ram = curve.totally_ramified_places()
        for _ in range(40):
            D = K.Divisor(
                (p, rng.randint(-4, 6)) for p in ram if rng.random() < 0.8
            )
            for fn in K.rr_basis(curve, D):
                for place in branch_places:
                    assert function_valuation_bound(curve, fn, place) + D.coeff(place) >= 0
                # no affine poles outside the roots of f
                root_xs = {a for a, _ in curve.roots}
                assert affine_pole_roots(curve, fn) <= root_xs


def test_basis_linear_independence(h3):
    # evaluation at l(D) + g split places has full row rank
    D = K.Divisor.of((K.Place.infinity(), 7), (h3.root_place(0), 2))
    basis = K.rr_basis(h3, D)
    want = K.dim_by_decomposition(h3, D)
    assert len(basis) == want
    places = [p for _, fiber in h3.split_fibers() for p in fiber]
    sample = places[: want + h3.genus()]
    assert linalg.rank(h3.field, scalar_rows(h3, D, sample)) == want


def test_evaluation_rows_match_scalar_evaluation():
    rng = random.Random(2024)
    checked = 0
    while checked < 60:
        curve = random_curve(rng, max_m=8, max_deg=8)
        places = affine_places(curve)
        if not places:
            continue
        places = rng.sample(places, min(len(places), 12))
        D = random_ramified_divisor(rng, curve, -3, 6)
        rows = evaluation_rows(curve, D, places)
        assert rows.dtype == np.int64
        assert rows.tolist() == scalar_rows(curve, D, places).tolist()
        checked += 1


@pytest.mark.parametrize("p,e", BIG_FIELDS)
def test_evaluation_rows_match_scalar_evaluation_above_add_table(p, e):
    rng = random.Random(p ** e)
    checked = 0
    while checked < 8:
        curve = random_big_curve(rng, p, e, max_m=8)
        places = affine_places(curve)
        D = random_ramified_divisor(rng, curve, -3, 6)
        if len(places) < 12 or not any(
                any(K.restrict_to_xline(curve, D, i).root_coeffs) for i in range(curve.m)):
            continue
        places = rng.sample(places, 12)
        assert evaluation_rows(curve, D, places).tolist() == \
            scalar_rows(curve, D, places).tolist()
        checked += 1


def test_evaluation_rows_at_a_root_point(h3):
    # at x = a_k a factor (x - a_k)^(-A_k) is a pole when A_k > 0 and a zero
    # when A_k < 0, and y = 0 there.  evaluation_rows refuses the point, so
    # the factored evaluation behind it is called directly
    a, _ = h3.roots[1]
    point = [K.Place.affine(a, 0)]
    inf = K.Place.infinity()
    with pytest.raises(UnsupportedPlaceStructureError):
        evaluation_rows(h3, K.Divisor.of((inf, 8)), point)
    with pytest.raises(DivisionByZeroError):
        _basis_rows(h3, K.Divisor.of((inf, 8), (h3.root_place(1), 2)), point)
    D = K.Divisor.of((inf, 8), (h3.root_place(1), -2))
    assert [K.restrict_to_xline(h3, D, i).root_coeffs[1] for i in range(4)] == [-1, -1, 0, 0]
    rows, _ = _basis_rows(h3, D, point)
    assert rows.shape == (4, 1) and not rows.any()


@pytest.mark.parametrize("x,y", [(99, 1), (-1, 1), (1, 1), (1, 99)],
                         ids=["x-outside-field", "negative-x", "off-curve", "y-outside-field"])
def test_places_off_the_curve_rejected(h3, x, y):
    # as an evaluation place and as a drop, the place must be refused before
    # its encodings index the field tables: past q they are out of range,
    # and a negative one wraps around to a wrong value
    bad = K.Place.affine(x, y)
    D = K.Divisor.of((K.Place.infinity(), 8))
    good = h3.split_fibers()[0][1]
    with pytest.raises(UnsupportedPlaceStructureError):
        evaluation_rows(h3, D, [bad])
    with pytest.raises(UnsupportedPlaceStructureError):
        evaluation_rows(h3, D - K.Divisor.of((bad, 1)), good)
    with pytest.raises(UnsupportedPlaceStructureError):
        dim_with_simple_affine_drops(h3, D - K.Divisor.of((bad, 1)))


def test_evaluation_rows_with_drops_random():
    rng = random.Random(515)
    checked = 0
    while checked < 60:
        curve = random_curve(rng, max_m=8, max_deg=8)
        places = affine_places(curve)
        if len(places) < 3:
            continue
        drops = rng.sample(places, rng.randint(1, 2))
        others = rng.sample([p for p in places if p not in drops], min(len(places) - 2, 16))
        ram = random_ramified_divisor(rng, curve, 0, 3)
        D = ram - K.Divisor((p, 1) for p in drops)
        if D.degree() >= len(others):
            continue  # evaluation at the others is injective on L(D) only below this
        sample = others + drops
        rows = evaluation_rows(curve, D, sample)
        # reference: dim L(ram) minus the rank of scalar evaluation at the drops
        want = K.dim_by_decomposition(curve, ram) - linalg.rank(
            curve.field, scalar_rows(curve, ram, drops))
        assert rows.shape == (want, len(sample))
        assert want == dim_with_simple_affine_drops(curve, D)
        assert linalg.rank(curve.field, rows) == want
        assert not rows[:, -len(drops):].any()
        # every row is a combination of the L(ram) basis values
        ref = scalar_rows(curve, ram, sample)
        assert linalg.rank(curve.field, np.vstack([ref, rows])) == \
            linalg.rank(curve.field, ref)
        checked += 1


def test_evaluation_rows_kernel_h3(h3):
    D = K.Divisor.of((K.Place.infinity(), 6))  # dimension 4
    place = h3.split_fibers()[0][1][0]
    place2 = h3.split_fibers()[1][1][0]
    sample = [p for _, fiber in h3.split_fibers()[2:4] for p in fiber]
    full = evaluation_rows(h3, D, sample)
    assert full.shape[0] == 4
    assert full.tolist() == scalar_rows(h3, D, sample).tolist()
    cut = evaluation_rows(h3, D - K.Divisor.of((place, 1)), sample + [place])
    assert cut.shape[0] == 3
    assert linalg.rank(h3.field, cut) == 3
    assert not cut[:, -1].any()
    # a second constraint at a different point drops one more dimension
    cut2 = evaluation_rows(h3, D - K.Divisor.of((place, 1), (place2, 1)),
                           sample + [place, place2])
    assert cut2.shape[0] == 2
    assert linalg.rank(h3.field, cut2) == 2
    assert not cut2[:, -2:].any()


def test_dim_with_affine_drops(h3):
    # E effective nonspecial of degree g; dim(E - R) = 0 for a split place R
    E = K.Divisor.of((h3.root_place(1), 1), (h3.root_place(2), 2))
    assert K.dim_by_decomposition(h3, E) == 1
    r = h3.split_fibers()[0][1][0]
    drop = E - K.Divisor.of((r, 1))
    assert dim_with_simple_affine_drops(h3, drop) == 0
    with pytest.raises(UnsupportedSupportError):
        dim_with_simple_affine_drops(h3, E - K.Divisor.of((r, 2)))


def test_bundle_restriction(bundle_curve):
    c = bundle_curve
    bundle = K.Place.bundle(1, 2)
    D = K.Divisor.of((bundle, 2), (K.Place.infinity(), 1))
    # per-place coefficient 2 over the double root: floor((2*2 + 2i)/4)
    for i in range(4):
        a = K.restrict_to_xline(c, D, i)
        assert a.root_coeffs[1] == (4 + 2 * i) // 4
    got = K.dim_by_decomposition(c, D)
    # deg D = 2*2 + 1 = 5 >= 2g-1 = 1, so the dimension is deg + 1 - g
    assert got == 5 + 1 - c.genus()


def test_root_referenced_consistently(bundle_curve):
    # the double root must be addressed as a bundle, not a root place
    bad = K.Divisor.of((K.Place.root(1), 1))
    with pytest.raises(UnsupportedSupportError):
        K.dim_by_decomposition(bundle_curve, bad)
