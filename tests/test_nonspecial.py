import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import kummerlcp as K
from kummerlcp.errors import (
    Alpha0OutOfRangeError,
    AlphaOutOfRangeError,
    IndexOutOfRangeError,
    LambdaNotCongruentOneError,
    NotSeparableError,
)
from kummerlcp.nonspecial import DivisorFamily, FamilyObstruction, covering_tuple

from conftest import hermitian, per_stratum_dim_by_formula, random_curve, random_tuple

SRC = str(Path(__file__).resolve().parent.parent / "src")


def brute_force_gminus1_set(curve, qtuple):
    """All divisors with the canonical shift (-m on the first tuple place) and
    box part in [0, m-1]^n that satisfy the degree-(g-1) criterion."""
    m = curve.m
    out = set()
    for box in itertools.product(range(m), repeat=qtuple.n):
        alpha = list(box)
        alpha[0] -= m
        if K.nonspecial_gminus1(qtuple, alpha):
            out.add(qtuple.divisor(alpha))
    return out


# --- oracle: the criteria as literal floor sums -------------------------------------

def oracle_gap_count(curve, i):
    """sum of ceil(i*lambda/m) over the branch multiplicities of f, the pole
    counted with multiplicity -deg f, minus one."""
    m = curve.m
    return -((i * curve.deg_f) // m) + sum(-((-i * lam) // m) for _, lam in curve.roots) - 1


def floor_sum_terms(qtuple, alpha):
    """n + sum floor((alpha_k - shift_k(i))/m) for i = 1..m-1."""
    m = qtuple.curve.m
    return [qtuple.n + sum((a - t) // m for a, t in zip(alpha, qtuple.shifts(i)))
            for i in range(1, m)]


def oracle_verdicts(qtuple, alpha):
    """(degree g-1 verdict, degree g verdict) from the floor sums."""
    m = qtuple.curve.m
    floors = sum(a // m for a in alpha)
    if floors not in (0, -1):
        return False, False
    terms = floor_sum_terms(qtuple, alpha)
    diffs = [oracle_gap_count(qtuple.curve, i) - t for i, t in enumerate(terms, start=1)]
    if floors == 0:
        return False, all(d == 0 for d in diffs)
    return all(d == 0 for d in diffs), sorted(diffs) == [-1] + [0] * (m - 2)


def test_known_divisor_checks_h3(h3):
    full = K.QTuple.all_ramified(h3)
    roots = K.QTuple.of(h3, [h3.root_place(k) for k in range(3)])
    # the known degree-3 non-special, non-effective divisor
    assert K.nonspecial_g(roots, [-2, 2, 3])
    assert not K.nonspecial_gminus1(roots, [-2, 2, 3])
    assert K.classify(roots, [-2, 2, 3]).verdict == "NonspecialDegG"
    # subtracting infinity gives a special divisor of degree 2
    cls = K.classify(full, [-1, -2, 2, 3])
    assert cls.verdict == "Special" and cls.degree == 2 and cls.dim == 1
    # the canonical degree-(g-1) representative
    assert K.nonspecial_gminus1(full, [-1, 0, 1, 2])
    # effective degree-g representative
    assert K.nonspecial_effective_g(full, [0, 0, 1, 2])
    assert K.nonspecial_g(full, [0, 0, 1, 2])


def test_first_condition_failure(h3):
    full = K.QTuple.all_ramified(h3)
    # any alpha with floor-sum 0 fails the g-1 criterion
    assert not K.nonspecial_gminus1(full, [0, 0, 1, 1])
    # zero divisor: degree 0 != g
    assert not K.nonspecial_g(full, [0, 0, 0, 0])


def test_effective_g_alpha_range(h3):
    full = K.QTuple.all_ramified(h3)
    with pytest.raises(AlphaOutOfRangeError):
        K.nonspecial_effective_g(full, [0, 0, 0, 4])
    assert not K.nonspecial_effective_g(full, [3, 3, 3, 3])


def test_effective_box_agreement(h2, h3):
    # on the effective box the two degree-g criteria coincide
    for curve in (h2, h3):
        tup = K.QTuple.all_ramified(curve)
        m = curve.m
        for box in itertools.product(range(m), repeat=tup.n):
            assert K.nonspecial_effective_g(tup, box) == K.nonspecial_g(tup, box)


def test_classify_negative_and_highdeg(h3):
    full = K.QTuple.all_ramified(h3)
    assert K.classify(full, [0, 0, 0, 1]).verdict == "NegativeDim"
    assert K.classify(full, [3, 2, 2, 2]).verdict == "NonspecialHighDeg"


def test_feasibility(h3, z_curve, gk2):
    assert K.support_feasibility(K.QTuple.all_ramified(h3)).possible
    assert K.support_feasibility(K.QTuple.all_ramified(z_curve)).possible
    res = K.support_feasibility(K.QTuple.all_ramified(gk2))
    assert not res.possible
    assert res.witness == "floor(degf/m)=0 < r-n-1=1"


def test_gk_exhaustive_scan_empty(gk2):
    tup = K.QTuple.all_ramified(gk2)
    assert brute_force_gminus1_set(gk2, tup) == set()


def test_separable_family_h3_alpha0_3(h3):
    fam = K.separable_family(h3, 3)
    assert fam.alpha_multiset == (0, 1, 2)
    canonical = fam.canonical()
    assert canonical == K.Divisor.of(
        (K.Place.infinity(), -1), (h3.root_place(1), 1), (h3.root_place(2), 2)
    )
    assert canonical.degree() == 2
    assert K.divisor_nonspecial_gminus1(h3, canonical)


def test_separable_family_validation(h3, w_curve):
    with pytest.raises(Alpha0OutOfRangeError):
        K.separable_family(h3, 4)
    with pytest.raises(NotSeparableError):
        K.separable_family(w_curve, 0)


def test_separable_family_alpha0_zero_without_gcd():
    # deg f = 3, m = 6 share a factor at infinity, but the alpha0 = 0 family
    # survives on the zeros alone
    f7 = K.field_create(7, 1)
    curve = K.curve_create(f7, 6, 1, [(0, 1), (1, 1), (2, 1)])
    assert curve.d_inf == 3
    fam = K.separable_family(curve, 0)
    assert fam.alpha0 is None
    assert all(p.kind == "root" for p in fam.places)
    qtuple = fam.qtuple
    for div in fam.all_divisors_canonical_shift():
        assert K.nonspecial_gminus1(qtuple, qtuple.alpha_of(div))


def test_unit_family_hermitian(h3):
    fam = K.unit_multiplicity_family(h3, K.QTuple.all_ramified(h3))
    assert isinstance(fam, DivisorFamily)
    assert fam.alpha_multiset == (0, 1, 2, 3)


def test_unit_family_z_rejects_wrong_tuple(z_curve):
    # all_ramified includes x = 0 with multiplicity 5, not congruent to 1 mod 7
    with pytest.raises(LambdaNotCongruentOneError):
        K.unit_multiplicity_family(z_curve, K.QTuple.all_ramified(z_curve))


def test_unit_family_z_reduced_tuple(z_curve):
    places = [K.Place.infinity()] + [z_curve.root_place(k) for k in range(1, 9)]
    fam = K.unit_multiplicity_family(z_curve, K.QTuple.of(z_curve, places))
    assert isinstance(fam, DivisorFamily)
    assert fam.alpha_multiset == (0, 1, 2, 3, 3, 4, 5, 6, 6)
    canonical = fam.canonical()
    expected = K.Divisor(
        [(K.Place.infinity(), -7)]
        + [(z_curve.root_place(k + 1), c) for k, c in enumerate([1, 2, 3, 3, 4, 5, 6, 6])]
    )
    assert canonical == expected


def test_unit_family_nonexistence():
    # y^5 = x^2 (x-1)^(1) ... need betas violating the chain: use a curve with
    # beta(1) > n - 1 on a small tuple
    f11 = K.field_create(11, 1)
    curve = K.curve_create(f11, 5, 1, [(0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1)])
    # deg f = 7, m = 5: infinity not congruent to 1 (mod 5): -7 = 3 mod 5
    tup = K.QTuple.of(curve, [curve.root_place(k) for k in range(2)])
    res = K.unit_multiplicity_family(curve, tup)
    assert isinstance(res, FamilyObstruction)
    assert "beta" in res.witness


def family_instantiation_set(fam: DivisorFamily):
    return fam.all_divisors_canonical_shift()


def test_enumeration_completeness_h2(h2):
    tup = K.QTuple.all_ramified(h2)
    brute = brute_force_gminus1_set(h2, tup)
    sep = set()
    for alpha0 in range(h2.m):
        sep |= family_instantiation_set(K.separable_family(h2, alpha0))
    assert sep == brute
    unit = K.unit_multiplicity_family(h2, tup)
    assert family_instantiation_set(unit) == brute


def test_enumeration_completeness_h3(h3):
    tup = K.QTuple.all_ramified(h3)
    brute = brute_force_gminus1_set(h3, tup)
    sep = set()
    for alpha0 in range(h3.m):
        sep |= family_instantiation_set(K.separable_family(h3, alpha0))
    assert sep == brute
    unit = K.unit_multiplicity_family(h3, tup)
    assert family_instantiation_set(unit) == brute
    assert len(brute) == 24  # one arrangement of {0,1,2,3} per permutation


def test_enumeration_completeness_w(w_curve):
    # tuple = the three simple zeros of h1 (lambda = 1)
    places = [w_curve.root_place(k) for k in range(3)]
    tup = K.QTuple.of(w_curve, places)
    fam = K.unit_multiplicity_family(w_curve, tup)
    assert isinstance(fam, DivisorFamily)
    assert family_instantiation_set(fam) == brute_force_gminus1_set(w_curve, tup)


def test_shift_invariance(h3):
    # replacing the offset vector by any other with the same sum preserves verdicts
    fam = K.unit_multiplicity_family(h3, K.QTuple.all_ramified(h3))
    tup = fam.qtuple
    rng = random.Random(2)
    vec = (0,) + fam.alpha_multiset[1:] + ()  # an arbitrary arrangement
    arrangement = (fam.alpha_multiset[0],) + fam.alpha_multiset[1:]
    for _ in range(20):
        offsets = [rng.randint(-2, 2) for _ in range(tup.n - 1)]
        offsets.append(-1 - sum(offsets))
        div = fam.instantiate(arrangement, offsets)
        assert K.nonspecial_gminus1(tup, tup.alpha_of(div))


def test_degree_step_properties(h2, h3):
    # effective nonspecial of degree g minus an unused tuple place -> degree g-1;
    # degree g-1 plus any tuple place -> degree g
    for curve in (h2, h3):
        tup = K.QTuple.all_ramified(curve)
        m = curve.m
        n = tup.n
        for box in itertools.product(range(m), repeat=n):
            if not K.nonspecial_effective_g(tup, box):
                continue
            for k in range(n):
                if box[k] == 0:  # place not in the support
                    dropped = list(box)
                    dropped[k] -= 1
                    assert K.nonspecial_gminus1(tup, dropped)
        for box in itertools.product(range(m), repeat=n):
            alpha = list(box)
            alpha[0] -= m
            if not K.nonspecial_gminus1(tup, alpha):
                continue
            for k in range(n):
                bumped = list(alpha)
                bumped[k] += 1
                assert K.nonspecial_g(tup, bumped)


def test_criteria_iff_dimension_wide_window(h3):
    # the small-degree verdicts must agree with (degree, dimension) over
    # arbitrary class shifts, not just the canonical one
    tup = K.QTuple.all_ramified(h3)
    g, m, n = h3.genus(), h3.m, tup.n
    for s0 in (-2 * m, -m, 0, m):
        for s1 in (-m, 0):
            for box in itertools.product(range(m), repeat=n):
                alpha = list(box)
                alpha[0] += s0
                alpha[1] += s1
                deg = sum(alpha)
                if deg not in (g - 1, g):
                    continue
                dim = K.dim_by_formula(tup, alpha)
                assert K.nonspecial_gminus1(tup, alpha) == (deg == g - 1 and dim == 0)
                assert K.nonspecial_g(tup, alpha) == (deg == g and dim == 1)


def test_checks_imply_dims_random():
    rng = random.Random(77)
    found = 0
    while found < 50:
        curve = random_curve(rng, max_m=6, max_deg=8)
        tup = random_tuple(rng, curve)
        if tup is None:
            continue
        m = curve.m
        alpha = [rng.randint(-m, m) for _ in range(tup.n)]
        g = curve.genus()
        if K.nonspecial_gminus1(tup, alpha):
            assert sum(alpha) == g - 1 and K.dim_by_formula(tup, alpha) == 0
            found += 1
        if K.nonspecial_g(tup, alpha):
            assert sum(alpha) == g and K.dim_by_formula(tup, alpha) == 1
            found += 1


def test_family_serialization(h3):
    fam = K.separable_family(h3, 3)
    obj = fam.to_json()
    assert obj["alpha0"] == 3
    assert obj["alpha_multiset"] == [0, 1, 2]
    assert obj["j_sum"] == -1
    assert obj["canonical"]["coeffs"]


def test_invariant_check_survives_optimize_flag():
    # dim_by_formula is forced to disagree with the criterion; under -O a bare
    # assert would be stripped and the bad verdict returned
    script = """
import kummerlcp as K
from kummerlcp import nonspecial
assert False, "assertions must be disabled"
F = K.field_create(3, 2)
roots = [x for x in range(9) if F.add(F.pow(x, 3), x) == 0]
h3 = K.curve_create(F, 4, 1, [(r, 1) for r in roots])
tup = K.QTuple.all_ramified(h3)
alpha = tup.alpha_of(K.separable_family(h3, 3).canonical())
print(K.nonspecial_gminus1(tup, alpha))
nonspecial.dim_by_formula = lambda qtuple, alpha: 1
try:
    K.nonspecial_gminus1(tup, alpha)
except K.errors.InternalInvariantError as exc:
    print(exc.code)
"""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "InternalInvariant"]


def test_wrong_length_alpha_rejected(h3):
    tup = K.QTuple.all_ramified(h3)
    cases = [(K.nonspecial_gminus1, [-1, 0, 1]), (K.nonspecial_gminus1, [-1, 0, 1, 2, 0]),
             (K.nonspecial_g, [-1, 0, 1, 2, 0]), (K.nonspecial_g, [-1, 0, 1]),
             (K.nonspecial_effective_g, [0, 1, 2]), (K.nonspecial_effective_g, [0, 0, 1, 2, 0])]
    for criterion, alpha in cases:
        with pytest.raises(IndexOutOfRangeError):
            criterion(tup, alpha)


@pytest.mark.parametrize("name", ["h2", "h3", "h5"])
def test_criteria_match_floor_sum_oracle_on_boxes(name, request):
    curve = request.getfixturevalue(name)
    tup = K.QTuple.all_ramified(curve)
    m = curve.m
    accepted = 0
    for box in itertools.product(range(m), repeat=tup.n):
        for s0 in (-2 * m, -m, 0, m):
            alpha = list(box)
            alpha[0] += s0
            expected = oracle_verdicts(tup, alpha)
            got = (K.nonspecial_gminus1(tup, alpha), K.nonspecial_g(tup, alpha))
            assert got == expected, alpha
            accepted += expected[0] + expected[1]
            if s0 == 0:
                # every floor is 0 on the box: the effective criterion is degree g with J = 0
                assert K.nonspecial_effective_g(tup, box) == expected[1], box
    assert accepted > 0


@pytest.mark.parametrize("name", ["h3", "h5"])
def test_criteria_match_per_stratum_dimension_on_boxes(name, request):
    # the whole box, with floor sum J = -1 (first place shifted by -m) and J = 0
    curve = request.getfixturevalue(name)
    tup = K.QTuple.all_ramified(curve)
    m, g = curve.m, curve.genus()
    accepted = [0, 0]
    for box in itertools.product(range(m), repeat=tup.n):
        for s0 in (-m, 0):
            alpha = list(box)
            alpha[0] += s0
            deg, dim = sum(alpha), per_stratum_dim_by_formula(tup, alpha)
            assert K.dim_by_formula(tup, alpha) == dim, alpha
            verdicts = (K.nonspecial_gminus1(tup, alpha), K.nonspecial_g(tup, alpha))
            assert verdicts == (deg == g - 1 and dim == 0, deg == g and dim == 1), alpha
            accepted[0] += verdicts[0]
            accepted[1] += verdicts[1]
    assert min(accepted) > 0


def test_criteria_match_floor_sum_oracle_random():
    # wide tuples (n >= 8 packs fields of 4 or more bits), bundle roots,
    # zeros-only tuples (d_inf > 1) and gap counts above n - 1 must all occur
    rng = random.Random(2026)
    seen = {"bundle": 0, "d_inf": 0, "wide": 0, "gaps > n-1": 0, "gaps > n-2": 0}
    accepted = curves = 0
    while curves < 240:
        wide = curves % 3 == 0
        curve = random_curve(rng, max_m=9, max_deg=18, max_roots=10 if wide else 4)
        places = curve.totally_ramified_places()
        if wide and 8 <= len(places) <= curve.field.q:
            tup = K.QTuple.of(curve, places)
        else:
            tup = random_tuple(rng, curve)
        if tup is None:
            continue
        curves += 1
        m, n, g = curve.m, tup.n, curve.genus()
        gaps = curve.gap_vector()
        seen["bundle"] += any(d > 1 for d in curve.root_gcds)
        seen["d_inf"] += curve.d_inf > 1
        seen["wide"] += n >= 8
        seen["gaps > n-1"] += max(gaps) > n - 1
        seen["gaps > n-2"] += max(gaps) > n - 2
        for _ in range(30):
            alpha = [rng.randint(-4 * m, 4 * m) for _ in range(n)]
            box = [rng.randrange(m) for _ in range(n)]
            # a class shift of the box with offsets summing to -1 or 0
            offsets = [rng.randint(-2, 2) for _ in range(n - 1)]
            offsets.append(rng.choice((-1, 0)) - sum(offsets))
            shifted = [b + m * j for b, j in zip(box, offsets)]
            # the uniform draw moved to degree g - 1 or g on one coordinate
            at_degree = list(alpha)
            at_degree[rng.randrange(n)] += g - rng.randint(0, 1) - sum(alpha)
            for a in (alpha, shifted, at_degree):
                got = (K.nonspecial_gminus1(tup, a), K.nonspecial_g(tup, a))
                assert got == oracle_verdicts(tup, a), (curve.to_json(), a)
                accepted += got[0] + got[1]
            assert K.nonspecial_effective_g(tup, box) == oracle_verdicts(tup, box)[1]
    assert all(count > 0 for count in seen.values()), seen
    assert accepted >= 200, accepted


def test_h5_census_is_the_separable_union(h5):
    tup = K.QTuple.all_ramified(h5)
    census = brute_force_gminus1_set(h5, tup)
    assert len(census) == 720
    union = set()
    for alpha0 in range(h5.m):
        union |= K.separable_family(h5, alpha0).all_divisors_canonical_shift()
    assert union == census


def test_covering_tuple_is_built_once_per_curve(h3):
    # every divisor on the totally ramified places is checked on the curve's
    # one all-ramified tuple, so its tables are built once
    D1 = K.Divisor.of((K.Place.infinity(), 2))
    D2 = K.Divisor.of((h3.root_place(1), 1), (h3.root_place(2), 2))
    tup = covering_tuple(h3, D1)
    assert covering_tuple(h3, D2) is tup is K.QTuple.all_ramified(h3)
    assert tup.places == tuple(h3.totally_ramified_places())
    fresh = hermitian(3)
    assert covering_tuple(fresh, D1) is not tup
    assert covering_tuple(fresh, D1) == K.QTuple.of(fresh, tup.places)


def test_covering_tuple_falls_back_to_the_support():
    # y^2 = x^3 - x over GF(3) has four totally ramified places, more than
    # q = 3, so no tuple holds them all: the support is the tuple
    curve = K.curve_create(K.field_create(3, 1), 2, 1, [(0, 1), (1, 1), (2, 1)])
    assert len(curve.totally_ramified_places()) == 4
    Q0, Q1 = curve.root_place(0), curve.root_place(1)
    D = K.Divisor.of((Q0, 1), (Q1, -1))
    assert covering_tuple(curve, D).places == (Q0, Q1)
    assert K.divisor_nonspecial_gminus1(curve, D) is True
    assert K.dim_by_decomposition(curve, D) == 0

