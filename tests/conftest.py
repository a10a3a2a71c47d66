import os
import random
import sys
import time
from pathlib import Path

import pytest

# one BLAS thread, set before numpy is first imported, as bench/run.py does;
# the CLI subprocesses inherit it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import kummerlcp as K  # noqa: E402


@pytest.fixture(scope="session")
def gf9():
    return K.field_create(3, 2)


@pytest.fixture(scope="session")
def gf4():
    return K.field_create(2, 2)


@pytest.fixture(scope="session")
def gf729():
    return K.field_create(3, 6)


def hermitian(q0: int) -> "K.KummerCurve":
    """y^(q0+1) = x^(q0) + x over GF(q0^2)."""
    p = smallest_prime_factor(q0)
    e = 0
    n = q0
    while n > 1:
        n //= p
        e += 1
    field = K.field_create(p, 2 * e)
    roots = [x for x in range(field.q)
             if field.add(field.pow(x, q0), x) == 0]
    assert len(roots) == q0
    return K.curve_create(field, q0 + 1, 1, [(r, 1) for r in roots])


def smallest_prime_factor(n: int) -> int:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


@pytest.fixture(scope="session")
def h2():
    return hermitian(2)


@pytest.fixture(scope="session")
def h3():
    return hermitian(3)


@pytest.fixture(scope="session")
def h4():
    return hermitian(4)


@pytest.fixture(scope="session")
def h5():
    return hermitian(5)


def make_z_curve() -> "K.KummerCurve":
    """y^7 = -x^5 (x^8 - 1) over GF(729)."""
    field = K.field_create(3, 6)
    unity = [x for x in range(1, field.q) if field.pow(x, 8) == 1]
    assert len(unity) == 8
    return K.curve_create(field, 7, field.neg(1), [(0, 5)] + [(u, 1) for u in unity])


def z_pole_shift_results(z_curve) -> dict:
    """Construction 1 on the Z-curve at s = 2, 77, 153, with E of degree g - 1."""
    E = K.Divisor(
        [(K.Place.infinity(), -7)]
        + [(z_curve.root_place(k + 1), c) for k, c in enumerate([1, 2, 3, 3, 4, 5, 6, 6])]
    )
    return {s: K.lcp_pole_shift(z_curve, E, s) for s in (2, 77, 153)}


@pytest.fixture(scope="session")
def z_curve():
    return make_z_curve()


@pytest.fixture(scope="session")
def z_lcp_results(z_curve):
    """The criterion-9 Z-curve results and the seconds they took to build."""
    t0 = time.time()
    results = z_pole_shift_results(z_curve)
    return results, time.time() - t0


@pytest.fixture(scope="session")
def gk2():
    """The q = 2 member of the maximal-curve family y^9 = (x^2+x) h(x)^3 over GF(64)."""
    field = K.field_create(2, 6)
    hroots = [x for x in range(field.q)
              if field.add(field.add(field.mul(x, x), x), 1) == 0]
    assert len(hroots) == 2
    return K.curve_create(field, 9, 1, [(0, 1), (1, 1)] + [(r, 3) for r in hroots])


@pytest.fixture(scope="session")
def w_curve():
    """y^3 = h1 * h2^2 with h1 = x(x-1)(x-2) separable, h2 = x-3, over GF(7)."""
    field = K.field_create(7, 1)
    return K.curve_create(field, 3, 1, [(0, 1), (1, 1), (2, 1), (3, 2)])


@pytest.fixture(scope="session")
def bundle_curve():
    """y^4 = x(x-1)^2 over GF(25); the root x = 1 carries a bundle of places."""
    field = K.field_create(5, 2)
    return K.curve_create(field, 4, 1, [(0, 1), (1, 2)])


FIELD_CHOICES = [(2, 3), (3, 2), (2, 4), (5, 2), (3, 4)]  # q in {8, 9, 16, 25, 81}


def random_curve(rng: random.Random, max_m: int = 12, max_deg: int = 12,
                 max_roots: int = 4) -> "K.KummerCurve":
    """A random valid curve of genus >= 1 with m <= max_m, deg f <= max_deg
    and at most max_roots distinct roots."""
    while True:
        p, e = rng.choice(FIELD_CHOICES)
        field = K.field_create(p, e)
        m = rng.randint(2, max_m)
        if m % p == 0:
            continue
        n_roots = rng.randint(1, min(max_roots, field.q))
        root_xs = rng.sample(range(field.q), n_roots)
        roots = []
        budget = max_deg
        for a in root_xs:
            lam = rng.randint(1, min(m - 1, budget))
            budget -= lam
            roots.append((a, lam))
            if budget == 0:
                break
        try:
            curve = K.curve_create(field, m, 1, roots)
        except K.errors.KummerError:
            continue
        if curve.genus() >= 1:
            return curve


# fields with q > 2048: two extension fields and a prime field
BIG_FIELDS = [(2, 12), (5, 5), (2053, 1)]


def random_big_curve(rng: random.Random, p: int, e: int, max_m: int = 12,
                     max_roots: int = 4) -> "K.KummerCurve":
    """A random valid curve over GF(p^e) with a random leading constant other
    than 1 and up to max_roots roots of multiplicity in [1, m-1]."""
    field = K.field_create(p, e)
    while True:
        m = rng.randint(2, max_m)
        if m % p == 0:
            continue
        roots = [(a, rng.randint(1, m - 1))
                 for a in rng.sample(range(field.q), rng.randint(1, max_roots))]
        try:
            return K.curve_create(field, m, rng.randrange(2, field.q), roots)
        except K.errors.KummerError:
            continue


def random_tuple(rng: random.Random, curve: "K.KummerCurve") -> "K.QTuple | None":
    places = curve.totally_ramified_places()
    hi = min(len(places), curve.field.q)
    if hi < 2:
        return None
    n = rng.randint(2, hi)
    return K.QTuple.of(curve, sorted(rng.sample(places, n), key=lambda p: p.sort_key()))


def per_stratum_dim_by_formula(qtuple: "K.QTuple", alpha) -> int:
    """The closed-form dimension written out stratum by stratum, from the
    tuple's shifts and the curve's gap vector:
    max(0, 1 + sum floor(alpha_k/m))
      + sum over i of max(0, n - gaps(i) + sum floor((alpha_k - shift_k(i))/m))."""
    m, n = qtuple.curve.m, qtuple.n
    total = max(0, 1 + sum(a // m for a in alpha))
    for i, gaps in enumerate(qtuple.curve.gap_vector(), start=1):
        s = sum((a - t) // m for a, t in zip(alpha, qtuple.shifts(i)))
        total += max(0, n - gaps + s)
    return total


def mth_roots_by_scan(f, m):
    """The roots of y^m = c for every c, by raising every element of the field
    to the m-th power (square and multiply with vmul)."""
    vals, powers, base, k = np.arange(f.q), np.ones(f.q, dtype=np.int64), np.arange(f.q), m
    while k:
        if k & 1:
            powers = f.vmul(powers, base)
        base, k = f.vmul(base, base), k >> 1
    order = np.argsort(powers, kind="stable")
    bounds = np.searchsorted(powers[order], np.arange(f.q + 1))
    return [vals[order[bounds[c]:bounds[c + 1]]].tolist() for c in range(f.q)]


def plant_dependent_row(monkeypatch, divisor: "K.Divisor") -> None:
    """rrspace.evaluation_parts patched so that the rows of L(divisor), which
    drops no affine place, have the last row of one stratum replaced by a
    combination of that stratum's first two: as many rows, rank one less."""
    from kummerlcp import rrspace
    parts = rrspace.evaluation_parts

    def planted(curve, D, places):
        rows, basis, phi, strata = parts(curve, D, places)
        if D == divisor:
            f = curve.field
            i = next(i for i in range(curve.m) if np.count_nonzero(strata == i) >= 3)
            r0, last = np.flatnonzero(strata == i)[[0, -1]]
            rows = rows.copy()
            rows[last] = f.vadd(f.vmul(rows[r0], 2), rows[r0 + 1])
            basis = rows
        return rows, basis, phi, strata

    monkeypatch.setattr(rrspace, "evaluation_parts", planted)


def count_code_ranks(monkeypatch) -> list:
    """The fiber_block_rank calls made through codes from now on, as the
    number of codes stacked in each."""
    from kummerlcp import codes
    calls = []
    rank = codes.fiber_block_rank

    def counted(*cs):
        calls.append(len(cs))
        return rank(*cs)

    monkeypatch.setattr(codes, "fiber_block_rank", counted)
    return calls
