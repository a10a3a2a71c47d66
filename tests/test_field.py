import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kummerlcp as K
from kummerlcp import field as field_mod
from kummerlcp.errors import (
    DivisionByZeroError,
    FieldMismatchError,
    NotPrimeError,
    TooLargeError,
)

from conftest import BIG_FIELDS, FIELD_CHOICES, mth_roots_by_scan


def naive_gf9_canonical_modulus():
    """Independent scan: smallest (low-degree-first) monic primitive quadratic over GF(3)."""
    for c0 in range(3):
        for c1 in range(3):
            if any((t * t + c1 * t + c0) % 3 == 0 for t in range(3)):
                continue  # has a root, reducible
            # order of x in GF(3)[x]/(f): multiply (u0 + u1 x) by x until it is 1
            cur = (0, 1)
            order = 1
            while cur != (1, 0) and order <= 9:
                cur = ((-c0 * cur[1]) % 3, (cur[0] - c1 * cur[1]) % 3)
                order += 1
            if cur == (1, 0) and order == 8:
                return (c0, c1, 1)
    raise AssertionError("no primitive quadratic found")


def test_gf9_canonical_modulus(gf9):
    assert gf9.modulus == naive_gf9_canonical_modulus() == (2, 1, 1)


def test_prime_field_modulus_convention():
    f = K.field_create(2, 1)
    assert f.modulus == (0, 1)
    assert f.q == 2
    assert f.add(1, 1) == 0


def test_field_create_is_pure():
    a = K.Field(3, 2)
    b = K.Field(3, 2)
    assert a.modulus == b.modulus
    assert all(a.mul(x, y) == b.mul(x, y) for x in range(9) for y in range(9))


def test_field_create_errors():
    with pytest.raises(NotPrimeError):
        K.field_create(6, 1)
    with pytest.raises(TooLargeError):
        K.field_create(2, 21)
    with pytest.raises(TooLargeError):
        K.field_create(3, 0)


@pytest.mark.parametrize("p,e", [(3, 10**20), (1000000000000000003, 1)],
                         ids=["e-1e20", "p-19-digits"])
def test_huge_field_refused_at_once(p, e):
    # a p or e far past 2^20 is refused before p**e is computed or p is
    # trial-divided; in a child process, so that a stall fails on the timeout
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    script = ("import kummerlcp as K, sys\n"
              "try:\n    K.field_create(int(sys.argv[1]), int(sys.argv[2]))\n"
              "except K.errors.TooLargeError:\n    sys.exit(0)\n"
              "sys.exit('accepted')\n")
    proc = subprocess.run([sys.executable, "-c", script, str(p), str(e)],
                          capture_output=True, text=True, env=env, timeout=20)
    assert proc.returncode == 0, proc.stderr


def test_huge_prime_is_not_trial_divided(monkeypatch):
    real = field_mod._is_prime

    def guarded(n):
        assert n <= field_mod.MAX_FIELD_SIZE, f"primality test of {n}"
        return real(n)

    monkeypatch.setattr(field_mod, "_is_prime", guarded)
    for p in (100000000000031, 1000000000000000003, (1 << 20) + 7):
        with pytest.raises(TooLargeError):
            K.field_create(p, 1)
    with pytest.raises(NotPrimeError):  # at the bound p is still tested
        K.field_create((1 << 20) - 1, 1)


def test_gf729_exists(gf729):
    assert gf729.q == 729
    # the first period of the antilog table enumerates the multiplicative group
    assert len(set(gf729._exp[:728].tolist())) == 728


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (5, 1), (3, 4)])
def test_field_axioms_exhaustive(p, e):
    f = K.field_create(p, e)
    q = f.q
    rng = random.Random(q)
    triples = (
        [(a, b, c) for a in range(q) for b in range(q) for c in range(q)]
        if q <= 9
        else [(rng.randrange(q), rng.randrange(q), rng.randrange(q)) for _ in range(3000)]
    )
    for a, b, c in triples:
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in range(q):
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1


def test_frobenius_gf9(gf9):
    for a in range(9):
        assert gf9.pow(a, 9) == a


def test_element_operators(gf9):
    a = gf9.element(5)
    b = gf9.element(7)
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a + 0 == a
    assert (a * a ** -1) == gf9.one()
    assert -(-a) == a
    with pytest.raises(DivisionByZeroError):
        a / gf9.zero()
    other = K.field_create(2, 2).element(1)
    with pytest.raises(FieldMismatchError):
        a + other


def test_vector_ops_match_scalar(gf9):
    rng = np.random.default_rng(1)
    a = rng.integers(0, 9, 200)
    b = rng.integers(0, 9, 200)
    assert all(gf9.vadd(a, b)[i] == gf9.add(int(a[i]), int(b[i])) for i in range(200))
    assert all(gf9.vmul(a, b)[i] == gf9.mul(int(a[i]), int(b[i])) for i in range(200))
    assert all(gf9.vsub(a, b)[i] == gf9.sub(int(a[i]), int(b[i])) for i in range(200))
    nz = a.copy()
    nz[nz == 0] = 1
    assert all(gf9.vinv(nz)[i] == gf9.inv(int(nz[i])) for i in range(200))
    assert all(gf9.vpow(a, 5)[i] == gf9.pow(int(a[i]), 5) for i in range(200))


@pytest.mark.parametrize("p,e", [(3, 6), (2, 16)])
def test_vpow_huge_exponent(p, e):
    # log a * k would overflow int64 for these k unless k is reduced first
    f = K.field_create(p, e)
    a = np.array([0, 1, 2, 5, f.q - 1])
    for k in (2**43 + 1, 2**62, 2**70 + 3, 10**30):
        assert f.vpow(a, k).tolist() == [f.pow(int(x), k) for x in a], k


@pytest.mark.parametrize("p,e", [(3, 2), (2, 11), (5, 5), (1021, 1)])
def test_vsub_is_add_of_negation(p, e):
    f = K.field_create(p, e)
    rng = np.random.default_rng(p + e)
    a = rng.integers(0, f.q, 500)
    b = rng.integers(0, f.q, 500)
    diff = f.vsub(a, b)
    assert np.array_equal(diff, f.vadd(a, f.vneg(b)))
    assert np.array_equal(f.vadd(diff, b), a)
    assert [f.sub(int(x), int(y)) for x, y in zip(a, b)] == diff.tolist()


def x_generates_all_units(tail, p):
    """Whether the powers of x modulo x^e + tail(x) run through all p^e - 1
    nonzero residues before returning to 1 (residues as digit tuples)."""
    e = len(tail)
    one = (1,) + (0,) * (e - 1)
    cur, seen = one, set()
    for _ in range(p**e - 1):
        top = cur[-1]
        cur = tuple((low - top * c) % p for low, c in zip((0,) + cur[:-1], tail))
        if cur in seen or not any(cur):
            return False
        seen.add(cur)
    return cur == one


@pytest.mark.parametrize("p,e", [(p, e) for p in (2, 3, 5, 7, 11, 13) for e in range(2, 9)
                                 if p**e <= 256])
def test_canonical_modulus_is_first_primitive_tail(p, e):
    f = K.field_create(p, e)
    tail = f.modulus[:-1]
    assert f.modulus[-1] == 1 and len(tail) == e
    assert x_generates_all_units(tail, p)
    for smaller in itertools.product(range(p), repeat=e):
        if smaller == tail:
            break
        assert not x_generates_all_units(smaller, p)


def powers_of_x(tail, p):
    """Encodings of x^0, ..., x^(p^e - 2) modulo x^e + tail(x), by the digit
    walk of x_generates_all_units."""
    e = len(tail)
    cur, out = (1,) + (0,) * (e - 1), []
    for _ in range(p**e - 1):
        out.append(sum(d * p**i for i, d in enumerate(cur)))
        top = cur[-1]
        cur = tuple((low - top * c) % p for low, c in zip((0,) + cur[:-1], tail))
    return np.array(out, dtype=np.int64)


def generator_tail(f):
    """The tail whose x is the field's generator: the modulus for e >= 2, and
    x - g for the smallest primitive root g of a prime field."""
    if f.e > 1:
        return f.modulus[:-1]
    return next((-a % f.p,) for a in range(1, f.p) if x_generates_all_units((-a % f.p,), f.p))


def digitwise(f, op, a, b):
    """Apply op to every base-p digit pair of a and b, mod p."""
    out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
    for i in range(f.e):
        pw = f.p**i
        out += (op((a // pw) % f.p, (b // pw) % f.p) % f.p) * pw
    return out


def check_tables_against_reference(f, sample=20000):
    """Compare the field's tables with a scalar digit walk of the generator's
    powers and digit-wise arithmetic.  The antilog table must be the walk
    twice, then 2(q-1) + 1 zeros, and log 0 the sentinel 2(q-1).  Addition
    and multiplication are checked on every pair when q <= 2048 (in row
    blocks of the q x q grid), else on a seeded sample of pairs; scalar add
    and mul on 50 sampled pairs, and scalar mul on every pair with a zero
    operand."""
    q, p = f.q, f.p
    exp = powers_of_x(generator_tail(f), p)
    log = np.full(q, -1, dtype=np.int64)
    log[exp] = np.arange(q - 1)
    assert f._exp.dtype == f._log.dtype == np.int64, f
    assert f._exp.shape == (4 * (q - 1) + 1,) and f._log.shape == (q,), f
    assert f._zech.dtype == np.int32 and f._zech.shape == (4 * (q - 1) + 1,), f
    assert np.array_equal(f._exp[:q - 1], exp), f
    assert np.array_equal(f._exp[q - 1:2 * (q - 1)], exp), f
    assert not f._exp[2 * (q - 1):].any(), f
    assert f._log[0] == 2 * (q - 1) and np.array_equal(f._log[1:], log[1:]), f
    units = np.arange(1, q)
    assert f.vneg(0) == 0 and f.neg(0) == 0
    assert np.array_equal(f.vneg(np.arange(q)), digitwise(f, lambda x, _: -x, np.arange(q), 0)), f
    assert np.array_equal(f.vinv(units), exp[(-log[units]) % (q - 1)]), f

    def ref_mul(a, b):
        return np.where((a == 0) | (b == 0), 0, exp[(log[a] + log[b]) % (q - 1)])

    blocks = ([(np.arange(s, min(s + 256, q))[:, None], np.arange(q)[None, :])
               for s in range(0, q, 256)] if q <= 2048
              else [tuple(np.random.default_rng(q).integers(0, q, (2, sample)))])
    for a, b in blocks:
        assert np.array_equal(f.vadd(a, b), digitwise(f, np.add, a, b)), f
        assert np.array_equal(f.vmul(a, b), ref_mul(a, b)), f
    xs, ys = np.random.default_rng(q).integers(0, q, (2, 50))
    sums = digitwise(f, np.add, xs, ys).tolist()
    assert [f.add(int(x), int(y)) for x, y in zip(xs, ys)] == sums, f
    assert [f.mul(int(x), int(y)) for x, y in zip(xs, ys)] == ref_mul(xs, ys).tolist(), f
    assert not any(f.mul(0, x) or f.mul(x, 0) for x in range(q)), f


def _prime_powers(limit):
    return [(p, e) for p in range(2, limit + 1) if all(p % d for d in range(2, int(p**0.5) + 1))
            for e in range(1, 13) if p**e <= limit]


TABLE_FIELDS = _prime_powers(4096)


@pytest.mark.parametrize("p,e", [(p, e) for p, e in TABLE_FIELDS if e > 1])
def test_tables_match_scalar_reference_extension_fields(p, e):
    f = K.Field(p, e)  # uncached, so the cache does not keep every field
    check_tables_against_reference(f)


@pytest.mark.parametrize("lo,hi", [(2, 1000), (1000, 2000), (2000, 3000), (3000, 4097)])
def test_tables_match_scalar_reference_prime_fields(lo, hi):
    # primes above 2048, e.g. 4093, are checked on a sample of pairs
    primes = [p for p, e in TABLE_FIELDS if e == 1 and lo <= p < hi]
    assert primes
    for p in primes:
        check_tables_against_reference(K.Field(p, 1), sample=5000)


@pytest.mark.parametrize("p,exp,log", [(2, [1, 1, 0, 0, 0], [2, 0]),
                                       (3, [1, 2, 1, 2, 0, 0, 0, 0, 0], [4, 0, 1])])
def test_tables_shortest_periods(p, exp, log):
    # q - 1 <= 2: the periods of the antilog table and its zero tail are
    # shortest, and every range of the Zech table is one or two entries long
    # (the prime-field cross-test above also covers both fields)
    zech = {2: [-2, 2, 2, 2, 0], 3: [-4, -3, 1, 4, 1, 4, 1, 0, 0]}[p]
    f = K.Field(p, 1)
    assert f._exp.tolist() == exp and f._log.tolist() == log and f._zech.tolist() == zech
    for op, vop, ref in ((f.add, f.vadd, np.add), (f.mul, f.vmul, np.multiply)):
        assert [[op(a, b) for b in range(p)] for a in range(p)] == \
            [[ref(a, b) % p for b in range(p)] for a in range(p)]
        grid = np.arange(p)
        assert np.array_equal(vop(grid[:, None], grid[None, :]),
                              ref.outer(grid, grid) % p)


@pytest.mark.parametrize("p,e", [(2, 8), (3, 5), (1021, 1), (2, 20)])
def test_addition_with_zero_and_opposite_operands(p, e):
    # each range of the Zech table: a + 0, 0 + b, 0 + 0, and a + (-a), the
    # unit case whose sum is 0; scalar add against vadd on the same pairs
    f = K.field_create(p, e)
    a = np.arange(f.q) if f.q <= 4096 else np.random.default_rng(e).integers(0, f.q, 4096)
    zero, neg = np.zeros_like(a), f.vneg(a)
    assert np.array_equal(f.vadd(a, zero), a) and np.array_equal(f.vadd(zero, a), a)
    assert not f.vadd(a, neg).any() and not f.vadd(neg, a).any()
    assert f.vadd(0, 0) == f.add(0, 0) == 0
    b = np.random.default_rng(f.q).integers(0, f.q, a.size)
    for x, y in ((a, zero), (zero, a), (a, neg), (a, b)):
        assert f.vadd(x, y).tolist() == [f.add(int(s), int(t)) for s, t in zip(x, y)]


def test_gf2_16_tables_on_a_sample():
    check_tables_against_reference(K.field_create(2, 16))


def test_gf2_20_exp_holds_every_unit():
    f = K.Field(2, 20)
    q1 = f.q - 1
    assert f._exp.shape == (4 * q1 + 1,)
    assert np.unique(f._exp[:q1]).size == q1 and f._exp[:q1].min() >= 1
    assert np.array_equal(f._exp[q1:2 * q1], f._exp[:q1]) and not f._exp[2 * q1:].any()
    assert f._log[0] == 2 * q1 and np.array_equal(f._exp[f._log[1:]], np.arange(1, f.q))


def int64_oracle(p, e):
    """GF(p^e) built the earlier way, as an uncached Field: the flat scan of
    every monic tail with the norm test inside it, and the log tables doubled
    in int64 products on _DIGIT_CHUNK rows at a time.  The Zech table is read
    off those tables by the library's own routine."""
    if e == 1:
        modulus = (0, 1)
    else:
        modulus = next(tail + (1,) for tail in itertools.product(range(p), repeat=e)
                       if field_mod._is_primitive_root((-1) ** e * tail[0], p)
                       and field_mod._is_primitive(list(tail) + [1], p))
    q1 = p**e - 1
    mat = field_mod._generator_matrix(p, e, modulus)
    pows = np.asarray([p**i for i in range(e)], dtype=np.int64)
    digits = np.zeros((q1, e), dtype=np.int8 if p <= 127 else np.int64)
    digits[0, 0] = 1
    exp = np.ones(q1, dtype=np.int64)
    k = 1
    while k < q1:
        n = min(k, q1 - k)
        for lo in range(0, n, field_mod._DIGIT_CHUNK):
            hi = min(lo + field_mod._DIGIT_CHUNK, n)
            block = digits[lo:hi].astype(np.int64) @ mat.T % p
            digits[k + lo:k + hi] = block
            exp[k + lo:k + hi] = block @ pows
        mat = mat @ mat % p
        k += n
    f = object.__new__(K.Field)
    f.p, f.e, f.q, f.modulus = p, e, p**e, modulus
    f._log = np.full(p**e, 2 * q1, dtype=np.int64)
    f._log[exp] = np.arange(q1, dtype=np.int64)
    f._exp = np.zeros(4 * q1 + 1, dtype=np.int64)
    f._exp[:q1] = exp
    f._exp[q1:2 * q1] = exp
    f._build_zech_table()
    return f


def assert_same_tables(f, oracle):
    assert f.modulus == oracle.modulus, f
    for name in ("_exp", "_log", "_zech"):
        a, b = getattr(f, name), getattr(oracle, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), (f, name)


# GF(4099) and GF(1048573) double in float64: e (p-1)^2 + p >= 2^24
@pytest.mark.parametrize("p,e", FIELD_CHOICES + BIG_FIELDS + [(2, 16), (3, 12), (2, 20),
                                                              (4099, 1), (1048573, 1)])
def test_float_build_matches_int64_oracle(p, e):
    assert_same_tables(K.Field(p, e), int64_oracle(p, e))


@pytest.mark.parametrize("p,e", [(2, 8), (3, 5), (131, 2), (257, 1), (4099, 1)])
def test_log_tables_filled_in_small_chunks(monkeypatch, p, e):
    # int8 digits for p <= 127, float above; float32 products below 4099 and
    # float64 from it; chunk edges inside every doubling step
    ref = K.field_create(p, e)
    monkeypatch.setattr(K.field, "_DIGIT_CHUNK", 7)
    small = K.field.Field(p, e)
    assert_same_tables(small, ref)
    assert_same_tables(small, int64_oracle(p, e))
    a, units = np.arange(ref.q), np.arange(1, ref.q)
    for op, arg in (("vneg", a), ("vinv", units)):
        x, y = getattr(ref, op)(arg), getattr(small, op)(arg)
        assert x.dtype == y.dtype and np.array_equal(x, y)


@pytest.mark.parametrize("p,e", [(2, 16), (5, 6), (3, 10)])
def test_scan_tests_only_constants_that_pass_the_norm_test(monkeypatch, p, e):
    # the order test runs on every tail of a passing constant, in scan order,
    # up to the modulus, and on no tail of a failing one
    seen = []
    order_test = field_mod._is_primitive

    def counted(coeffs, p_):
        seen.append(tuple(coeffs))
        return order_test(coeffs, p_)

    monkeypatch.setattr(field_mod, "_is_primitive", counted)
    modulus = field_mod._canonical_modulus(p, e)
    passing = [tail + (1,) for tail in itertools.product(range(p), repeat=e)
               if field_mod._is_primitive_root((-1) ** e * tail[0], p)]
    assert seen == passing[:passing.index(modulus) + 1]
    assert modulus == K.Field(p, e).modulus == int64_oracle(p, e).modulus


def test_gf3_10_modulus():
    # the norm prefilter leaves the scan quick here; the tail is the one the
    # full scan without it finds
    f = K.field_create(3, 10)
    assert f.modulus == (2, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1)
    assert x_generates_all_units(f.modulus[:-1], 3)


def test_field_axioms_gf5_5():
    # GF(5^5), q = 3125: the operations on random pairs agree with the axioms
    f = K.field_create(5, 5)
    rng = random.Random(7)
    for _ in range(500):
        a, b = rng.randrange(f.q), rng.randrange(f.q)
        assert f.add(a, b) == f.add(b, a)
        assert f.sub(f.add(a, b), b) == a
        if b:
            assert f.mul(f.div(a, b), b) == a
    arr = np.array([rng.randrange(f.q) for _ in range(64)], dtype=np.int64)
    brr = np.array([rng.randrange(f.q) for _ in range(64)], dtype=np.int64)
    assert all(f.vadd(arr, brr)[i] == f.add(int(arr[i]), int(brr[i])) for i in range(64))
    assert all(f.vmul(arr, brr)[i] == f.mul(int(arr[i]), int(brr[i])) for i in range(64))


def test_mth_roots_examples(gf9):
    assert [e.enc for e in K.mth_roots(gf9, 0, 4)] == [0]
    quartics = {gf9.pow(y, 4) for y in range(1, 9)}
    for c in range(1, 9):
        roots = K.mth_roots(gf9, c, 4)
        if c in quartics:
            assert len(roots) == 4
        else:
            assert roots == []
        for r in roots:
            assert gf9.pow(r.enc, 4) == c


@pytest.mark.parametrize("p,e,m", [(3, 2, 4), (2, 2, 3), (3, 2, 5), (5, 1, 2), (2, 3, 7)])
def test_mth_roots_cardinality(p, e, m):
    f = K.field_create(p, e)
    total = 0
    expected = math.gcd(m, f.q - 1)
    for c in range(f.q):
        roots = K.mth_roots(f, c, m)
        total += len(roots)
        if c != 0:
            assert len(roots) in (0, expected)
        for r in roots:
            assert f.pow(r.enc, m) == c
    assert total == f.q


def test_mth_roots_reads_c_and_m_as_integers_or_elements(gf9, gf4):
    assert K.mth_roots(gf9, gf9.element(1), 4) == K.mth_roots(gf9, np.int64(1), 4)
    for c, m in [(1.9, 4), (1.0, 4), (True, 4), ("1", 4), (1, 4.0)]:
        with pytest.raises(TypeError):
            K.mth_roots(gf9, c, m)
    with pytest.raises(FieldMismatchError):
        K.mth_roots(gf9, gf4.element(1), 4)


def test_encoding_one_rule(gf9, gf4):
    assert field_mod.encoding(gf9, gf9.element(5)) == 5
    assert field_mod.encoding(gf9, np.uint8(5)) == 5
    assert field_mod.encoding(gf9, 12) == 12  # the range is the caller's
    for bad in (5.0, 2.7, False, "5", None):
        with pytest.raises(TypeError):
            field_mod.encoding(gf9, bad)
    with pytest.raises(FieldMismatchError):
        field_mod.encoding(gf9, gf4.element(1))


def test_mth_roots_m_equal_one(gf9):
    for c in range(9):
        assert [e.enc for e in K.mth_roots(gf9, c, 1)] == [c]


def test_field_serialization_roundtrip(gf9):
    obj = gf9.to_json()
    assert obj == {"p": 3, "e": 2, "modulus": [2, 1, 1]}
    assert K.field_from_json(obj) == gf9
    with pytest.raises(FieldMismatchError):
        K.field_from_json({"p": 3, "e": 2, "modulus": [1, 1, 1]})


@pytest.mark.parametrize("p,e", FIELD_CHOICES + [(2, 11), (1021, 1)])
def test_canon_table_reads_sums_of_logs_back(p, e):
    # int32 and built once per field: k mod (q-1) below the zero sentinel
    # 2(q-1), the sentinel from there to 4(q-1)
    f = K.field_create(p, e)
    canon, q1 = f._canon_table(), f.q - 1
    k = np.arange(4 * q1 + 1)
    assert canon.dtype == np.int32 and canon is f._canon_table()
    assert np.array_equal(canon, np.where(k < 2 * q1, k % q1, 2 * q1))


@pytest.mark.parametrize("p,e", FIELD_CHOICES + BIG_FIELDS + [(2, 20)])
def test_vneg_vinv_read_off_the_logs(p, e):
    # bit-identical to the negation and inversion tables they replace:
    # exp[(log a + log(-1)) mod (q-1)] and exp[-log a mod (q-1)], 0 -> 0
    f = K.field_create(p, e)
    q1, a = f.q - 1, np.arange(f.q)
    log, exp = f._log[a], f._exp[:q1]
    neg = np.where(a == 0, 0, exp[(log + f._log[p - 1]) % q1])
    got = f.vneg(a)
    assert got.dtype == np.int64 and np.array_equal(got, neg)
    got = f.vinv(a[1:])
    assert got.dtype == np.int64 and np.array_equal(got, exp[-log[1:] % q1])
    sample = np.random.default_rng(f.q).integers(1, f.q, 200).tolist()
    assert [f.neg(x) for x in [0] + sample] == neg[[0] + sample].tolist()
    assert [f.inv(x) for x in sample] == exp[-log[sample] % q1].tolist()
    with pytest.raises(DivisionByZeroError):
        f.vinv(a[:3])
    with pytest.raises(DivisionByZeroError):
        f.inv(0)


@pytest.mark.parametrize("p,e", FIELD_CHOICES + [(2, 11), (1021, 1)])
def test_pow_and_vpow_for_every_sign_of_k(p, e):
    # a^k = exp[log a * k mod (q-1)] for units, in Python integers; 0^0 = 1,
    # 0^k = 0 for k > 0, and 0^k for k < 0 raises
    f = K.field_create(p, e)
    q, q1 = f.q, f.q - 1
    units = np.random.default_rng(q).integers(1, q, 64)
    for k in (-10**30, -q, -1, 0, 1, q1, q, 10**30):
        want = [f._exp.item(f._log.item(a) * k % q1) for a in units.tolist()]
        assert f.vpow(units, k).tolist() == want, k
        assert [f.pow(a, k) for a in units.tolist()] == want, k
        if k < 0:
            with pytest.raises(DivisionByZeroError):
                f.pow(0, k)
            with pytest.raises(DivisionByZeroError):
                f.vpow(np.array([1, 0]), k)
        else:
            assert f.pow(0, k) == int(k == 0), k
            assert f.vpow(np.array([0, 1]), k).tolist() == [int(k == 0), 1], k


@pytest.mark.parametrize("p,e", [(3, 2), (5, 2), (2, 8), (3, 6), (1021, 1)])
def test_mth_roots_match_the_field_scan(p, e):
    f = K.field_create(p, e)
    for m in (1, 2, 3, 4, 7, f.q - 1, f.q + 1):
        want = mth_roots_by_scan(f, m)
        for c in range(f.q):
            assert [r.enc for r in K.mth_roots(f, c, m)] == want[c], (m, c)
        assert K.mth_roots(f, -1, m) == K.mth_roots(f, f.q, m) == []


def test_is_prime_against_a_sieve():
    sieve = np.ones(5000, dtype=bool)
    sieve[:2] = False
    for n in range(2, 71):
        sieve[n * n::n] = False
    assert [n for n in range(-3, 5000) if field_mod._is_prime(n)] == np.flatnonzero(sieve).tolist()


def test_mth_roots_memory_on_gf2_20():
    # read off the logs, mth_roots allocates nothing of the field's size; the
    # scan over the field it replaces peaked about 20 MB above the field's
    # build.  tracemalloc sees numpy's buffers and, unlike ru_maxrss, is not
    # raised by the RSS of the process that starts the child
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    script = ("import tracemalloc, kummerlcp as K\n"
              "f = K.field_create(2, 20)\n"
              "tracemalloc.start()\n"
              "for c, m in ((5, 41), (5, 3), (7, 1 << 20)):\n    K.mth_roots(f, c, m)\n"
              "print(tracemalloc.get_traced_memory()[1] / 2**20)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 5, f"mth_roots allocated {proc.stdout.strip()} MB at its peak"
