"""Correctness checks for the benchmark, computed apart from kummerlcp.

Every check compares a program output with a value this file computes on
its own (field arithmetic, elimination, genus, point counts) or with a
property the paper's method must have (closed-form LCP dimensions, the
Goppa bound, the Singleton bound, agreement of independent oracles).  None
of them compares with a stored copy of an earlier output.  A failing check
raises CheckFailed.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's own value."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class RefField:
    """GF(p^e) arithmetic on kummerlcp's integer encoding, written apart from it.

    An encoding's base-p digits are the coefficients, low degree first, of
    the polynomial-basis representative modulo `modulus` (monic, low degree
    first).  For e = 1 the encoding is the residue and arithmetic is plain
    mod p.  For e > 1 the class x must generate the multiplicative group;
    the constructor walks its powers and refuses a modulus for which it
    does not, so the log tables below are complete.
    """

    def __init__(self, p: int, e: int, modulus=(0, 1)):
        self.p, self.e, self.q = p, e, p**e
        q = self.q
        if e == 1:
            return
        modulus = [int(c) for c in modulus]
        require(len(modulus) == e + 1 and modulus[-1] == 1,
                f"modulus {modulus} is not monic of degree {e}")
        pows = [p**i for i in range(e)]
        # -(c * modulus_low) as an encoding, for the overflow digit c of x * a
        reduce_by = [
            sum(((-c * modulus[i]) % p) * pows[i] for i in range(e)) for c in range(p)
        ]
        exp = np.zeros(q - 1, dtype=np.int64)
        log = np.full(q, -1, dtype=np.int64)
        a = 1
        for i in range(q - 1):
            require(log[a] < 0, f"x has order {i} < {q - 1} modulo {modulus}")
            exp[i] = a
            log[a] = i
            top, low = divmod(a * p, q)
            a = self._scalar_add(low, reduce_by[top]) if top else low
        require(a == 1, f"x does not generate GF({p}^{e})* modulo {modulus}")
        self._exp, self._log = exp, log
        if p != 2:
            vals = np.arange(q, dtype=np.int64)
            self._digits = np.stack([(vals // pw) % p for pw in pows], axis=1)
            self._pows = np.asarray(pows, dtype=np.int64)
            self._neg = ((p - self._digits) % p) @ self._pows
            self._add_table = None
            if q <= 1024:
                table = np.zeros((q, q), dtype=np.int64)
                for i, pw in enumerate(pows):
                    col = self._digits[:, i]
                    table += ((col[:, None] + col[None, :]) % p) * pw
                self._add_table = table

    def _scalar_add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        out, pw = 0, 1
        for _ in range(self.e):
            out += (((a // pw) + (b // pw)) % self.p) * pw
            pw *= self.p
        return out

    def add(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if self._add_table is not None:
            return self._add_table[a, b]
        return ((self._digits[a] + self._digits[b]) % self.p) @ self._pows

    def neg(self, a):
        a = np.asarray(a, dtype=np.int64)
        if self.e == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        return self._neg[a]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.e == 1:
            return (a * b) % self.p
        s = self._log[a] + self._log[b]
        out = self._exp[s % (self.q - 1)]
        return np.where((a == 0) | (b == 0), 0, out)

    def inv(self, a: int) -> int:
        a = int(a)
        require(a != 0, "inverse of zero")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return int(self._exp[(-int(self._log[a])) % (self.q - 1)])

    def is_nonzero_mth_power(self, c, m: int):
        """Whether y^m = c has a solution with y != 0 (then it has gcd(m, q-1))."""
        c = np.asarray(c, dtype=np.int64)
        d = math.gcd(m, self.q - 1)
        if self.e == 1:
            return (c != 0) & (_vpow_mod(c, (self.q - 1) // d, self.p) == 1)
        return (c != 0) & (self._log[c] % d == 0)

    def poly_from_roots(self, leading: int, roots, xs):
        """leading * prod (x - a)^lam evaluated at every encoding in xs."""
        acc = np.full(np.shape(xs), leading, dtype=np.int64)
        for a, lam in roots:
            lin = self.sub(xs, np.full(np.shape(xs), a, dtype=np.int64))
            for _ in range(lam):
                acc = self.mul(acc, lin)
        return acc


def _vpow_mod(c: np.ndarray, k: int, p: int) -> np.ndarray:
    result = np.ones_like(c)
    base = c % p
    while k:
        if k & 1:
            result = (result * base) % p
        base = (base * base) % p
        k >>= 1
    return result


def ref_rank(rf: RefField, matrix) -> int:
    """Row rank by Gaussian elimination over rf, on a copy of the matrix."""
    A = np.array(matrix, dtype=np.int64, copy=True)
    if A.size == 0:
        return 0
    require(A.min() >= 0 and A.max() < rf.q, f"matrix entries outside [0, {rf.q})")
    rows, cols = A.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(A[r:, c])
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            A[[r, piv], c:] = A[[piv, r], c:]
        A[r, c:] = rf.mul(A[r, c:], rf.inv(A[r, c]))
        below = r + 1 + np.flatnonzero(A[r + 1:, c])
        if below.size:
            A[below, c:] = rf.sub(A[below, c:], rf.mul(A[below, c][:, None], A[r, c:][None, :]))
        r += 1
    return r


def ref_encode(rf: RefField, messages, generator) -> np.ndarray:
    """messages (count x k) times generator (k x N) over rf."""
    messages = np.asarray(messages, dtype=np.int64)
    generator = np.asarray(generator, dtype=np.int64)
    out = np.zeros((messages.shape[0], generator.shape[1]), dtype=np.int64)
    for j in range(generator.shape[0]):
        out = rf.add(out, rf.mul(messages[:, j][:, None], generator[j][None, :]))
    return out


# --- curve invariants ----------------------------------------------------------

def riemann_hurwitz_genus(m: int, lambdas) -> int:
    """Genus of y^m = c * prod (x - a_k)^lambda_k with p not dividing m:
    2g - 2 = -2m + sum_k (m - gcd(m, lambda_k)) + (m - gcd(m, deg f))."""
    deg_f = sum(lambdas)
    two_g_minus_2 = -2 * m + sum(m - math.gcd(m, lam) for lam in lambdas)
    two_g_minus_2 += m - math.gcd(m, deg_f)
    return two_g_minus_2 // 2 + 1


def check_genus(label: str, genus: int, m: int, lambdas) -> None:
    expected = riemann_hurwitz_genus(m, lambdas)
    require(genus == expected, f"{label}: genus {genus}, Riemann-Hurwitz gives {expected}")


def check_hasse_weil(label: str, places: int, q: int, genus: int,
                     maximal: bool = False) -> None:
    """|N - (q + 1)| <= 2 g sqrt(q), with equality at the top for a maximal curve."""
    dev = places - (q + 1)
    require(dev * dev <= 4 * genus * genus * q,
            f"{label}: {places} places break the Hasse-Weil bound (q={q}, g={genus})")
    if maximal:
        require(dev >= 0 and dev * dev == 4 * genus * genus * q,
                f"{label}: {places} places, but the curve is maximal")


def check_fibers(label: str, place_ids, m: int) -> None:
    """Every affine fiber listed has exactly m points (a fiber with none is not listed)."""
    sizes = Counter(pid.split(":")[1] for pid in place_ids if pid.startswith("aff:"))
    bad = sorted((int(x), n) for x, n in sizes.items() if n != m)
    require(not bad, f"{label}: fibers with neither 0 nor {m} points: {bad[:5]}")


def own_split_xs(rf: RefField, m: int, leading: int, roots) -> np.ndarray:
    """x encodings, not roots of f, whose fiber y^m = f(x) splits into m points.

    Needs m | q - 1, so that each nonzero m-th power has exactly m roots.
    """
    require((rf.q - 1) % m == 0, f"m = {m} does not divide q - 1 = {rf.q - 1}")
    xs = np.arange(rf.q, dtype=np.int64)
    fx = rf.poly_from_roots(leading, roots, xs)
    return xs[rf.is_nonzero_mth_power(fx, m)]


def check_curve_info(label: str, info: dict, *, q: int, m: int, lambdas,
                     split_count: int, maximal: bool = False) -> None:
    """curve-info output against the genus, point count and Hasse-Weil bound
    computed here.  All ramified places are rational and totally ramified on
    the benchmark's curves, so #places = 1 + #roots + m * #split fibers."""
    check_genus(label, info["genus"], m, lambdas)
    require(info["q"] == q and info["m"] == m and info["deg_f"] == sum(lambdas),
            f"{label}: curve parameters {info['q'], info['m'], info['deg_f']} differ")
    require(info["split_x_count"] == split_count,
            f"{label}: {info['split_x_count']} split fibers, counted {split_count}")
    expected = 1 + len(lambdas) + m * split_count
    require(info["rational_places"] == expected,
            f"{label}: {info['rational_places']} rational places, counted {expected}")
    check_hasse_weil(label, info["rational_places"], q, info["genus"], maximal)


# --- codes -----------------------------------------------------------------------

def check_dims(label: str, got: tuple[int, int], expected: tuple[int, int]) -> None:
    require(tuple(got) == tuple(expected),
            f"{label}: dimensions {tuple(got)}, closed form gives {tuple(expected)}")


def check_lcp_ranks(rf: RefField, label: str, gen_g, gen_h, k1: int, k2: int, N: int) -> None:
    """Both generators have full row rank k_i and their stack has rank N."""
    for name, gen, k in (("G", gen_g, k1), ("H", gen_h, k2)):
        gen = np.asarray(gen)
        require(gen.shape == (k, N), f"{label}: generator {name} has shape {gen.shape}")
        r = ref_rank(rf, gen)
        require(r == k, f"{label}: generator {name} has rank {r}, not {k}")
    r = ref_rank(rf, np.vstack([np.asarray(gen_g), np.asarray(gen_h)]))
    require(r == N, f"{label}: stacked rank {r}, not N = {N}")


def check_goppa(label: str, messages, words, N: int, deg_g: int) -> None:
    """Every codeword of a nonzero message has weight >= N - deg G."""
    messages = np.asarray(messages)
    words = np.asarray(words)
    require(words.shape == (messages.shape[0], N), f"{label}: codeword shape {words.shape}")
    nonzero = np.any(messages != 0, axis=1)
    if not nonzero.any():
        return
    lightest = int(np.count_nonzero(words[nonzero], axis=1).min())
    require(lightest >= N - deg_g,
            f"{label}: codeword of weight {lightest} < N - deg G = {N - deg_g}")


def check_encoding(rf: RefField, label: str, messages, generator, words) -> None:
    """Codewords equal message times generator, multiplied out here."""
    require(np.array_equal(ref_encode(rf, messages, generator), np.asarray(words)),
            f"{label}: encoded words differ from message x generator")


def check_min_distance(label: str, d: int, N: int, k: int, deg_g: int) -> None:
    """N - deg G <= d <= N - k + 1 (Goppa and Singleton bounds)."""
    require(N - deg_g <= d <= N - k + 1,
            f"{label}: d = {d} outside [N - deg G, N - k + 1] = [{N - deg_g}, {N - k + 1}]")


# --- non-special divisors ----------------------------------------------------------

def check_census(label: str, brute: set, separable: set, unit: set) -> None:
    require(len(brute) > 0, f"{label}: empty census")
    require(brute == separable,
            f"{label}: box scan found {len(brute)}, separable families {len(separable)}")
    require(brute == unit,
            f"{label}: box scan found {len(brute)}, unit family {len(unit)}")


def check_oracles(label: str, dims) -> None:
    """Each entry is (alpha, formula, class count, decomposition)."""
    bad = [row for row in dims if not row[1] == row[2] == row[3]]
    require(not bad, f"{label}: dimension oracles disagree on {bad[:3]}")
