"""Exact arithmetic in GF(p^e) with a reproducible canonical construction.

Elements are encoded as integers in [0, q): the base-p digits of the encoding
are the coefficients of the polynomial-basis representative, low degree first.
The modulus is the lexicographically smallest monic *primitive* polynomial of
degree e over GF(p), comparing coefficient vectors low-degree first, so the
encodings are bit-identical across runs, machines and processes.  For e = 1
the modulus is the formal polynomial x and the generator is the smallest
primitive root g mod p.

A field holds three tables: the antilog table `_exp`, the log table `_log`
and the Zech table `_zech` for addition, plus `canon` for elimination
(linalg), built on first use.  Multiplication by the generator is an e x e
matrix M over GF(p) acting on digit vectors: the companion matrix of the
modulus, or [[g]] for a prime field.  The modulus scan tests the order of M
by matrix powers, the log/antilog tables are the digit vectors of M^k e_0
(filled by doubling), and the Zech table is read off them.

The scan visits the monic tails low-degree first in lexicographic order, so
the constant c0 is the outer loop.  The norm of x modulo a primitive f,
(-1)^e c0, is the norm of a generator of GF(p^e)*, and the norm maps
GF(p^e)* onto GF(p)*, so it is a primitive root mod p: a c0 that fails this
test rules out its whole block of p^(e-1) tails at once, and the order test
runs only on the tails of the constants that pass.

A doubling step multiplies blocks of digit rows by a power of M in float
BLAS, as linalg.matmul does (Dumas, Giorgi, Pernet, ACM TOMS 35(3), 2008).
An entry of the product is an integer of at most e (p-1)^2, below 2^40 for
every supported field (p < 2^20 when e = 1, p^2 <= 2^20 when e >= 2), and
every partial sum is no larger, so the product is exact in whatever order
BLAS adds: in float32 when e (p-1)^2 + p < 2^24, and in float64 (exact
below 2^53) otherwise.  An entry M is reduced mod p as M - p floor(fl(M / p))
(_reduce), and a row of reduced digits packs into an encoding below
q <= 2^20, exact in either float.  The tables are those of the integer
walk, byte for byte.  Negation,
inversion, powers and m-th roots are read off the logs, with no table of
their own: -a = exp[log a + log(-1)], a^-1 = exp[(q-1) - log a],
a^k = exp[log a (k mod (q-1)) mod (q-1)].  One formula,
`unit_mth_roots`, reads the m-th roots of units off their logs, for
`mth_roots` and for the fibers of a Kummer curve over given x, where the
curve computes log f at those x only.  Fields up to q = 2^20 are supported.

Multiplication is one antilog lookup for every field: log 0 is the sentinel
S = 2(q-1), and the antilog table holds two periods of the generator's
powers followed by zeros, so log a + log b lands in the zero tail exactly
when a or b is 0 and never needs reducing mod q-1.  Addition, in every
field, is a + b = exp[log a + zech[d + S]] with d = log b - log a and a
Zech-logarithm table of 4(q-1) + 1 int32 entries; the operand cases fall
in disjoint ranges of d.  For two units |d| <= q-2 and the entry is
Z(d mod (q-1)) = log(1 + g^d), or S (the zero tail) when 1 + g^d = 0.  For
a = 0 and a unit b, d is in [-S, -q] and the entry is d; for a unit a and
b = 0, d is in [q, S] and the entry is 0; for a = b = 0, d = 0 and
S + Z(0) is in the zero tail.  1 + g^n is g^n with its digit 0 raised by
one mod p, and no entry exceeds 2(q-1) < 2^21 in size.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import (
    DivisionByZeroError,
    FieldMismatchError,
    InternalInvariantError,
    NotPrimeError,
    TooLargeError,
)

MAX_FIELD_SIZE = 1 << 20
_DIGIT_CHUNK = 1 << 16  # digit rows per float product while filling the log tables

_FIELD_CACHE: dict[tuple[int, int], "Field"] = {}


def _is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# --- multiplication by the generator, as an e x e matrix over GF(p) -----------

def _companion(coeffs, p: int) -> np.ndarray:
    """Matrix of multiplication by x modulo the monic f = coeffs, acting on
    digit vectors (coefficients of 1, x, ..., x^(e-1)) as columns."""
    e = len(coeffs) - 1
    mat = np.eye(e, k=-1, dtype=np.int64)
    mat[:, -1] = np.negative(coeffs[:-1]) % p
    return mat


def _matpow(mat: np.ndarray, k: int, p: int) -> np.ndarray:
    """mat^k mod p, square-and-multiply on the exponent."""
    out = np.eye(len(mat), dtype=np.int64)
    while k:
        if k & 1:
            out = out @ mat % p
        mat = mat @ mat % p
        k >>= 1
    return out


def _is_primitive_root(a: int, p: int) -> bool:
    """a generates the multiplicative group of GF(p)."""
    return a % p != 0 and all(pow(a, (p - 1) // r, p) != 1 for r in _prime_factors(p - 1))


def _is_primitive(coeffs: list[int], p: int) -> bool:
    """x has multiplicative order exactly p^e - 1 modulo the monic f = coeffs.

    x^k = 1 mod f exactly when the k-th power of the companion matrix M is
    the identity, so the order of x is the order of M.  Modulo a reducible f
    the ring GF(p)[x]/(f) has zero divisors, so fewer than p^e - 1 units, and
    no element has that order.  The test therefore also proves f irreducible,
    and f is primitive exactly when it passes.
    """
    e = len(coeffs) - 1
    q1 = p**e - 1
    mat, one = _companion(coeffs, p), np.eye(e, dtype=np.int64)
    return np.array_equal(_matpow(mat, q1, p), one) and not any(
        np.array_equal(_matpow(mat, q1 // r, p), one) for r in _prime_factors(q1)
    )


def _canonical_modulus(p: int, e: int) -> tuple[int, ...]:
    """The smallest monic primitive polynomial of degree e, tails compared
    low-degree first; the norm test on c0 skips whole blocks (module
    docstring)."""
    if e == 1:
        return (0, 1)
    for c0 in range(p):
        if not _is_primitive_root((-1) ** e * c0, p):
            continue
        for rest in itertools.product(range(p), repeat=e - 1):
            coeffs = [c0, *rest, 1]
            if _is_primitive(coeffs, p):
                return tuple(coeffs)
    raise InternalInvariantError(f"no primitive polynomial of degree {e} over GF({p})")


def _generator_matrix(p: int, e: int, modulus: tuple[int, ...]) -> np.ndarray:
    """Multiplication by the canonical generator of GF(p^e)*: the companion
    matrix of the primitive modulus, or [[g]] with g the smallest primitive
    root mod p when e = 1 (modulus x)."""
    if e > 1:
        return _companion(modulus, p)
    return np.array([[next(a for a in range(1, p) if _is_primitive_root(a, p))]], dtype=np.int64)


def _reduce(M: np.ndarray, p: int) -> None:
    """M mod p in place, for float integers M with M + p below the float's
    exact range: unless M / p is an integer, it lies at least 1/p from every
    integer, farther than the rounding of fl(M / p) reaches."""
    quot = M / p
    np.floor(quot, out=quot)
    quot *= p
    M -= quot


class Field:
    """GF(p^e) with canonical modulus and integer-encoded elements.

    Construct through :func:`field_create`; direct construction bypasses the
    cache but produces an identical field.
    """

    __slots__ = (
        "p", "e", "q", "modulus",
        "_exp", "_log", "_digit_pows",
        "_zech", "_canon",
    )

    def __init__(self, p: int, e: int):
        # q <= 2^20 needs p <= 2^20 and e <= 20, checked before p**e and
        # before the trial division of p, which a huge p or e would stall
        if p > MAX_FIELD_SIZE or e > MAX_FIELD_SIZE.bit_length() - 1 or p**e > MAX_FIELD_SIZE:
            raise TooLargeError(f"field size {p}^{e} exceeds {MAX_FIELD_SIZE}")
        if not _is_prime(p):
            raise NotPrimeError(f"{p} is not prime")
        if e < 1:
            raise TooLargeError(f"extension degree must be >= 1, got {e}")
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = _canonical_modulus(p, e)
        self._digit_pows = tuple(p**i for i in range(e))
        self._build_log_tables()
        self._build_zech_table()
        self._canon = None

    # -- construction helpers -------------------------------------------

    def _build_log_tables(self) -> None:
        # digits of g^(k+j) are M^k times those of g^j: fill the powers by
        # doubling the filled prefix, one float product per step and chunk
        # of at most _DIGIT_CHUNK rows, exact and reduced as the module
        # docstring says.  Digits are kept as int8 when p <= 127 and in the
        # product's float type above, where e <= 2.
        p, e, q1 = self.p, self.e, self.q - 1
        dtype = np.float32 if e * (p - 1) ** 2 + p < 1 << 24 else np.float64
        mat = _generator_matrix(p, e, self.modulus)
        pows = np.asarray(self._digit_pows, dtype=dtype)
        digits = np.zeros((q1, e), dtype=np.int8 if p <= 127 else dtype)
        digits[0, 0] = 1
        exp = np.ones(q1, dtype=np.int64)
        k = 1
        while k < q1:
            n = min(k, q1 - k)
            step = mat.T.astype(dtype)
            for lo in range(0, n, _DIGIT_CHUNK):
                hi = min(lo + _DIGIT_CHUNK, n)
                block = digits[lo:hi].astype(dtype, copy=False) @ step
                _reduce(block, p)
                digits[k + lo:k + hi] = block
                exp[k + lo:k + hi] = block @ pows
            mat = mat @ mat % p
            k += n
        del digits
        # log 0 = 2(q-1) is the zero sentinel: a sum of two logs is below
        # 2(q-1) for two units, and in the zero tail [2(q-1), 4(q-1)] else
        self._log = np.full(self.q, 2 * q1, dtype=np.int64)
        self._log[exp] = np.arange(q1, dtype=np.int64)
        if np.any(self._log[1:] == 2 * q1):
            raise InternalInvariantError(f"the generator of {self!r} does not reach every unit")
        self._exp = np.zeros(4 * q1 + 1, dtype=np.int64)
        self._exp[:q1] = exp
        self._exp[q1:2 * q1] = exp

    def _build_zech_table(self) -> None:
        # slice by slice: d for a = 0, Z(d mod (q-1)) for |d| <= q-1, 0 for b = 0
        p, q1 = self.p, self.q - 1
        zech = self._zech = np.zeros(4 * q1 + 1, dtype=np.int32)
        zech[:q1] = np.arange(-2 * q1, -q1, dtype=np.int32)
        for lo in range(0, q1, _DIGIT_CHUNK):
            g_n = self._exp[lo:min(lo + _DIGIT_CHUNK, q1)]
            zech[q1 + lo:q1 + lo + len(g_n)] = self._log[g_n + np.where(g_n % p == p - 1, 1 - p, 1)]
        zech[2 * q1:3 * q1] = zech[q1:2 * q1]
        zech[3 * q1] = zech[q1]

    def _canon_table(self) -> np.ndarray:
        """canon[k] = k mod (q-1) below S = 2(q-1) and S from there to 4(q-1),
        int32: a sum of logs read back as a log, with the zero tail kept
        (linalg).  Built on first use, once per field."""
        if self._canon is None:
            q1 = self.q - 1
            canon = np.full(4 * q1 + 1, 2 * q1, dtype=np.int32)
            canon[:q1] = np.arange(q1, dtype=np.int32)
            canon[q1:2 * q1] = canon[:q1]
            self._canon = canon
        return self._canon

    # -- identity / equality ---------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and (self.p, self.e) == (other.p, other.e)

    def __hash__(self) -> int:
        return hash((self.p, self.e))

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.e})" if self.e > 1 else f"GF({self.p})"

    # -- scalar arithmetic on encodings -----------------------------------

    def add(self, a: int, b: int) -> int:
        la = self._log.item(a)
        return self._exp.item(la + self._zech.item(self._log.item(b) - la + 2 * (self.q - 1)))

    def neg(self, a: int) -> int:
        return self._exp.item(self._log.item(a) + self._log.item(self.p - 1))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return self._exp.item(self._log.item(a) + self._log.item(b))

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZeroError("inverse of zero")
        return self._exp.item(self.q - 1 - self._log.item(a))

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, k: int) -> int:
        return int(self.vpow(a, k))

    # -- vectorized arithmetic on int64 numpy arrays ----------------------

    def vadd(self, a, b):
        la = self._log[np.asarray(a, dtype=np.int64)]
        d = self._log[np.asarray(b, dtype=np.int64)] - la
        d += 2 * (self.q - 1)
        return self._exp[la + self._zech[d]]

    def vneg(self, a):
        # -1 is encoded as p - 1; log 0 + log(-1) < 3(q-1) stays in the zero tail
        return self._exp[self._log[np.asarray(a, dtype=np.int64)] + self._log.item(self.p - 1)]

    def vsub(self, a, b):
        return self.vadd(a, self.vneg(b))

    def vmul(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        return self._exp[self._log[a] + self._log[b]]

    def vinv(self, a):
        a = np.asarray(a, dtype=np.int64)
        if np.any(a == 0):
            raise DivisionByZeroError("inverse of zero")
        return self._exp[(self.q - 1) - self._log[a]]

    def vpow(self, a, k: int):
        """a^k for every integer k.  k is reduced mod q-1 first, so the int64
        product cannot overflow; the sentinel log 0 times k is 0 mod q-1, so
        0^k reads 1, right for k = 0 and masked to 0 for k > 0."""
        a = np.asarray(a, dtype=np.int64)
        if k < 0 and np.any(a == 0):
            raise DivisionByZeroError("negative power of zero")
        q1 = self.q - 1
        out = self._exp[self._log[a] * (k % q1) % q1]
        return out * (a != 0) if k > 0 else out

    # -- elements ----------------------------------------------------------

    def element(self, enc: int) -> "FieldElement":
        return FieldElement(self, enc % self.q)

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def to_json(self) -> dict:
        return {"p": self.p, "e": self.e, "modulus": list(self.modulus)}


class FieldElement:
    """An element of GF(p^e), identified by its integer encoding."""

    __slots__ = ("field", "enc")

    def __init__(self, field: Field, enc: int):
        self.field = field
        self.enc = enc

    def _coerce(self, other) -> int:
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatchError(f"{self.field} vs {other.field}")
            return other.enc
        if isinstance(other, int):
            return other % self.field.p
        raise TypeError(f"cannot combine FieldElement with {type(other).__name__}")

    def __add__(self, other):
        return FieldElement(self.field, self.field.add(self.enc, self._coerce(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return FieldElement(self.field, self.field.sub(self.enc, self._coerce(other)))

    def __rsub__(self, other):
        return FieldElement(self.field, self.field.sub(self._coerce(other), self.enc))

    def __mul__(self, other):
        return FieldElement(self.field, self.field.mul(self.enc, self._coerce(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return FieldElement(self.field, self.field.div(self.enc, self._coerce(other)))

    def __rtruediv__(self, other):
        return FieldElement(self.field, self.field.div(self._coerce(other), self.enc))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.enc))

    def __pow__(self, k: int):
        return FieldElement(self.field, self.field.pow(self.enc, k))

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.field == other.field and self.enc == other.enc
        if isinstance(other, int):
            return self.enc == other % self.field.p
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field.p, self.field.e, self.enc))

    def __bool__(self) -> bool:
        return self.enc != 0

    def __repr__(self) -> str:
        return f"{self.field!r}:{self.enc}"


def field_create(p: int, e: int) -> Field:
    """Create (or fetch the cached) GF(p^e) with the canonical modulus."""
    key = (p, e)
    f = _FIELD_CACHE.get(key)
    if f is None:
        f = Field(p, e)
        _FIELD_CACHE[key] = f
    return f


def json_int(value) -> int:
    """An integer read from JSON: a Python or numpy integer, never a bool, a
    float or a string, which int() would truncate or parse.  TypeError else."""
    if value.__class__ is int:
        return value
    if isinstance(value, (int, np.integer)) and value.__class__ is not bool:
        return int(value)
    raise TypeError(f"expected an integer, got {value!r}")


def encoding(field: Field, value) -> int:
    """The encoding of a FieldElement of field (FieldMismatchError for another
    field's) or of an integer read by json_int.  The caller checks the range."""
    if isinstance(value, FieldElement):
        if value.field != field:
            raise FieldMismatchError(f"an element of {value.field} where {field} is expected")
        return value.enc
    return json_int(value)


def field_from_json(obj: dict) -> Field:
    f = field_create(json_int(obj["p"]), json_int(obj["e"]))
    if "modulus" in obj and [json_int(c) for c in obj["modulus"]] != list(f.modulus):
        raise FieldMismatchError("modulus in serialized field is not the canonical one")
    return f


def unit_mth_roots(field: Field, logs, m: int) -> np.ndarray:
    """The roots of y^m = c for units c given by their logs, every one
    divisible by d = gcd(m, q-1), in no set order: the d roots of g^logs for
    an int, row i of them for g^logs[i] for an int64 array.

    y = g^u is a root iff u m = log c mod q-1, which is solvable iff d
    divides log c; the d roots are then g^(u0 + t(q-1)/d), t < d, with
    u0 = (log c / d) (m/d)^-1 mod (q-1)/d: column u0 of the antilog
    table's first period read as d rows of (q-1)/d.
    """
    q1 = field.q - 1
    d = math.gcd(m, q1)
    n = q1 // d
    return field._exp[:q1].reshape(d, n)[:, logs // d * pow(m // d, -1, n) % n].T


def log_mth_roots(field: Field, log_c: int, m: int) -> list[int]:
    """The encodings of all y with y^m = c, ascending, for c given by its
    log: [0] for the zero sentinel 2(q-1), none for a unit whose log
    gcd(m, q-1) does not divide (unit_mth_roots)."""
    q1 = field.q - 1
    if log_c == 2 * q1:
        return [0]
    if log_c % math.gcd(m, q1):
        return []
    return sorted(unit_mth_roots(field, log_c, m).tolist())


def mth_roots(field: Field, c, m: int) -> list[FieldElement]:
    """All y in GF(q) with y^m = c, sorted by encoding; [] for c outside [0, q)."""
    cenc = encoding(field, c)
    m = json_int(m)
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0 <= cenc < field.q:
        return []
    return [FieldElement(field, y) for y in log_mth_roots(field, field._log.item(cenc), m)]
