"""The Kummer curve y^m = f(x) and its places, divisors and functions.

f is given by its distinct roots with multiplicities plus a leading constant,
so the ramification structure is explicit: the place over the root a_k is
totally ramified iff gcd(lambda_k, m) = 1, and the place at infinity iff
gcd(deg f, m) = 1.  Places over a root with gcd > 1 are kept as a single
symbolic "bundle" (the sum of all places above, with equal coefficients),
which is all the divisor bookkeeping ever needs.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterable, KeysView, Mapping, NamedTuple, Sequence

import numpy as np

from . import poly
from .errors import (
    CharDividesMError,
    DuplicateRootError,
    InternalInvariantError,
    MultiplicityOutOfRangeError,
    NoTotallyRamifiedPlaceError,
    PoleAtPlaceError,
    SupportOverlapError,
    UnsupportedPlaceStructureError,
    UnsupportedSupportError,
)
from .field import (Field, FieldElement, encoding, field_from_json, json_int, log_mth_roots,
                    unit_mth_roots)

INF = "inf"
ROOT = "root"
AFFINE = "aff"
BUNDLE = "bundle"

_KIND_RANK = {INF: 0, ROOT: 1, BUNDLE: 2, AFFINE: 3}
_FIELD_SLICE = 1 << 14  # field elements per slice while log f(x) is tabulated


class Place(NamedTuple):
    """A tagged place of the function field (all enumerated places rational).

    kind "inf": the place at infinity (requires gcd(deg f, m) = 1).
    kind "root": the totally ramified place over the root with index k.
    kind "aff": the rational place at an affine point (x0, y0), f(x0) != 0.
    kind "bundle": the formal sum of all places over root k when
        gcd(lambda_k, m) > 1; its degree is that gcd.

    A named tuple, so hashing and equality run in C; a place therefore
    also equals the plain tuple of its five fields.
    """

    kind: str
    index: int = -1
    x: int = -1
    y: int = -1
    degree: int = 1

    @staticmethod
    def infinity() -> "Place":
        return Place(INF)

    @staticmethod
    def root(k: int) -> "Place":
        return Place(ROOT, index=k)

    @staticmethod
    def affine(x_enc: int, y_enc: int) -> "Place":
        return Place(AFFINE, x=x_enc, y=y_enc)

    @staticmethod
    def bundle(k: int, degree: int) -> "Place":
        return Place(BUNDLE, index=k, degree=degree)

    def sort_key(self) -> tuple:
        return (_KIND_RANK[self.kind], self.index, self.x, self.y)

    def id(self) -> str:
        if self.kind == INF:
            return "inf"
        if self.kind == ROOT:
            return f"root:{self.index}"
        if self.kind == BUNDLE:
            return f"bundle:{self.index}"
        return f"aff:{self.x}:{self.y}"

    def __repr__(self) -> str:
        return self.id()


def parse_place(curve: "KummerCurve", s: str) -> Place:
    kind, *parts = s.strip().split(":")
    try:
        nums = [int(v) for v in parts]
    except ValueError:
        raise UnsupportedPlaceStructureError(f"cannot parse place id {s!r}") from None
    if kind == "inf" and not nums:
        return Place.infinity()
    if kind in ("root", "bundle") and len(nums) == 1:
        k = nums[0]
        if not 0 <= k < len(curve.roots):
            raise UnsupportedPlaceStructureError(f"no root with index {k}")
        return Place.root(k) if kind == "root" else Place.bundle(k, curve.root_gcds[k])
    if kind == "aff" and len(nums) == 2:
        return Place.affine(*nums)
    raise UnsupportedPlaceStructureError(f"cannot parse place id {s!r}")


class Divisor:
    """Finite formal Z-combination of places, stored sparsely and immutable.
    Coefficients are read by field.json_int: a bool, float or str raises
    TypeError.  The sorted items and the hash are computed once, on first use."""

    __slots__ = ("_coeffs", "_items", "_hash")

    def __init__(self, coeffs: Mapping[Place, int] | Iterable[tuple[Place, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        d: dict[Place, int] = {}
        for place, c in items:
            c = json_int(c)
            if c == 0:
                continue
            c += d.get(place, 0)
            if c:
                d[place] = c
            else:
                del d[place]
        self._coeffs = d
        self._items = self._hash = None

    @staticmethod
    def _checked(coeffs: dict[Place, int]) -> "Divisor":
        """The divisor with exactly these coefficients, taken as they are: every
        one a nonzero int that a Divisor has already read."""
        D = object.__new__(Divisor)
        D._coeffs = coeffs
        D._items = D._hash = None
        return D

    @staticmethod
    def zero() -> "Divisor":
        return Divisor()

    @staticmethod
    def of(*pairs: tuple[Place, int]) -> "Divisor":
        return Divisor(pairs)

    def coeff(self, place: Place) -> int:
        return self._coeffs.get(place, 0)

    def items(self) -> list[tuple[Place, int]]:
        if self._items is None:
            self._items = sorted(self._coeffs.items(), key=lambda pc: pc[0].sort_key())
        return list(self._items)

    def support(self) -> list[Place]:
        return [p for p, _ in self.items()]

    def support_set(self) -> KeysView[Place]:
        """The support as an unordered, set-like view."""
        return self._coeffs.keys()

    def degree(self) -> int:
        return sum(c * p.degree for p, c in self._coeffs.items())

    def __add__(self, other: "Divisor") -> "Divisor":
        return Divisor(chain(self._coeffs.items(), other._coeffs.items()))

    def __sub__(self, other: "Divisor") -> "Divisor":
        return Divisor(chain(self._coeffs.items(), ((p, -c) for p, c in other._coeffs.items())))

    def __neg__(self) -> "Divisor":
        return Divisor._checked({p: -c for p, c in self._coeffs.items()})

    def __mul__(self, k: int) -> "Divisor":
        return Divisor({p: k * c for p, c in self._coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, Divisor) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._coeffs.items()))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __repr__(self) -> str:
        if not self._coeffs:
            return "0"
        return " + ".join(f"{c}*{p.id()}" for p, c in self.items())

    def to_json(self) -> dict:
        return {"coeffs": [{"place": p.id(), "c": c} for p, c in self.items()]}

    @staticmethod
    def from_json(curve: "KummerCurve", obj: dict) -> "Divisor":
        return Divisor((parse_place(curve, e["place"]), e["c"]) for e in obj["coeffs"])


class KummerCurve:
    """y^m = leading * prod (x - a_k)^(lambda_k) over GF(q)."""

    def __init__(self, field: Field, m: int, leading: int, roots: tuple[tuple[int, int], ...]):
        self.field = field
        self.m = m
        self.leading = leading
        self.roots = roots  # ((a_enc, lambda), ...) ascending by encoding
        self.deg_f = sum(lam for _, lam in roots)
        self.root_gcds = tuple(math.gcd(lam, m) for _, lam in roots)
        self.d_inf = math.gcd(self.deg_f, m)
        self.f_poly = poly.from_roots(field, roots, leading)
        self._gaps: tuple[int, ...] | None = None
        self._genus: int | None = None
        self._ramified_tuple = None  # semigroup.QTuple.all_ramified, set there
        self._logs: np.ndarray | None = None

    # -- basic structure ---------------------------------------------------

    @property
    def has_rational_infinity(self) -> bool:
        return self.d_inf == 1

    def f_at(self, x_enc: int) -> int:
        return poly.eval_at(self.field, self.f_poly, x_enc)

    def f_values(self, xs: np.ndarray) -> np.ndarray:
        """f at an array of x encodings, from its factored form."""
        field = self.field
        vals = np.full(len(xs), self.leading, dtype=np.int64)
        for a, lam in self.roots:
            vals = field.vmul(vals, field.vpow(field.vsub(xs, a), lam))
        return vals

    def signed_multiplicity(self, place: Place) -> int:
        """Valuation of f at the x-line place below: lambda_k, or -deg f at infinity."""
        if place.kind == INF:
            return -self.deg_f
        if place.kind in (ROOT, BUNDLE):
            return self.roots[place.index][1]
        raise UnsupportedPlaceStructureError(f"{place.id()} does not lie over a branch place")

    def gap_vector(self) -> tuple[int, ...]:
        """Semigroup gap counts (gaps(1), ..., gaps(m-1)), computed once.

        gaps(i) is the sum of ceil(i*lambda/m) over all branch multiplicities
        of f (the pole counted with multiplicity -deg f), minus one.
        """
        if self._gaps is None:
            m = self.m
            gaps = []
            for i in range(1, m):
                total = -((i * self.deg_f) // m)  # ceil(-i*deg_f/m)
                for _, lam in self.roots:
                    total += -((-i * lam) // m)  # ceil(i*lam/m)
                gaps.append(total - 1)
            self._gaps = tuple(gaps)
        return self._gaps

    def genus(self) -> int:
        """Genus, with an internal Riemann-Hurwitz cross-check."""
        if self._genus is None:
            g_sum = sum(self.gap_vector())
            diff = sum(self.m - d for d in self.root_gcds) + (self.m - self.d_inf)
            two_g_minus_2 = -2 * self.m + diff
            if two_g_minus_2 % 2 != 0 or g_sum != (two_g_minus_2 + 2) // 2:
                raise InternalInvariantError(
                    f"genus mismatch: gap-count sum {g_sum} vs Riemann-Hurwitz "
                    f"{(two_g_minus_2 + 2) / 2}"
                )
            self._genus = g_sum
        return self._genus

    def totally_ramified_places(self) -> list[Place]:
        """Infinity first (when totally ramified), then root places in root order."""
        out: list[Place] = []
        if self.d_inf == 1:
            out.append(Place.infinity())
        out.extend(Place.root(k) for k, d in enumerate(self.root_gcds) if d == 1)
        return out

    def root_place(self, k: int) -> Place:
        if self.root_gcds[k] != 1:
            raise UnsupportedPlaceStructureError(
                f"root {k} has gcd {self.root_gcds[k]} with m; use a bundle"
            )
        return Place.root(k)

    def branch_divisor_entry(self, k: int, per_place_coeff: int) -> tuple[Place, int]:
        """Divisor entry putting per_place_coeff on every place over root k."""
        d = self.root_gcds[k]
        if d == 1:
            return Place.root(k), per_place_coeff
        return Place.bundle(k, d), per_place_coeff

    # -- point enumeration ---------------------------------------------------

    def _f_logs(self) -> np.ndarray:
        """log f(x0) for every x0 in GF(q), int64, cached; the zero sentinel
        2(q-1) at the roots of f.  f is taken one slice of the field at a
        time, so the temporaries of f_values stay slice-sized."""
        if self._logs is None:
            q = self.field.q
            logs = np.empty(q, dtype=np.int64)
            for lo in range(0, q, _FIELD_SLICE):
                hi = min(lo + _FIELD_SLICE, q)
                logs[lo:hi] = self._f_logs_at(np.arange(lo, hi, dtype=np.int64))
            self._logs = logs
        return self._logs

    def _f_logs_at(self, xs) -> np.ndarray:
        """log f(x0) at the x0 in xs (encodings), int64, computed at those x0
        only: the q-sized array of _f_logs is neither read nor built."""
        return self.field._log[self.f_values(np.asarray(xs, dtype=np.int64))]

    def _x_encoding(self, x) -> int:
        """x read by field.encoding; UnsupportedPlaceStructure outside [0, q)."""
        x_enc = encoding(self.field, x)
        if not 0 <= x_enc < self.field.q:
            raise UnsupportedPlaceStructureError(f"x = {x_enc} is not in [0, {self.field.q})")
        return x_enc

    def fiber(self, x) -> tuple[int, ...]:
        """y encodings with y^m = f(x0), ascending: (0,) over a root of f and
        empty when the fiber is irrational.  x is read by field.encoding."""
        return tuple(log_mth_roots(self.field, self._f_logs_at([self._x_encoding(x)]).item(0),
                                   self.m))

    def _splits(self, logs: np.ndarray) -> np.ndarray:
        """Whether each fiber with log f(x0) in logs splits completely: y^m =
        f(x0) != 0 has m roots iff m divides q-1 and log f(x0)."""
        q1 = self.field.q - 1
        return (logs % self.m == 0) & (logs < 2 * q1) & (q1 % self.m == 0)

    def split_x_values(self) -> list[int]:
        """x0 (ascending) whose fiber splits completely into m rational points.

        Above a root of f lies the single point y = 0, so no root qualifies.
        """
        return np.flatnonzero(self._splits(self._f_logs())).tolist()

    def split_fibers(self, xs: Iterable | None = None) -> list[tuple[int, list[Place]]]:
        """(x0, [m affine places]) for completely split fibers, ascending order.
        xs (every split x0 when None) are read by field.encoding, each once,
        and log f is computed at them only (_f_logs_at)."""
        xs = self.split_x_values() if xs is None else sorted({self._x_encoding(x) for x in xs})
        logs = self._f_logs_at(xs)
        split = self._splits(logs)
        if not split.all():
            raise UnsupportedPlaceStructureError(
                f"x = {xs[int(np.argmin(split))]} does not split completely")
        # stable: numpy's default int64 sort pages in its SIMD sort code (0.1-0.2 MB)
        ys = np.sort(unit_mth_roots(self.field, logs, self.m), axis=1, kind="stable").tolist()
        return [(x0, [Place.affine(x0, y0) for y0 in row]) for x0, row in zip(xs, ys)]

    def _point_fibers(self) -> np.ndarray:
        """Whether the fiber over each x0 in GF(q) holds rational points off
        the roots of f: the fiber over x0 has d = gcd(m, q-1) points when d
        divides log f(x0) (the roots' sentinel excluded), else none."""
        logs, q1 = self._f_logs(), self.field.q - 1
        return (logs % math.gcd(self.m, q1) == 0) & (logs < 2 * q1)

    def affine_points(self) -> tuple[np.ndarray, np.ndarray]:
        """(xs, ys): every rational affine point with f(x0) != 0, as int64
        arrays sorted by x and, within a fiber, by y."""
        xs = np.flatnonzero(self._point_fibers())
        ys = np.sort(unit_mth_roots(self.field, self._f_logs()[xs], self.m), axis=1,
                     kind="stable")
        return np.repeat(xs, ys.shape[1]), ys.ravel()

    def affine_point_count(self) -> int:
        """len(affine_points()[0]), counted without building the points:
        d = gcd(m, q-1) points over each x0 whose fiber holds any."""
        return math.gcd(self.m, self.field.q - 1) * int(np.count_nonzero(self._point_fibers()))

    def rational_places(self) -> list[Place]:
        """All enumerated rational places: infinity (if totally ramified),
        totally ramified root places, and every affine point with f(x0) != 0
        in the order of affine_points.

        When gcd(deg f, m) > 1 the infinite places are omitted and the
        enumeration is partial (see has_rational_infinity).
        """
        xs, ys = self.affine_points()
        return self.totally_ramified_places() + list(map(Place.affine, xs.tolist(), ys.tolist()))

    # -- principal divisors ---------------------------------------------------

    def _infinity_entry(self, coeff: int) -> tuple[Place, int]:
        if self.d_inf != 1:
            raise UnsupportedPlaceStructureError(
                "place at infinity is not totally ramified (gcd(deg f, m) > 1)"
            )
        return Place.infinity(), coeff

    def principal_divisor(self, kind: str, b: int | FieldElement | None = None) -> Divisor:
        """Principal divisor of a generator function: kind "y", or "x-b".

        For "x-b" the places over b must be enumerable: b is a root of f or
        its fiber splits completely into m rational points.  Every
        coefficient is a nonzero int over a distinct place, so the divisor is
        built without re-reading them.
        """
        if kind == "y":
            entries = [self.branch_divisor_entry(k, lam // d)
                       for k, ((_, lam), d) in enumerate(zip(self.roots, self.root_gcds))]
            entries.append(self._infinity_entry(-self.deg_f))
            return Divisor._checked(dict(entries))
        if kind == "x-b":
            if b is None:
                raise UnsupportedPlaceStructureError("x-b requires the value b")
            b_enc = self._x_encoding(b)
            for k, (a, _) in enumerate(self.roots):
                if a == b_enc:
                    return Divisor._checked(dict([
                        self.branch_divisor_entry(k, self.m // self.root_gcds[k]),
                        self._infinity_entry(-self.m)]))
            ys = self.fiber(b_enc)
            if len(ys) != self.m:
                raise UnsupportedPlaceStructureError(
                    f"places over x = {b_enc} are not all rational"
                )
            entries = [(Place.affine(b_enc, y0), 1) for y0 in ys]
            entries.append(self._infinity_entry(-self.m))
            return Divisor._checked(dict(entries))
        raise ValueError(f"unknown generator kind {kind!r}")

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "m": self.m,
            "leading": self.leading,
            "roots": [{"a": a, "lambda": lam} for a, lam in self.roots],
        }

    def __repr__(self) -> str:
        return f"KummerCurve(y^{self.m} = f, deg f = {self.deg_f}, over {self.field!r})"


def check_curve_points(curve: KummerCurve, places: Sequence[Place]) -> None:
    """Raise unless places are pairwise distinct rational affine points of
    the curve off the roots of f: encodings in [0, q), f(x) != 0 and
    y^m = f(x).  Evaluation places and affine drops must be such points."""
    if not places:
        return
    if len(set(places)) != len(places):
        raise SupportOverlapError("places must be pairwise distinct")
    if any(p.kind != AFFINE for p in places):
        raise UnsupportedSupportError("places must be affine")
    field = curve.field
    xs = np.array([p.x for p in places], dtype=np.int64)
    ys = np.array([p.y for p in places], dtype=np.int64)
    on_curve = (xs >= 0) & (xs < field.q) & (ys >= 0) & (ys < field.q)
    if on_curve.all():
        fx = curve.f_values(xs)
        on_curve = (fx != 0) & (field.vpow(ys, curve.m) == fx)
    if not on_curve.all():
        bad = places[int(np.argmin(on_curve))]
        raise UnsupportedPlaceStructureError(
            f"{bad.id()} is not a rational affine point of the curve off the roots of f")


def curve_create(field: Field, m: int, leading: int | FieldElement,
                 roots: Iterable[tuple[int | FieldElement, int]]) -> KummerCurve:
    """Validate and build a Kummer curve; root order is canonicalized.  The
    leading constant and roots are read by field.encoding, m and lambda by json_int."""
    m = json_int(m)
    if m < 2:
        raise MultiplicityOutOfRangeError(f"m must be >= 2, got {m}")
    if m % field.p == 0:
        raise CharDividesMError(f"char {field.p} divides m = {m}")
    lead_enc = encoding(field, leading)
    if lead_enc % field.q == 0:
        raise MultiplicityOutOfRangeError("leading constant must be nonzero")
    norm: list[tuple[int, int]] = []
    for a, lam in roots:
        a_enc, lam = encoding(field, a), json_int(lam)
        if not 0 <= a_enc < field.q:
            raise DuplicateRootError(f"root encoding {a_enc} outside field")
        if not 1 <= lam <= m - 1:
            raise MultiplicityOutOfRangeError(
                f"multiplicity {lam} at root {a_enc} outside [1, {m - 1}]"
            )
        norm.append((a_enc, lam))
    norm.sort()
    if len({a for a, _ in norm}) != len(norm):
        raise DuplicateRootError("roots must be pairwise distinct")
    if not norm:
        raise NoTotallyRamifiedPlaceError("f needs at least one root")
    curve = KummerCurve(field, m, lead_enc % field.q, tuple(norm))
    if all(d != 1 for d in curve.root_gcds) and curve.d_inf != 1:
        raise NoTotallyRamifiedPlaceError(
            "no totally ramified place: every gcd(multiplicity, m) > 1"
        )
    return curve


def curve_from_json(obj: dict) -> KummerCurve:
    field = field_from_json(obj["field"])
    return curve_create(field, obj["m"], obj.get("leading", 1),
                        [(r["a"], r["lambda"]) for r in obj["roots"]])


class CurveFunction:
    """A function on the curve: sum over 0 <= i < m of (num_i/den_i)(x) * y^i.

    Representations are kept reduced via y^m -> f(x); denominators are nonzero
    polynomials.
    """

    __slots__ = ("curve", "terms")

    def __init__(self, curve: KummerCurve, terms: Mapping[int, tuple[poly.Poly, poly.Poly]]):
        clean: dict[int, tuple[poly.Poly, poly.Poly]] = {}
        for ypow, (num, den) in terms.items():
            if not den:
                raise ZeroDivisionError("zero denominator in curve function")
            if num:
                clean[int(ypow)] = (num, den)
        self.curve = curve
        self.terms = clean

    @staticmethod
    def one(curve: KummerCurve) -> "CurveFunction":
        return CurveFunction(curve, {0: (poly.ONE, poly.ONE)})

    @staticmethod
    def monomial(curve: KummerCurve, ypow: int, num: poly.Poly = poly.ONE,
                 den: poly.Poly = poly.ONE) -> "CurveFunction":
        """(num/den) * y^ypow, reducing y^m -> f(x) when ypow >= m."""
        k, r = divmod(ypow, curve.m)
        if k:
            num = poly.mul(curve.field, num, poly.pow_(curve.field, curve.f_poly, k))
        return CurveFunction(curve, {r: (poly.normalize(num), poly.normalize(den))})

    def evaluate(self, place: Place) -> FieldElement:
        """Value at an affine place; PoleAtPlace when a denominator vanishes."""
        if place.kind != AFFINE:
            raise UnsupportedPlaceStructureError("can only evaluate at affine places")
        field = self.curve.field
        acc = 0
        for i, (num, den) in sorted(self.terms.items()):
            dv = poly.eval_at(field, den, place.x)
            if dv == 0:
                raise PoleAtPlaceError(f"denominator vanishes at x = {place.x}")
            nv = poly.eval_at(field, num, place.x)
            acc = field.add(acc, field.mul(field.div(nv, dv), field.pow(place.y, i)))
        return FieldElement(field, acc)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for i, (num, den) in sorted(self.terms.items()):
            frac = f"{list(num)}" if den == poly.ONE else f"{list(num)}/{list(den)}"
            bits.append(frac if i == 0 else f"{frac}*y^{i}")
        return " + ".join(bits)
