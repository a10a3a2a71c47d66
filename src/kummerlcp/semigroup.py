"""Arithmetic kernel for divisors supported on totally ramified places.

For a tuple Q = (Q_1, ..., Q_n) of totally ramified places with signed
multiplicities lambda_k (lambda = -deg f at infinity), the pole-order tuples
of functions regular outside Q form a semigroup in Z^n whose "absolute
maximal" elements stratify by a residue index i in [0, m):

    stratum 0:      (m j_1, ..., m j_n)            with sum j_k = 0
    stratum i >= 1: (m j_k + shift_k(i))_k         with sum j_k = gaps(i)+1-n

where shift_k(i) = (i * lambda_k) mod m and gaps(i) is the per-stratum gap
count whose sum over i = 1..m-1 is the genus.  The gap vector
(gaps(1), ..., gaps(m-1)) is computed once per curve and cached on it by
KummerCurve.gap_vector, next to the genus; everything here reads that
vector.  Each QTuple caches its stratum shifts, the plan dim_by_formula
sums from (m repeated n times, and n - gaps(i) with stratum i's shifts for
each i >= 1, so a call is C-level maps over alpha) and, for the non-special
criteria, its packed residue table.  Counting distinct first coordinates of
the elements dominated by alpha gives the Riemann-Roch dimension of the
divisor sum alpha_k Q_k; the same count collapses to a closed floor-sum
formula.  Both are implemented here and cross-checked
against an independent decomposition oracle elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import floordiv, sub
from typing import Iterator, NamedTuple, Sequence

from .curve import Divisor, KummerCurve, Place
from .errors import (
    DuplicatePlaceError,
    IndexOutOfRangeError,
    NotTotallyRamifiedError,
    QTupleSizeError,
)


def stratum_shift(lam: int, i: int, m: int) -> int:
    """(i * lam) mod m, least non-negative residue; shift of stratum i at a place."""
    return (i * lam) % m


def t_val(curve: KummerCurve, place: Place, i: int) -> int:
    """Stratum shift at a totally ramified place, for 1 <= i <= m-1."""
    if not 1 <= i <= curve.m - 1:
        raise IndexOutOfRangeError(f"i must be in [1, {curve.m - 1}], got {i}")
    return stratum_shift(curve.signed_multiplicity(place), i, curve.m)


def gap_count(curve: KummerCurve, i: int) -> int:
    """Number of semigroup gaps in stratum i; the sum over i = 1..m-1 is the genus.

    Read from the curve's gap vector, which KummerCurve.gap_vector computes
    once per curve.
    """
    if not 1 <= i <= curve.m - 1:
        raise IndexOutOfRangeError(f"i must be in [1, {curve.m - 1}], got {i}")
    return curve.gap_vector()[i - 1]


class ResidueTable(NamedTuple):
    """A tuple's packed residue-count words and the packed counts at which
    the non-special criteria accept (see the nonspecial module), with the
    curve's m.

    words[k][r] sets field i - 1 for every stratum i with r < shift_k(i).
    With floors J = sum floor(alpha_k/m), the degree-(g-1) criterion accepts
    at J = -1 and counts `gminus1`; the degree-g criterion at J = 0 and
    counts `g_floors0`, or at J = -1 and counts in `g_floors_less1`.  None
    or an empty set: no count vector in [0, n]^(m-1) is accepted.
    """

    m: int
    words: tuple[tuple[int, ...], ...]
    gminus1: int | None
    g_floors0: int | None
    g_floors_less1: frozenset[int]


@dataclass(frozen=True)
class QTuple:
    """An ordered tuple of distinct totally ramified places with signed multiplicities."""

    curve: KummerCurve
    places: tuple[Place, ...]
    lambdas: tuple[int, ...]

    @staticmethod
    def of(curve: KummerCurve, places: Sequence[Place]) -> "QTuple":
        n = len(places)
        if not 2 <= n <= curve.field.q:
            raise QTupleSizeError(f"tuple size {n} outside [2, q = {curve.field.q}]")
        if len(set(places)) != n:
            raise DuplicatePlaceError("tuple places must be pairwise distinct")
        lams = []
        for p in places:
            if p.kind == "inf":
                if curve.d_inf != 1:
                    raise NotTotallyRamifiedError("infinity is not totally ramified")
            elif p.kind == "root":
                if curve.root_gcds[p.index] != 1:
                    raise NotTotallyRamifiedError(f"{p.id()} is not totally ramified")
            else:
                raise NotTotallyRamifiedError(f"{p.id()} is not a ramified place")
            lams.append(curve.signed_multiplicity(p))
        return QTuple(curve, tuple(places), tuple(lams))

    @staticmethod
    def all_ramified(curve: KummerCurve) -> "QTuple":
        """The tuple of every totally ramified place, built once per curve and
        kept on it beside the gap vector, so its tables are built once too."""
        if curve._ramified_tuple is None:
            curve._ramified_tuple = QTuple.of(curve, curve.totally_ramified_places())
        return curve._ramified_tuple

    @property
    def n(self) -> int:
        return len(self.places)

    @cached_property
    def _shift_table(self) -> tuple[tuple[int, ...], ...]:
        m = self.curve.m
        return tuple(tuple(stratum_shift(lam, i, m) for lam in self.lambdas) for i in range(m))

    @cached_property
    def _residue_table(self) -> ResidueTable:
        m, n = self.curve.m, self.n
        b = n.bit_length()
        words = []
        for lam in self.lambdas:
            # bits[t] marks the strata whose shift at this place is t
            bits = [0] * m
            for i in range(1, m):
                bits[stratum_shift(lam, i, m)] += 1 << (b * (i - 1))
            # words[k][r] marks the strata with shift above r; built from r = m-1 down
            word = [0] * m
            above = 0
            for r in range(m - 1, -1, -1):
                word[r] = above
                above += bits[r]
            words.append(tuple(word))

        def pack(counts: list[int]) -> int | None:
            if any(not 0 <= c <= n for c in counts):
                return None
            return sum(c << (b * (i - 1)) for i, c in enumerate(counts, start=1))

        gaps = self.curve.gap_vector()
        gminus1 = pack([n - 1 - g for g in gaps])
        # one stratum term one above its gap count: that count one lower, if >= 0
        one_over = () if gminus1 is None else (
            gminus1 - (1 << (b * (i - 1)))
            for i, g in enumerate(gaps, start=1) if n - 2 - g >= 0)
        return ResidueTable(m, tuple(words), gminus1, pack([n - g for g in gaps]),
                            frozenset(one_over))

    @cached_property
    def _formula_plan(self) -> tuple[tuple[int, ...], tuple[tuple[int, tuple[int, ...]], ...]]:
        """(m repeated n times, ((n - gaps(i), shifts(i)) for i = 1..m-1)),
        what dim_by_formula sums from."""
        n = self.n
        return (self.curve.m,) * n, tuple((n - g, self.shifts(i))
                                         for i, g in enumerate(self.curve.gap_vector(), start=1))

    def shifts(self, i: int) -> tuple[int, ...]:
        """Per-place stratum shifts; i = 0 gives all zeros."""
        return self._shift_table[i % self.curve.m]

    def stratum_sum(self, i: int) -> int:
        """Required offset sum for stratum i: 0, or gaps(i) + 1 - n."""
        if i == 0:
            return 0
        return self.curve.gap_vector()[i - 1] + 1 - self.n

    def divisor(self, alpha: Sequence[int]) -> Divisor:
        if len(alpha) != self.n:
            raise IndexOutOfRangeError("alpha length does not match tuple size")
        return Divisor(zip(self.places, alpha))

    def alpha_of(self, D: Divisor) -> list[int]:
        """Coefficient vector of a divisor supported on this tuple."""
        extra = D.support_set() - set(self.places)
        if extra:
            raise NotTotallyRamifiedError(f"divisor has support outside the tuple: {extra}")
        return [D.coeff(p) for p in self.places]


@dataclass(frozen=True)
class MaximalElement:
    """An absolute maximal semigroup element: stratum index and offset vector."""

    stratum: int
    offsets: tuple[int, ...]

    def point(self, qtuple: QTuple) -> tuple[int, ...]:
        shifts = qtuple.shifts(self.stratum)
        m = qtuple.curve.m
        return tuple(m * j + t for j, t in zip(self.offsets, shifts))


def maximal_elements_below(qtuple: QTuple, alpha: Sequence[int]) -> Iterator[MaximalElement]:
    """All absolute maximal elements coordinatewise dominated by alpha.

    Deterministic order: stratum ascending, offset vectors lexicographic.
    Beware: the element count can be exponential in n; use the closed-form
    dimension helpers for anything but small boxes.
    """
    if len(alpha) != qtuple.n:
        raise IndexOutOfRangeError("alpha length does not match tuple size")
    m = qtuple.curve.m
    n = qtuple.n
    for i in range(m):
        shifts = qtuple.shifts(i)
        caps = [(a - t) // m for a, t in zip(alpha, shifts)]
        target = qtuple.stratum_sum(i)
        suffix = [0] * (n + 1)
        for k in range(n - 1, -1, -1):
            suffix[k] = suffix[k + 1] + caps[k]
        # recursive lexicographic enumeration of j with sum = target, j_k <= caps[k]
        stack: list[tuple[int, list[int], int]] = [(0, [], target)]
        while stack:
            pos, prefix, rem = stack.pop()
            if pos == n - 1:
                if rem <= caps[pos]:
                    yield MaximalElement(i, tuple(prefix + [rem]))
                continue
            lo = rem - suffix[pos + 1]
            hi = caps[pos]
            # push descending so the stack pops ascending j values
            for j in range(hi, lo - 1, -1):
                stack.append((pos + 1, prefix + [j], rem - j))


def dim_by_class_count(qtuple: QTuple, alpha: Sequence[int]) -> int:
    """Riemann-Roch dimension as the number of first-coordinate classes of
    the dominated maximal elements.

    Within stratum i the admissible first offsets j_1 fill the interval
    [target - sum of other caps, cap_1], and distinct strata never share a
    first coordinate, so the class count is the total interval length.
    """
    if len(alpha) != qtuple.n:
        raise IndexOutOfRangeError("alpha length does not match tuple size")
    m = qtuple.curve.m
    total = 0
    for i in range(m):
        shifts = qtuple.shifts(i)
        caps_sum = sum((a - t) // m for a, t in zip(alpha, shifts))
        total += max(0, caps_sum - qtuple.stratum_sum(i) + 1)
    return total


def dim_by_formula(qtuple: QTuple, alpha: Sequence[int]) -> int:
    """Closed-form Riemann-Roch dimension for divisors on totally ramified places.

    max(0, 1 + sum floor(alpha_k/m))
      + sum over i=1..m-1 of max(0, n - gaps(i) + sum floor((alpha_k - shift_k(i))/m)).
    """
    ms, strata = qtuple._formula_plan
    if len(alpha) != len(ms):
        raise IndexOutOfRangeError("alpha length does not match tuple size")
    total = max(0, 1 + sum(map(floordiv, alpha, ms)))
    for base, shifts in strata:
        term = base + sum(map(floordiv, map(sub, alpha, shifts), ms))
        if term > 0:
            total += term
    return total
