"""Criteria and enumerators for non-special divisors of degree g-1 and g.

A divisor D = sum alpha_k Q_k on totally ramified places is non-special of
degree g-1 exactly when

    sum floor(alpha_k / m) = -1   and
    n + sum floor((alpha_k - shift_k(i)) / m) = gaps(i)   for all 1 <= i < m,

and of degree g when the floor sums hit the gap counts with a single slack
of one, either in the stratum-0 term or in exactly one stratum.  Both
criteria imply the degree automatically, via the telescoping identity
sum_i floor((a - i)/m) = a - floor(a/m) - m + 1.

The criteria are decided from residue counts.  Write alpha_k = m j_k + r_k
with 0 <= r_k < m.  For 0 <= t < m, floor((alpha_k - t)/m) = j_k - [r_k < t],
so stratum i's term is n + J - c_i, with J = sum j_k and
c_i = #{k : r_k < shift_k(i)} in [0, n].  With b = n.bit_length() bits per
field, the vector (c_1, ..., c_{m-1}) is the integer
sum_i c_i 2^(b(i-1)), which is the sum over k of the table word
W[k][r_k] = sum over {i : r_k < shift_k(i)} of 2^(b(i-1)).  Each field of
that sum counts at most n ones, and n < 2^b, so no carry crosses a field
and the packing is injective: two count vectors are equal exactly when
their packed integers are.  A check is then n floor divisions, n lookups
and one comparison (or set lookup) against packed targets that QTuple
builds once (QTuple._residue_table); a target with a field outside [0, n]
can never be hit and is left out.  Since each criterion implies its degree,
a divisor of another degree is rejected on sum alpha alone, before any
residue is counted.  Every accepted divisor is re-checked
against dim_by_formula, the literal floor sum, which shares nothing with
the tables.

When every tuple multiplicity is congruent to 1 mod m, or when f is
separable with one place at infinity, the solutions form a single orbit of
an explicit multiset of box coefficients under place permutations and
divisor-class shifts; the family objects below describe that orbit
symbolically and can instantiate members.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .curve import Divisor, KummerCurve, Place
from .errors import (
    Alpha0OutOfRangeError,
    AlphaOutOfRangeError,
    GcdNotOneError,
    IndexOutOfRangeError,
    InternalInvariantError,
    LambdaNotCongruentOneError,
    NotSeparableError,
    NotTotallyRamifiedError,
)
from .semigroup import QTuple, ResidueTable, dim_by_formula


def _has_degree(table: ResidueTable, alpha: Sequence[int], degree: int) -> bool:
    """Whether sum alpha is degree, after checking alpha's length."""
    if len(alpha) != len(table.words):
        raise IndexOutOfRangeError("alpha length does not match tuple size")
    return sum(alpha) == degree


def _residue_counts(table: ResidueTable, alpha: Sequence[int]) -> tuple[int, int]:
    """(J, packed c): J = sum floor(alpha_k/m), c packs c_i = #{k : r_k < shift_k(i)}."""
    m = table.m
    floors = counts = 0
    for a, word in zip(alpha, table.words):
        floors += a // m
        counts += word[a % m]
    return floors, counts


def nonspecial_gminus1(qtuple: QTuple, alpha: Sequence[int]) -> bool:
    """True iff sum alpha_k Q_k is a non-special divisor of degree g-1."""
    table = qtuple._residue_table
    if not _has_degree(table, alpha, qtuple.curve.genus() - 1):
        return False
    floors, counts = _residue_counts(table, alpha)
    ok = floors == -1 and counts == table.gminus1
    if ok and dim_by_formula(qtuple, alpha) != 0:
        raise InternalInvariantError(f"criterion accepts {list(alpha)}, which is not "
                                     "non-special of degree g-1")
    return ok


def nonspecial_g(qtuple: QTuple, alpha: Sequence[int]) -> bool:
    """True iff sum alpha_k Q_k is a non-special divisor of degree g."""
    table = qtuple._residue_table
    if not _has_degree(table, alpha, qtuple.curve.genus()):
        return False
    floors, counts = _residue_counts(table, alpha)
    if floors == 0:
        ok = counts == table.g_floors0
    else:
        ok = floors == -1 and counts in table.g_floors_less1
    if ok and dim_by_formula(qtuple, alpha) != 1:
        raise InternalInvariantError(f"criterion accepts {list(alpha)}, which is not "
                                     "non-special of degree g")
    return ok


def nonspecial_effective_g(qtuple: QTuple, alpha: Sequence[int]) -> bool:
    """True iff sum alpha_k Q_k, with every alpha_k in [0, m-1], is an
    effective non-special divisor of degree g."""
    m = qtuple.curve.m
    if any(not 0 <= a <= m - 1 for a in alpha):
        raise AlphaOutOfRangeError("effective criterion needs alpha in [0, m-1]^n")
    # every floor is 0 on the box, so this is the degree-g criterion, re-check included
    return nonspecial_g(qtuple, alpha)


@dataclass(frozen=True)
class Classification:
    verdict: str
    degree: int
    dim: int

    def to_json(self) -> dict:
        return {"verdict": self.verdict, "degree": self.degree, "dim": self.dim}


def classify(qtuple: QTuple, alpha: Sequence[int]) -> Classification:
    """Dispatch a divisor on the tuple into the small-degree taxonomy."""
    g = qtuple.curve.genus()
    deg = sum(alpha)
    dim = dim_by_formula(qtuple, alpha)
    if deg == g - 1 and dim == 0:
        verdict = "NonspecialDegGminus1"
    elif deg == g and dim == 1:
        verdict = "NonspecialDegG"
    elif deg > g and dim == deg + 1 - g:
        verdict = "NonspecialHighDeg"
    elif deg < g - 1:
        verdict = "NegativeDim"
    else:
        verdict = "Special"
    return Classification(verdict, deg, dim)


@dataclass(frozen=True)
class Feasibility:
    possible: bool
    witness: str | None

    def to_json(self) -> dict:
        return {"possible": self.possible, "witness": self.witness}


def support_feasibility(qtuple: QTuple) -> Feasibility:
    """Necessary condition for a degree-(g-1) non-special divisor on the tuple:
    every gap count must stay below the tuple size.

    The degree-form witness floor(deg f / m) >= r - n - 1 (with r the number
    of zeros plus the pole) is reported when it is the failing inequality.
    """
    curve = qtuple.curve
    n = qtuple.n
    m = curve.m
    r = len(curve.roots) + 1
    if curve.deg_f // m < r - n - 1:
        return Feasibility(
            False, f"floor(degf/m)={curve.deg_f // m} < r-n-1={r - n - 1}"
        )
    for i, b in enumerate(curve.gap_vector(), start=1):
        if b > n - 1:
            return Feasibility(False, f"beta({i})={b} > n-1={n - 1}")
    return Feasibility(True, None)


@dataclass(frozen=True)
class DivisorFamily:
    """Symbolic family of degree-(g-1) non-special divisors.

    Members are  m * (class shift with offset sum -1)  +  alpha0 at infinity
    (separable families only)  +  a permutation of alpha_multiset over the
    remaining places.  `places` fixes the binding order; the first place
    receives the canonical shift -m.
    """

    qtuple: QTuple
    alpha0: int | None
    alpha_multiset: tuple[int, ...]

    @property
    def places(self) -> tuple[Place, ...]:
        return self.qtuple.places

    def _box_vectors(self) -> Iterator[tuple[int, ...]]:
        seen = set()
        for perm in itertools.permutations(self.alpha_multiset):
            if perm in seen:
                continue
            seen.add(perm)
            yield ((self.alpha0,) + perm) if self.alpha0 is not None else perm

    def instantiate(
        self, sigma_alpha: Sequence[int], offsets: Sequence[int] | None = None
    ) -> Divisor:
        """Divisor for a chosen box arrangement and offset vector (sum -1)."""
        n = len(self.places)
        if offsets is None:
            offsets = [-1] + [0] * (n - 1)
        if len(sigma_alpha) != n or len(offsets) != n:
            raise AlphaOutOfRangeError("arrangement length does not match places")
        if sum(offsets) != -1:
            raise AlphaOutOfRangeError("offset vector must sum to -1")
        m = self.qtuple.curve.m
        coeffs = [m * j + a for j, a in zip(offsets, sigma_alpha)]
        return self.qtuple.divisor(coeffs)

    def canonical(self) -> Divisor:
        vec = ((self.alpha0,) + self.alpha_multiset) if self.alpha0 is not None \
            else self.alpha_multiset
        return self.instantiate(vec)

    def all_divisors_canonical_shift(self) -> set[Divisor]:
        """Every member with the canonical shift (-m on the first place)."""
        return {self.instantiate(vec) for vec in self._box_vectors()}

    def to_json(self) -> dict:
        return {
            "alpha0": self.alpha0,
            "alpha_multiset": list(self.alpha_multiset),
            "j_sum": -1,
            "places": [p.id() for p in self.places],
            "canonical": self.canonical().to_json(),
        }


@dataclass(frozen=True)
class FamilyObstruction:
    """Witness that no degree-(g-1) non-special divisor sits on the tuple."""

    witness: str

    def to_json(self) -> dict:
        return {"exists": False, "witness": self.witness}


def separable_family(curve: KummerCurve, alpha0: int) -> DivisorFamily:
    """All non-special degree-(g-1) divisors on (infinity, zero places) for a
    separable f of degree n with gcd(m, n) = 1 and 2 <= n <= q.

    The box values over the zeros form one multiset per alpha0: value v
    occurs floor((alpha0+(v+1)n)/m) - floor((alpha0+vn)/m) times.  For
    alpha0 = 0 the family is supported on the zeros only and remains valid
    without the gcd condition.
    """
    m = curve.m
    n = curve.deg_f
    if any(lam != 1 for _, lam in curve.roots):
        raise NotSeparableError("f must be separable (all multiplicities 1)")
    if not 2 <= n <= curve.field.q:
        raise NotSeparableError(f"need 2 <= deg f <= q, got deg f = {n}")
    if not 0 <= alpha0 <= m - 1:
        raise Alpha0OutOfRangeError(f"alpha0 = {alpha0} outside [0, {m - 1}]")
    if alpha0 == 0 and curve.d_inf != 1:
        # zeros-only family; infinity is unavailable as a place
        places = [curve.root_place(k) for k in range(len(curve.roots))]
        qtuple = QTuple.of(curve, places)
        multiset = _separable_multiset(m, n, 0)
        return DivisorFamily(qtuple, None, multiset)
    if curve.d_inf != 1:
        raise GcdNotOneError(f"gcd(m, deg f) = {curve.d_inf} != 1")
    places = [Place.infinity()] + [curve.root_place(k) for k in range(len(curve.roots))]
    qtuple = QTuple.of(curve, places)
    multiset = _separable_multiset(m, n, alpha0)
    return DivisorFamily(qtuple, alpha0, multiset)


def _separable_multiset(m: int, n: int, alpha0: int) -> tuple[int, ...]:
    counts = [
        (alpha0 + (v + 1) * n) // m - (alpha0 + v * n) // m for v in range(m)
    ]
    # the top block equals ceil((n - alpha0)/m); both expressions telescope to n
    if counts[m - 1] != -((alpha0 - n) // m) or sum(counts) != n:
        raise InternalInvariantError(f"box counts {counts} do not telescope to n = {n}")
    return box_multiset(counts)


def box_multiset(counts: Sequence[int]) -> tuple[int, ...]:
    """Each value v repeated counts[v] times, ascending."""
    return tuple(v for v, c in enumerate(counts) for _ in range(c))


def unit_multiplicity_family(
    curve: KummerCurve, qtuple: QTuple
) -> DivisorFamily | FamilyObstruction:
    """All non-special degree-(g-1) divisors on a tuple whose signed
    multiplicities are all congruent to 1 mod m.

    Exists iff the gap counts are non-increasing in i and bounded by n-1;
    the box multiset is then 0 repeated n-1-gaps(1) times, v repeated
    gaps(v)-gaps(v+1) times, and m-1 repeated gaps(m-1)+1 times.
    """
    curve_ = qtuple.curve
    m = curve_.m
    if curve_ is not curve and curve_.to_json() != curve.to_json():
        raise NotTotallyRamifiedError("tuple does not belong to this curve")
    for lam in qtuple.lambdas:
        if lam % m != 1:
            raise LambdaNotCongruentOneError(
                f"multiplicity {lam} is not congruent to 1 mod {m}"
            )
    n = qtuple.n
    betas = curve_.gap_vector()
    if betas[0] > n - 1:
        return FamilyObstruction(f"beta(1)={betas[0]} > n-1={n - 1}")
    for i in range(1, m - 1):
        if betas[i] > betas[i - 1]:
            return FamilyObstruction(
                f"beta({i + 1})={betas[i]} > beta({i})={betas[i - 1]}"
            )
    counts = [n - 1 - betas[0]]
    counts.extend(betas[i - 1] - betas[i] for i in range(1, m - 1))
    counts.append(betas[m - 2] + 1)
    if sum(counts) != n:
        raise InternalInvariantError(f"box counts {counts} do not sum to n = {n}")
    return DivisorFamily(qtuple, None, box_multiset(counts))


# --- divisor-level conveniences ----------------------------------------------

def covering_tuple(curve: KummerCurve, D: Divisor) -> QTuple:
    """The all-ramified tuple when it can certify D, else the support tuple.

    Padding a tuple with zero-coefficient totally ramified places changes
    neither criterion, so the widest admissible tuple is used: the curve's
    one QTuple.all_ramified, whose tables every check on the curve shares.
    """
    all_places = curve.totally_ramified_places()
    support = D.support_set()
    if not support <= set(all_places):
        raise NotTotallyRamifiedError(
            "divisor support must lie in the totally ramified places"
        )
    if 2 <= len(all_places) <= curve.field.q:
        return QTuple.all_ramified(curve)
    return QTuple.of(curve, [p for p in all_places if p in support])


def divisor_nonspecial_gminus1(curve: KummerCurve, D: Divisor) -> bool:
    qtuple = covering_tuple(curve, D)
    return nonspecial_gminus1(qtuple, qtuple.alpha_of(D))


def divisor_nonspecial_g(curve: KummerCurve, D: Divisor) -> bool:
    qtuple = covering_tuple(curve, D)
    return nonspecial_g(qtuple, qtuple.alpha_of(D))
