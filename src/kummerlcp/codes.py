"""AG codes over GF(q): generator matrices, parameters, and LCP verification.

A code is the image of a Riemann-Roch space under evaluation at split
rational places.  Two independent LCP checks are provided: the
unconditional rank test (dimensions sum to N and the stacked generators
have full rank) and the sufficient-condition verifier (degree window,
degree sum, gcd degree g-1, and non-specialness of gcd(G,H) and of
lmd(G,H) - D after reduction along a caller-supplied chain of principal
divisors).

Ranks over evaluation places are taken fiber by fiber (fiber_block_rank).
The codes evaluate the Riemann-Roch bases y^i x^j prod_k (x - a_k)^(-A_k)
stratum by stratum (rrspace), so the stratum i of every generator row is
known when the row is built.  Suppose some columns fall into groups of m
points (x_f, y_0), ..., (x_f, y_{m-1}) with distinct nonzero y_t, one group
per x_f, the whole fibers.  A stratum-i row restricted to such a group is
c (y_t^i)_t.  The matrix V[t, i] = y_t^i is an invertible Vandermonde
matrix, so a column operation on the group sends the row to c in slot i and
0 in the other m - 1, with c = (value at the group's first point) y_0^(-i).
After it the stratum-i rows live in the columns W_i (slot i of every group)
and the border columns B, the columns off whole fibers (a lone point, as
construction R keeps of its first fiber).  Scaling W_i's columns by
y_0^(-i) changes neither rank [W_i | B_i] nor the border rows left below its
pivots, so block i is just the stratum-i rows at the first column of each
group, then at the border columns.  This needs no roots of unity and no
check of the data, only the strata, which codes built by evaluation_code
carry; any other generator (a stored or replaced one) takes the dense
elimination, which stays the fallback and the test oracle.

Border residual lemma.  Eliminating [W_i | B_i] with the border columns
last leaves rank(W_i) pivot rows and, below them, rows that vanish on W_i;
only their border part R_i is left.  The pivot rows are independent on the
disjoint column sets W_i, so any relation among all the rows gives them
weight zero, and

    rank = sum_i rank(W_i) + rank [R_0; ...; R_{m-1}].

Without border columns the second term is zero and the matrix is
block-diagonal up to a permutation of rows and columns.

Affine drops.  For H = ram - (c affine places) the generator is K H', where
H' holds a basis of L(ram) at D, Phi the same basis at the c drops and
K = null_space(Phi^T) (rrspace.evaluation_parts).  K H' mixes strata, so the
rank is taken on the stratum-pure H' and Phi instead.  In the row space of

    M_aug = [[G, 0], [H', Phi]]

a vector a G + b H' has drop part b Phi, which is zero exactly when b is in
the row space of K.  Projecting onto the last c coordinates therefore has
image row space(Phi) and kernel row space [G; K H'] (padded with zeros), so

    rank [G; K H'] = rank(M_aug) - rank(Phi)

for every input.  Phi's columns are border columns in the lemma above.
Each code brings its own drop columns, so a stack of codes with different
drops is ranked by the same identity with the rank of every Phi subtracted.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field as dc_field
from typing import Iterable, Sequence

import numpy as np

from . import linalg, rrspace
from .curve import AFFINE, Divisor, KummerCurve, Place, check_curve_points
from .errors import (
    CertificateInvalidError,
    FieldMismatchError,
    InternalInvariantError,
    NotTotallyRamifiedError,
    QTupleSizeError,
    ShapeMismatchError,
    SupportOverlapError,
    UnsupportedSupportError,
)
from .field import Field, json_int
from .nonspecial import divisor_nonspecial_gminus1

EXHAUSTIVE_LIMIT = 1 << 20  # min_distance exhausts at most this many codewords


@dataclass(frozen=True, eq=False)
class Matrix:
    """A rectangular matrix of field-element encodings."""

    field: Field
    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.int64)
        if arr.ndim != 2:
            raise ShapeMismatchError("matrix data must be two-dimensional")
        object.__setattr__(self, "data", arr)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.data.shape == other.data.shape
            and bool(np.all(self.data == other.data))
        )

    def to_json(self) -> list[list[int]]:
        return self.data.tolist()


def divisor_gcd(A: Divisor, B: Divisor) -> Divisor:
    places = set(A.support()) | set(B.support())
    return Divisor({p: min(A.coeff(p), B.coeff(p)) for p in places})


def divisor_lmd(A: Divisor, B: Divisor) -> Divisor:
    places = set(A.support()) | set(B.support())
    return Divisor({p: max(A.coeff(p), B.coeff(p)) for p in places})


@dataclass
class LinearCode:
    """An [N, k] evaluation code with its divisor provenance."""

    field: Field
    generator: Matrix
    N: int
    k: int
    curve: KummerCurve | None = None
    G: Divisor | None = None
    places: tuple[Place, ...] = ()
    # (generator, its CharacterBlocks), see character_blocks
    _blocks: tuple | None = dc_field(default=None, init=False, repr=False, compare=False)

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "k": self.k,
            "field": self.field.to_json(),
            "generator": self.generator.to_json(),
        }


@dataclass(frozen=True, eq=False)
class CharacterBlocks:
    """A code's rows in bordered fiber-block form (module docstring).

    parts[i] holds the stratum-i rows: their values at the first column of
    every whole fiber, then at the border columns.  The border columns are
    the columns off whole fibers, then the code's drop columns Phi, whose
    rank is drop_rank.
    """

    parts: tuple[np.ndarray, ...]
    fibers: int
    lone: int
    drops: int
    drop_rank: int


def _fiber_layout(m: int, places: Sequence[Place]) -> tuple[np.ndarray, np.ndarray]:
    """The first column of every whole fiber, and the other (border) columns,
    ascending.  For places that pass check_curve_points a whole fiber
    is an x carried by m columns: their y are distinct and nonzero."""
    xs = np.array([p.x for p in places], dtype=np.int64)
    order = np.argsort(xs, kind="stable")
    starts = np.flatnonzero(np.diff(xs[order], prepend=-1))
    whole = starts[np.diff(starts, append=len(xs)) == m]
    border = np.ones(len(xs), dtype=bool)
    border[order[whole[:, None] + np.arange(m)]] = False
    return order[whole], np.flatnonzero(border)


def _character_split(m: int, places: Sequence[Place], rows: np.ndarray, basis: np.ndarray,
                     strata: np.ndarray, phi: np.ndarray | None) -> CharacterBlocks:
    """The bordered fiber-block form of the generator rows that
    evaluation_parts made from the rows basis, whose row r lies in stratum
    strata[r], and the drop columns phi (or None)."""
    first, lone = _fiber_layout(m, places)
    cols = basis[:, np.concatenate([first, lone])]
    drops = drop_rank = 0
    if phi is not None:
        cols = np.hstack([cols, phi])
        # rows = null_space(Phi^T) H' has a row per basis vector of Phi's left
        # kernel, so rank(Phi) = len(basis) - len(rows), with no elimination
        drops, drop_rank = phi.shape[1], len(basis) - len(rows)
    return CharacterBlocks(tuple(cols[strata == i] for i in range(m)), len(first), len(lone),
                           drops, drop_rank)


def character_blocks(code: LinearCode) -> CharacterBlocks | None:
    """The generator in bordered fiber-block form (module docstring), or None
    when the code was not built by evaluation_code or its generator object
    was replaced since (Matrix data is not edited in place); the dense path
    then decides.  ag_code rebinds the blocks to the row basis it puts in the
    generator's place, which spans the same row space."""
    if code._blocks is not None and code._blocks[0] is code.generator:
        return code._blocks[1]
    return None


def _bordered_rank(field: Field, splits: Sequence[CharacterBlocks]) -> int:
    """Rank of the stack of the codes in splits, by the border residual lemma
    and the M_aug identity, each code's drop columns after the shared ones
    and zero in the other codes' rows."""
    fibers, lone, m = splits[0].fibers, splits[0].lone, len(splits[0].parts)
    shared = fibers + lone
    drops = sum(b.drops for b in splits)
    total = -sum(b.drop_rank for b in splits)
    residuals = []
    for i in range(m):
        M = np.zeros((sum(len(b.parts[i]) for b in splits), shared + drops), dtype=np.int64)
        r, c = 0, shared
        for b in splits:
            part = b.parts[i]
            M[r:r + len(part), :shared] = part[:, :shared]
            M[r:r + len(part), c:c + b.drops] = part[:, shared:]
            r, c = r + len(part), c + b.drops
        if fibers and len(M):
            M, pivots = linalg.echelon(field, M)
            block_rank = bisect_left(pivots, fibers)
            total += block_rank
            M = M[block_rank:len(pivots)]
        residuals.append(M[:, fibers:])
    if lone + drops:
        total += linalg.rank(field, np.vstack(residuals))
    return total


def fiber_block_rank(*codes: LinearCode) -> int:
    """Rank of the codes' stacked generators, the one rank of codes.

    The generators must live over one field and have equal column counts.
    When every code has character blocks over the same places and m, the
    rank comes from the blocks by the border residual lemma and the M_aug
    identity; otherwise it is the dense rank of the stack.
    """
    first = codes[0]
    for other in codes[1:]:
        if other.field != first.field:
            raise FieldMismatchError("codes live over different fields")
        if other.generator.cols != first.generator.cols:
            raise ShapeMismatchError(
                f"column counts differ: {first.generator.cols} vs {other.generator.cols}")
    splits = [character_blocks(c) for c in codes]
    if None not in splits and all(
        (c.places, c.curve.m) == (first.places, first.curve.m) for c in codes
    ):
        return _bordered_rank(first.field, splits)
    return linalg.rank(first.field, np.vstack([c.generator.data for c in codes]))


def evaluation_code(curve: KummerCurve, eval_places: Sequence[Place], G: Divisor) -> LinearCode:
    """C(D, G) for D the sum of the given places, its generator the
    evaluation rows of L(G) as they are (rrspace.evaluation_rows) and k
    their rank.  The places, and the affine places G drops, must be distinct
    rational affine points of the curve off the roots of f (evaluation_parts
    checks them); the code's character blocks, built from the strata of the
    basis rows (H' and Phi when G drops affine places), are bound to it."""
    places = tuple(eval_places)
    overlap = set(places) & set(G.support())
    if overlap:
        raise SupportOverlapError(f"G and D share support: {sorted(p.id() for p in overlap)}")
    field = curve.field
    rows, basis, phi, strata = rrspace.evaluation_parts(curve, G, places)
    code = LinearCode(field, Matrix(field, rows), len(places), 0, curve, G, places)
    code._blocks = (code.generator, _character_split(curve.m, places, rows, basis, strata, phi))
    code.k = fiber_block_rank(code)
    return code


def ag_code(curve: KummerCurve, eval_places: Sequence[Place], G: Divisor) -> LinearCode:
    """The evaluation code C(D, G) for D the sum of the given affine places.

    Within the window 2g-2 < deg G < N the dimension is checked against
    deg G + 1 - g; outside it the generator is reduced to a row basis, which
    keeps the character blocks.
    """
    code = evaluation_code(curve, eval_places, G)
    g = curve.genus()
    deg = G.degree()
    if 2 * g - 2 < deg < code.N:
        expected = deg + 1 - g
        if code.k != expected:
            raise InternalInvariantError(
                f"rank {code.k} does not match deg G + 1 - g = {expected}"
            )
    if code.k < code.generator.rows:
        blocks = character_blocks(code)
        code.generator = Matrix(code.field, linalg.row_space_basis(code.field,
                                                                   code.generator.data))
        code._blocks = (code.generator, blocks)
    return code


@dataclass(frozen=True)
class MinDistance:
    value: float
    exact: bool

    def to_json(self) -> dict:
        return {
            "value": "inf" if math.isinf(self.value) else int(self.value),
            "exact": self.exact,
        }


def min_distance(code: LinearCode) -> MinDistance:
    """Exact minimum weight by exhausting q^k codewords when feasible,
    otherwise the designed lower bound N - deg G."""
    if code.k == 0:
        return MinDistance(math.inf, True)
    q = code.field.q
    if q**code.k > EXHAUSTIVE_LIMIT:
        bound = code.N - code.G.degree() if code.G is not None else 1
        return MinDistance(max(1, bound), False)
    total = q**code.k
    digit_places = q ** np.arange(code.k, dtype=np.int64)
    best = code.N
    chunk = 1 << 14
    for start in range(1, total, chunk):  # message 0 is the zero codeword
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        words = encode_messages(code, (idx[:, None] // digit_places) % q)
        best = min(best, int(np.count_nonzero(words, axis=1).min()))
    return MinDistance(best, True)


def encode_messages(code: LinearCode, messages: np.ndarray) -> np.ndarray:
    """Row-vector encodings: messages (count x k) -> codewords (count x N).

    A messages array that is not count x k raises ShapeMismatchError, and an
    entry outside [0, q) raises ElementOutOfRangeError.
    """
    return linalg.matmul(code.field, messages, code.generator.data)


@dataclass
class LcpReport:
    k1: int
    k2: int
    N: int
    rank_of_stack: int
    verdict: bool
    conditions: "ConditionReport | None" = None

    def to_json(self) -> dict:
        return {
            "k1": self.k1,
            "k2": self.k2,
            "N": self.N,
            "rank_of_stack": self.rank_of_stack,
            "verdict": "LCP" if self.verdict else "NOT_LCP",
            "conditions": self.conditions.to_json() if self.conditions else None,
        }


def is_lcp(c1: LinearCode, c2: LinearCode) -> LcpReport:
    """Unconditional LCP test: k1 + k2 = N and the stacked generators have rank N."""
    if c1.N != c2.N:
        raise ShapeMismatchError(f"lengths differ: {c1.N} vs {c2.N}")
    r = fiber_block_rank(c1, c2)
    return LcpReport(c1.k, c2.k, c1.N, r, c1.k + c2.k == c1.N and r == c1.N)


@dataclass(frozen=True)
class CertStep:
    """One link of a linear-equivalence chain: mult * (principal divisor)."""

    kind: str  # "y" or "x-b"
    b: int | None
    mult: int

    def to_json(self) -> dict:
        return {"gen": self.kind, "b": self.b, "mult": self.mult}

    @staticmethod
    def from_json(obj: dict) -> "CertStep":
        b = obj.get("b")
        return CertStep(obj["gen"], None if b is None else json_int(b), json_int(obj["mult"]))


@dataclass
class ConditionCheck:
    name: str
    passed: bool
    detail: str

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass
class ConditionReport:
    checks: list[ConditionCheck] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(ConditionCheck(name, bool(passed), detail))

    def to_json(self) -> dict:
        return {"passed": self.passed, "checks": [c.to_json() for c in self.checks]}


def _chain_divisor(curve: KummerCurve, certificates: Iterable[CertStep]) -> Divisor:
    """The sum of mult * div(generator) over the chain, built as one Divisor
    so the cost is linear in the chain's length."""
    terms = []
    for step in certificates:
        if step.kind == "y":
            div = curve.principal_divisor("y")
        elif step.kind == "x-b":
            div = curve.principal_divisor("x-b", step.b)
        else:
            raise CertificateInvalidError(f"unknown generator kind {step.kind!r}")
        terms.extend((place, step.mult * c) for place, c in div.items())
    return Divisor(terms)


def _nonspecial_gminus1_report(
    curve: KummerCurve, W: Divisor, report: ConditionReport, label: str
) -> None:
    """Record whether W is non-special of degree g-1.

    W may carry affine places with coefficient -1 (handled through the
    evaluation functional); its remaining support must be ramified.  The
    arithmetic criterion is recorded alongside whenever it applies.
    """
    g = curve.genus()
    deg = W.degree()
    report.add(f"{label} degree", deg == g - 1, f"deg = {deg}, g-1 = {g - 1}")
    if deg != g - 1:
        return
    try:
        dim = rrspace.dim_with_simple_affine_drops(curve, W)
    except UnsupportedSupportError as exc:
        report.add(f"{label} nonspecial", False, f"unsupported support: {exc}")
        return
    report.add(f"{label} nonspecial", dim == 0, f"dim = {dim}")
    if all(p.kind != AFFINE for p in W.support()):
        try:
            ok = divisor_nonspecial_gminus1(curve, W)
        except (NotTotallyRamifiedError, QTupleSizeError):
            return  # no tuple covers W; the dimension check above decides
        report.add(f"{label} criterion", ok, "arithmetic criterion")


def verify_lcp_conditions(
    curve: KummerCurve,
    d_places: Sequence[Place],
    G: Divisor,
    H: Divisor,
    certificates: Sequence[CertStep],
) -> ConditionReport:
    """Check the sufficient conditions for (C(D,G), C(D,H)) to be an LCP.

    The places of D, and the affine places G and H drop, must be distinct
    rational affine points of the curve off the roots of f.  The certificates must telescope lmd(G,H) - D onto a
    divisor supported on ramified places (minus possibly some coefficient -1
    affine places); a chain that leaves other support standing is rejected.
    """
    check_curve_points(curve, d_places)
    check_curve_points(curve, [p for p in dict.fromkeys(G.support() + H.support())
                               if p.kind == AFFINE])
    report = ConditionReport()
    g = curve.genus()
    N = len(d_places)
    report.add("genus nonzero", g >= 1, f"g = {g}")
    dg, dh = G.degree(), H.degree()
    report.add(
        "degree window",
        2 * g - 2 < dg < N and 2 * g - 2 < dh < N,
        f"deg G = {dg}, deg H = {dh}, window ({2 * g - 2}, {N})",
    )
    report.add("degree sum", dg + dh == N + 2 * g - 2, f"{dg}+{dh} vs N+2g-2 = {N + 2 * g - 2}")
    W = divisor_gcd(G, H)
    report.add("gcd degree", W.degree() == g - 1, f"deg gcd = {W.degree()}")
    _nonspecial_gminus1_report(curve, W, report, "gcd(G,H)")

    D_div = Divisor((p, 1) for p in d_places)
    reduced = divisor_lmd(G, H) - D_div - _chain_divisor(curve, certificates)
    bad = [p for p, c in reduced.items() if p.kind == AFFINE and c != -1]
    if bad:
        raise CertificateInvalidError(
            "equivalence chain does not reduce lmd(G,H) - D to ramified support "
            f"(left {sorted(p.id() for p in bad)})"
        )
    _nonspecial_gminus1_report(curve, reduced, report, "lmd(G,H)-D")
    return report
