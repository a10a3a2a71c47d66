"""AG codes over GF(q): generator matrices, parameters, and LCP verification.

A code is the image of a Riemann-Roch space under evaluation at split
rational places.  Two independent LCP checks are provided: the
unconditional rank test (dimensions sum to N and the stacked generators
have full rank) and the sufficient-condition verifier (degree window,
degree sum, gcd degree g-1, and non-specialness of gcd(G,H) and of
lmd(G,H) - D after reduction along a caller-supplied chain of principal
divisors).

Ranks over evaluation places are taken fiber by fiber when the columns
allow it (fiber_block_rank).  Suppose the columns fall into groups of m
points (x_f, y_0), ..., (x_f, y_{m-1}) with distinct nonzero y_t, one group
per x_f.  Multiplying each group by its Vandermonde matrix
X_f[t, i] = y_t^(-i) is an invertible column operation, so it leaves the
rank of any matrix unchanged.  On a completely split fiber y_t = y_0 zeta^t
with zeta a primitive m-th root of unity, and since p does not divide m,
sum_t zeta^(t (j - i)) is m for i = j and 0 otherwise: a row y^j h(x)
becomes m h(x_f) in character column j and 0 in the other m - 1.  The
transformed matrix is then checked as it stands: if every row is nonzero
in at most one character group (column i of every fiber), it is
block-diagonal up to a permutation of rows and columns, and its rank is
the sum of the m block ranks, each block about N/m columns wide.  The
verdict rests on that check of the data, not on how the matrix was built:
a matrix that fails it (a row mixing strata, a partial fiber) takes the
dense elimination, which stays the fallback and the test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Iterable, Sequence

import numpy as np

from . import linalg, rrspace
from .curve import AFFINE, Divisor, KummerCurve, Place
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


def rank(matrix: Matrix) -> int:
    """Row rank via deterministic Gaussian elimination."""
    return linalg.rank(matrix.field, matrix.data)


def _stacked(matrices: Sequence[Matrix]) -> np.ndarray:
    first = matrices[0]
    for other in matrices[1:]:
        if other.field != first.field:
            raise FieldMismatchError("stacked matrices live over different fields")
        if other.cols != first.cols:
            raise ShapeMismatchError(f"column counts differ: {first.cols} vs {other.cols}")
    return np.vstack([mat.data for mat in matrices])


def stack_rank(m1: Matrix, m2: Matrix) -> int:
    return linalg.rank(m1.field, _stacked([m1, m2]))


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
    # (generator, its character blocks or None), see character_blocks
    _blocks: tuple | None = dc_field(default=None, init=False, repr=False, compare=False)

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "k": self.k,
            "field": self.field.to_json(),
            "generator": self.generator.to_json(),
        }


def _fiber_layout(field: Field, m: int,
                  places: Sequence[Place]) -> tuple[np.ndarray, np.ndarray] | None:
    """Column indices grouped by x, one row of m per fiber, and each fiber's
    Vandermonde matrices vand[f, t, i] = y_t^(-i); None unless every x that
    occurs carries exactly m distinct nonzero y."""
    N = len(places)
    if N == 0 or N % m or any(p.kind != AFFINE for p in places):
        return None
    xs = np.fromiter((p.x for p in places), dtype=np.int64, count=N)
    ys = np.fromiter((p.y for p in places), dtype=np.int64, count=N)
    if np.any((xs < 0) | (xs >= field.q) | (ys <= 0) | (ys >= field.q)):
        return None
    cols = np.argsort(xs, kind="stable").reshape(-1, m)
    fx, fy = xs[cols], ys[cols]
    # sorted by x and cut into runs of m: each run one x, neighbours different
    if np.any(fx != fx[:, :1]) or np.any(fx[1:, 0] == fx[:-1, 0]):
        return None
    sy = np.sort(fy, axis=1)
    if np.any(sy[:, 1:] == sy[:, :-1]):
        return None
    vand = np.ones(fy.shape + (m,), dtype=np.int64)
    inv_y = field.vinv(fy)
    for i in range(1, m):
        vand[:, :, i] = field.vmul(vand[:, :, i - 1], inv_y)
    return cols, vand


def _split_by_character(field: Field, cols: np.ndarray, vand: np.ndarray,
                        data: np.ndarray) -> tuple[np.ndarray, ...] | None:
    """data with each fiber's columns multiplied by its Vandermonde matrix,
    cut into the m character blocks; None when a row is nonzero in two
    character groups."""
    A = data[:, cols]  # rows x fibers x points
    out = field.vmul(A[:, :, 0, None], vand[None, :, 0, :])
    for t in range(1, cols.shape[1]):
        out = field.vadd(out, field.vmul(A[:, :, t, None], vand[None, :, t, :]))
    live = np.any(out != 0, axis=1)  # rows x character groups
    if np.any(live.sum(axis=1) > 1):
        return None
    group = np.where(live.any(axis=1), live.argmax(axis=1), -1)
    return tuple(out[group == j, :, j] for j in range(cols.shape[1]))


def character_blocks(code: LinearCode) -> tuple[np.ndarray, ...] | None:
    """The generator after the per-fiber character transform, cut into its
    m character blocks: block j holds column j of every fiber for the rows
    living there.  None when the columns are not whole fibers or a row is
    nonzero in two character groups; the dense path then decides.

    Computed once per generator object and kept on the code, so a new
    generator is transformed afresh (Matrix data is not edited in place).
    """
    gen = code.generator
    if code._blocks is None or code._blocks[0] is not gen:
        layout = None
        if code.curve is not None and gen.cols == len(code.places):
            layout = _fiber_layout(code.field, code.curve.m, code.places)
        blocks = None if layout is None else _split_by_character(code.field, *layout, gen.data)
        code._blocks = (gen, blocks)
    return code._blocks[1]


def fiber_block_rank(*codes: LinearCode) -> int:
    """Rank of the codes' stacked generators.

    When every code has character blocks over the same field, places and
    m, the stack's transform is the stack of the transforms, and the rank
    is the sum over j of the ranks of the stacked j-th blocks; otherwise it
    is the dense rank of the stack.
    """
    first = codes[0]
    field = first.field
    parts = [character_blocks(c) for c in codes]
    if all(p is not None for p in parts) and all(
        (c.field, c.places, c.curve.m) == (field, first.places, first.curve.m) for c in codes
    ):
        return sum(
            linalg.rank(field, np.vstack(group))
            for group in zip(*parts)
            if any(len(b) for b in group)
        )
    return linalg.rank(field, _stacked([c.generator for c in codes]))


def ag_code(curve: KummerCurve, eval_places: Sequence[Place], G: Divisor) -> LinearCode:
    """The evaluation code C(D, G) for D the sum of the given affine places.

    Within the window 2g-2 < deg G < N the dimension is checked against
    deg G + 1 - g; outside it the generator is reduced to a row basis.
    """
    places = tuple(eval_places)
    if len(set(places)) != len(places):
        raise SupportOverlapError("evaluation places must be pairwise distinct")
    for p in places:
        if p.kind != AFFINE:
            raise UnsupportedSupportError("evaluation places must be affine")
    overlap = set(places) & set(G.support())
    if overlap:
        raise SupportOverlapError(f"G and D share support: {sorted(p.id() for p in overlap)}")

    rows = rrspace.evaluation_rows(curve, G, places)
    N = len(places)
    field = curve.field
    code = LinearCode(field, Matrix(field, rows), N, 0, curve, G, places)
    k = code.k = fiber_block_rank(code)
    g = curve.genus()
    deg = G.degree()
    if 2 * g - 2 < deg < N:
        expected = deg + 1 - g
        if k != expected:
            raise InternalInvariantError(
                f"rank {k} does not match deg G + 1 - g = {expected}"
            )
    if k < rows.shape[0]:
        code.generator = Matrix(field, linalg.row_space_basis(field, rows))
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


def min_distance(code: LinearCode, exhaustive_limit: int = 1 << 20) -> MinDistance:
    """Exact minimum weight by exhausting q^k codewords when feasible,
    otherwise the designed lower bound N - deg G."""
    if code.k == 0:
        return MinDistance(math.inf, True)
    q = code.field.q
    if q**code.k > exhaustive_limit:
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
    if c1.field != c2.field:
        raise FieldMismatchError("codes live over different fields")
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

    The certificates must telescope lmd(G,H) - D onto a divisor supported on
    ramified places (minus possibly some coefficient -1 affine places); a
    chain that leaves other support standing is rejected.
    """
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
