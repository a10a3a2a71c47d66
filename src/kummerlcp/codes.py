"""AG codes over GF(q): generator matrices, parameters, and LCP verification.

A code is the image of a Riemann-Roch space under evaluation at split
rational places.  Two independent LCP checks are provided: the
unconditional rank test (dimensions sum to N and the stacked generators
have full rank) and the sufficient-condition verifier (degree window,
degree sum, gcd degree g-1, and non-specialness of gcd(G,H) and of
lmd(G,H) - D after reduction along a caller-supplied chain of principal
divisors).
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
    ShapeMismatchError,
    SupportOverlapError,
    UnsupportedSupportError,
)
from .field import Field


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


def stack_rank(m1: Matrix, m2: Matrix) -> int:
    if m1.field != m2.field:
        raise FieldMismatchError("stacked matrices live over different fields")
    if m1.cols != m2.cols:
        raise ShapeMismatchError(f"column counts differ: {m1.cols} vs {m2.cols}")
    return linalg.rank(m1.field, np.vstack([m1.data, m2.data]))


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

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "k": self.k,
            "field": self.field.to_json(),
            "generator": self.generator.to_json(),
        }


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
    k = linalg.rank(field, rows) if rows.size else 0
    g = curve.genus()
    deg = G.degree()
    if 2 * g - 2 < deg < N:
        expected = deg + 1 - g
        if k != expected:
            raise InternalInvariantError(
                f"rank {k} does not match deg G + 1 - g = {expected}"
            )
    if k < rows.shape[0]:
        rows = linalg.row_space_basis(field, rows)
    return LinearCode(field, Matrix(field, rows), N, k, curve, G, places)


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
    """Row-vector encodings: messages (count x k) -> codewords (count x N)."""
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
    r = stack_rank(c1.generator, c2.generator)
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
        return CertStep(obj["gen"], None if b is None else int(b), int(obj["mult"]))


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
    total = Divisor.zero()
    for step in certificates:
        if step.kind == "y":
            total = total + step.mult * curve.principal_divisor("y")
        elif step.kind == "x-b":
            total = total + step.mult * curve.principal_divisor("x-b", step.b)
        else:
            raise CertificateInvalidError(f"unknown generator kind {step.kind!r}")
    return total


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
        from .errors import KummerError
        from .nonspecial import divisor_nonspecial_gminus1

        try:
            ok = divisor_nonspecial_gminus1(curve, W)
            report.add(f"{label} criterion", ok, "arithmetic criterion")
        except KummerError:
            pass  # tuple constraints not met; the dimension check above decides


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
