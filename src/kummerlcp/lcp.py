"""Three verified constructions of linear complementary pairs of AG codes.

All three start from a certified non-special divisor of small degree
supported on totally ramified places and shift weight along principal
divisors of y and x-b, so that gcd(G, H) keeps degree g-1 and
lmd(G, H) - D stays equivalent to a non-special divisor:

  "1" (pole shift):  G = E + (N - s*deg f) * Qinf,
                     H = E + s*(y) + s*deg f * Qinf;   dims N - s*deg f / s*deg f.
  "2" (pair):        two certified divisors E1 (zeros only) and E2 (no Q_n);
                     weight s moves between them;      dims N - s(n-1) - (alpha_n - beta_0) / rest.
  "R" (punctured):   E of degree g; the first split fiber is dropped except
                     its second point, H picks up -R_1; dims N-m+1-sn / sn.

Every result carries the equivalence certificates, both codes, and a report
combining the unconditional rank test with the sufficient-condition checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codes import (
    CertStep,
    LcpReport,
    LinearCode,
    ag_code,
    is_lcp,
    verify_lcp_conditions,
)
from .curve import Divisor, KummerCurve, Place
from .errors import (
    ConditionViolationError,
    ENotCertifiedError,
    InternalInvariantError,
    NeedTwoFibersError,
    NotSeparableError,
    SRangeViolationError,
    UnsupportedPlaceStructureError,
)
from .field import encoding
from .nonspecial import (
    DivisorFamily,
    box_multiset,
    divisor_nonspecial_g,
    divisor_nonspecial_gminus1,
    nonspecial_effective_g,
    unit_multiplicity_family,
)
from .semigroup import QTuple


@dataclass
class LcpConstruction:
    construction: str  # "1", "2" or "R"
    s: int
    curve: KummerCurve
    d_places: tuple[Place, ...]
    G: Divisor
    H: Divisor
    E: Divisor
    E2: Divisor | None
    certificates: tuple[CertStep, ...]
    code_g: LinearCode
    code_h: LinearCode
    report: LcpReport

    def to_json(self) -> dict:
        out = {
            "construction": self.construction,
            "s": self.s,
            "curve": self.curve.to_json(),
            "D": [p.id() for p in self.d_places],
            "G": self.G.to_json(),
            "H": self.H.to_json(),
            "E": self.E.to_json(),
            "certificates": [c.to_json() for c in self.certificates],
            "codes": [self.code_g.to_json(), self.code_h.to_json()],
            "report": self.report.to_json(),
        }
        if self.E2 is not None:
            out["E2"] = self.E2.to_json()
        return out


def _require_infinity(curve: KummerCurve) -> Place:
    if curve.d_inf != 1:
        raise UnsupportedPlaceStructureError(
            "constructions need gcd(deg f, m) = 1 so infinity is totally ramified"
        )
    return Place.infinity()


def _split_setup(curve: KummerCurve, eval_x) -> list[tuple[int, list[Place]]]:
    """The split fibers over eval_x (every split x when None), each x once,
    ascending.  An entry is a FieldElement of the curve's field or an integer
    encoding (field.encoding)."""
    if eval_x is not None:
        eval_x = [encoding(curve.field, x) for x in eval_x]
    return curve.split_fibers(eval_x)


def _finalize(
    construction: str,
    curve: KummerCurve,
    s: int,
    d_places: list[Place],
    G: Divisor,
    H: Divisor,
    E: Divisor,
    E2: Divisor | None,
    certificates: list[CertStep],
    expect_k1: int,
    expect_k2: int,
) -> LcpConstruction:
    code_g = ag_code(curve, d_places, G)
    code_h = ag_code(curve, d_places, H)
    if (code_g.k, code_h.k) != (expect_k1, expect_k2):
        raise InternalInvariantError(
            f"dimensions ({code_g.k}, {code_h.k}) differ from the closed form "
            f"({expect_k1}, {expect_k2})"
        )
    report = is_lcp(code_g, code_h)
    conditions = verify_lcp_conditions(curve, d_places, G, H, certificates)
    report.conditions = conditions
    if not (report.verdict and conditions.passed):
        raise InternalInvariantError("construction did not verify as an LCP")
    return LcpConstruction(
        construction, s, curve, tuple(d_places), G, H, E, E2,
        tuple(certificates), code_g, code_h, report,
    )


def lcp_pole_shift(
    curve: KummerCurve, E: Divisor, s: int, eval_x=None
) -> LcpConstruction:
    """Construction "1": move N - s*deg f pole weight to infinity.

    E must be a certified non-special divisor of degree g-1 supported on the
    totally ramified places; s must satisfy (g-1)/deg f < s < (N+1-g)/deg f.
    Yields an LCP with dimensions [N, N - s*deg f] and [N, s*deg f].
    """
    inf = _require_infinity(curve)
    lam0 = curve.deg_f
    g = curve.genus()
    if not divisor_nonspecial_gminus1(curve, E):
        raise ENotCertifiedError("E is not a non-special divisor of degree g-1")
    fibers = _split_setup(curve, eval_x)
    N = curve.m * len(fibers)
    if not (g - 1 < s * lam0 < N + 1 - g):
        raise SRangeViolationError(
            f"s = {s} outside ((g-1)/{lam0}, (N+1-g)/{lam0}) = "
            f"({(g - 1) / lam0:.3f}, {(N + 1 - g) / lam0:.3f})"
        )
    d_places = [p for _, fiber in fibers for p in fiber]
    G = E + Divisor.of((inf, N - s * lam0))
    H = E + s * curve.principal_divisor("y") + Divisor.of((inf, s * lam0))
    certificates = [CertStep("y", None, s)]
    certificates.extend(CertStep("x-b", x0, -1) for x0, _ in fibers)
    return _finalize("1", curve, s, d_places, G, H, E, None, certificates,
                     N - s * lam0, s * lam0)


def lcp_pair(
    curve: KummerCurve, E1: Divisor, E2: Divisor, s: int, eval_x=None
) -> LcpConstruction:
    """Construction "2" for separable f with all zero places in play.

    E1 lives on the zero places (Q_1..Q_n), E2 on infinity and the first
    n-1 zero places; both certified non-special of degree g-1.  The integer
    s must satisfy the three interlacing conditions below.
    """
    inf = _require_infinity(curve)
    if any(lam != 1 for _, lam in curve.roots):
        raise NotSeparableError("construction 2 needs a separable f")
    n = len(curve.roots)
    g = curve.genus()
    zero_places = [curve.root_place(k) for k in range(n)]
    if set(E1.support()) - set(zero_places):
        raise ENotCertifiedError("E1 must be supported on the zero places")
    allowed_e2 = {inf, *zero_places[: n - 1]}
    if set(E2.support()) - allowed_e2:
        raise ENotCertifiedError("E2 must be supported on infinity and Q_1..Q_{n-1}")
    if not divisor_nonspecial_gminus1(curve, E1):
        raise ENotCertifiedError("E1 is not a non-special divisor of degree g-1")
    if not divisor_nonspecial_gminus1(curve, E2):
        raise ENotCertifiedError("E2 is not a non-special divisor of degree g-1")
    alpha = [E1.coeff(p) for p in zero_places]
    beta0 = E2.coeff(inf)
    beta = [E2.coeff(p) for p in zero_places]
    fibers = _split_setup(curve, eval_x)
    N = curve.m * len(fibers)
    for k in range(n - 1):
        if alpha[k] - beta[k] > s:
            raise ConditionViolationError(
                "i", f"alpha_{k + 1} - beta_{k + 1} = {alpha[k] - beta[k]} > s = {s}"
            )
    if not (alpha[n - 1] <= s and s * n <= beta0 + N):
        raise ConditionViolationError(
            "ii", f"need alpha_n = {alpha[n - 1]} <= s and s <= (beta_0+N)/n = {(beta0 + N) / n:.3f}"
        )
    lo = g - 1 + beta0 - alpha[n - 1]
    hi = N - g + 1 + beta0 - alpha[n - 1]
    if not (lo < s * (n - 1) < hi):
        raise ConditionViolationError(
            "iii", f"s(n-1) = {s * (n - 1)} outside ({lo}, {hi})"
        )
    d_places = [p for _, fiber in fibers for p in fiber]
    G = Divisor(
        [(zero_places[k], alpha[k]) for k in range(n - 1)]
        + [(zero_places[n - 1], s), (inf, beta0 + N - s * n)]
    )
    H = Divisor(
        [(zero_places[k], s + beta[k]) for k in range(n - 1)]
        + [(zero_places[n - 1], alpha[n - 1])]
    )
    certificates = [CertStep("y", None, s)]
    certificates.extend(CertStep("x-b", x0, -1) for x0, _ in fibers)
    k2 = s * (n - 1) + alpha[n - 1] - beta0
    return _finalize("2", curve, s, d_places, G, H, E1, E2, certificates,
                     N - k2, k2)


def lcp_punctured(
    curve: KummerCurve, E: Divisor, s: int, eval_x=None
) -> LcpConstruction:
    """Construction "R": drop the first split fiber except its second point.

    E must be a certified non-special divisor of degree g supported on the
    totally ramified places; H carries -R_1 and its Riemann-Roch space is
    realized as the kernel of evaluation at R_1 inside L(H + R_1).
    Dimensions: [N-m+1, N-m+1-sn] and [N-m+1, sn], n = deg f.
    """
    inf = _require_infinity(curve)
    if any(lam != 1 for _, lam in curve.roots):
        raise NotSeparableError("construction R needs a separable f")
    n = len(curve.roots)
    g = curve.genus()
    if not divisor_nonspecial_g(curve, E):
        raise ENotCertifiedError("E is not a non-special divisor of degree g")
    fibers = _split_setup(curve, eval_x)
    if len(fibers) < 2:
        raise NeedTwoFibersError("construction R needs at least two split fibers")
    N = curve.m * len(fibers)
    if not (g - 1 < s * n < N - curve.m - g + 2):
        raise SRangeViolationError(
            f"s = {s} outside ((g-1)/{n}, (N-m-g+2)/{n}) = "
            f"({(g - 1) / n:.3f}, {(N - curve.m - g + 2) / n:.3f})"
        )
    _, first_fiber = fibers[0]
    r1, r2 = first_fiber[0], first_fiber[1]
    d_places = [r2] + [p for _, fiber in fibers[1:] for p in fiber]
    alpha0 = E.coeff(inf)
    G = (E - Divisor.of((inf, alpha0))) + Divisor.of((inf, N - curve.m + alpha0 - s * n))
    zero_sum = Divisor((curve.root_place(k), 1) for k in range(n))
    # deg(H + R_1) = g + s*n >= 2g on the s-range, so H + R_1 and H are both
    # non-special and evaluation at R_1 is onto: dim L(H) = s*n (Riemann-Roch;
    # ag_code and _finalize check the dimensions)
    H = E + s * zero_sum - Divisor.of((r1, 1))
    certificates = [CertStep("y", None, s)]
    certificates.extend(CertStep("x-b", x0, -1) for x0, _ in fibers[1:])
    return _finalize("R", curve, s, d_places, G, H, E, None, certificates,
                     N - curve.m + 1 - s * n, s * n)


def _default_gminus1(curve: KummerCurve, zeros_only: bool = False) -> Divisor:
    """Canonical certified divisor of degree g-1 from the widest tuple whose
    multiplicities are congruent to 1 mod m."""
    m = curve.m
    places = [
        p for p in curve.totally_ramified_places()
        if curve.signed_multiplicity(p) % m == 1 and not (zeros_only and p.kind == "inf")
    ]
    if len(places) < 2:
        raise ENotCertifiedError("no default E available; pass one explicitly")
    fam = unit_multiplicity_family(curve, QTuple.of(curve, places))
    if not isinstance(fam, DivisorFamily):
        raise ENotCertifiedError(
            f"no default E available: {fam.witness}; pass one explicitly"
        )
    return fam.canonical()


def build(curve: KummerCurve, construction: str, s: int,
          E: Divisor | None = None, E2: Divisor | None = None,
          eval_x=None) -> LcpConstruction:
    """Dispatch by construction id, deriving canonical defaults for E."""
    if construction == "1":
        if E is None:
            E = _default_gminus1(curve)
        return lcp_pole_shift(curve, E, s, eval_x)
    if construction == "2":
        if E is None:
            E = _default_gminus1(curve, zeros_only=True)
        if E2 is None:
            raise ENotCertifiedError("construction 2 needs an explicit E2")
        return lcp_pair(curve, E, E2, s, eval_x)
    if construction == "R":
        if E is None:
            E = _default_effective_g(curve)
        return lcp_punctured(curve, E, s, eval_x)
    raise ValueError(f"unknown construction {construction!r}")


def _default_effective_g(curve: KummerCurve) -> Divisor:
    """Canonical effective non-special divisor of degree g on the all-ramified
    tuple, for tuples with every multiplicity congruent to 1 mod m."""
    qtuple = QTuple.all_ramified(curve)
    m = curve.m
    n = qtuple.n
    if any(lam % m != 1 for lam in qtuple.lambdas):
        raise ENotCertifiedError("no canonical effective divisor; pass E explicitly")
    betas = curve.gap_vector()
    counts = [n - betas[0]]
    counts.extend(betas[i - 1] - betas[i] for i in range(1, m - 1))
    counts.append(betas[m - 2])
    if any(c < 0 for c in counts) or sum(counts) != n:
        raise ENotCertifiedError("no canonical effective divisor; pass E explicitly")
    alpha = box_multiset(counts)
    if not nonspecial_effective_g(qtuple, alpha):
        raise ENotCertifiedError("no canonical effective divisor; pass E explicitly")
    return qtuple.divisor(alpha)
