"""Exception hierarchy with stable machine-readable error codes.

Every error raised by the library carries a short ``code`` string that the
CLI emits verbatim, so scripted callers can dispatch on it without parsing
messages.
"""

from __future__ import annotations


class KummerError(Exception):
    """Base class for all library errors."""

    code = "Error"

    def payload(self) -> dict:
        return {"error": self.code, "message": str(self)}


class InternalInvariantError(KummerError):
    """A computed result broke an identity the library relies on: a bug, not bad input.

    Raised explicitly rather than through ``assert`` so the check also runs
    under ``python -O``.
    """

    code = "InternalInvariant"


# --- finite field -----------------------------------------------------------

class NotPrimeError(KummerError):
    code = "NotPrime"


class TooLargeError(KummerError):
    code = "TooLarge"


class DivisionByZeroError(KummerError):
    code = "DivisionByZero"


class FieldMismatchError(KummerError):
    code = "FieldMismatch"


class ElementOutOfRangeError(KummerError):
    """An encoding outside [0, q) where a field element is expected."""

    code = "ElementOutOfRange"


# --- curve model ------------------------------------------------------------

class CharDividesMError(KummerError):
    code = "CharDividesM"


class DuplicateRootError(KummerError):
    code = "DuplicateRoot"


class MultiplicityOutOfRangeError(KummerError):
    code = "MultiplicityOutOfRange"


class NoTotallyRamifiedPlaceError(KummerError):
    code = "NoTotallyRamifiedPlace"


class PoleAtPlaceError(KummerError):
    code = "PoleAtPlace"


class UnsupportedPlaceStructureError(KummerError):
    code = "UnsupportedPlaceStructure"


# --- semigroup / nonspecial -------------------------------------------------

class IndexOutOfRangeError(KummerError):
    code = "IndexOutOfRange"


class QTupleSizeError(KummerError):
    code = "QTupleTooSmallOrTooLarge"


class DuplicatePlaceError(KummerError):
    code = "DuplicatePlace"


class NotTotallyRamifiedError(KummerError):
    code = "NotTotallyRamified"


class AlphaOutOfRangeError(KummerError):
    code = "AlphaOutOfRange"


class NotSeparableError(KummerError):
    code = "NotSeparable"


class GcdNotOneError(KummerError):
    code = "GcdNotOne"


class Alpha0OutOfRangeError(KummerError):
    code = "Alpha0OutOfRange"


class LambdaNotCongruentOneError(KummerError):
    code = "LambdaNotCongruentOne"


# --- Riemann-Roch spaces ----------------------------------------------------

class UnsupportedSupportError(KummerError):
    code = "UnsupportedSupport"


# --- linear algebra / codes -------------------------------------------------

class ShapeMismatchError(KummerError):
    code = "ShapeMismatch"


class SupportOverlapError(KummerError):
    code = "SupportOverlap"


class CertificateInvalidError(KummerError):
    code = "CertificateInvalid"


# --- LCP constructions ------------------------------------------------------

class SRangeViolationError(KummerError):
    code = "SRangeViolation"


class ENotCertifiedError(KummerError):
    code = "ENotCertified"


class NeedTwoFibersError(KummerError):
    code = "NeedTwoFibers"


class ConditionViolationError(KummerError):
    code = "ConditionViolation"

    def __init__(self, which: str, message: str):
        super().__init__(message)
        self.which = which
        self.code = f"ConditionViolation({which})"


# --- CLI --------------------------------------------------------------------

class UsageError(KummerError):
    code = "Usage"
