"""Exception types shared across the package."""


class DRingKitError(Exception):
    """Base class for all dringkit errors."""


class RingMismatchError(DRingKitError):
    """Elements or polynomials from different coefficient rings were combined."""


class UnsupportedRingError(DRingKitError):
    """The requested operation is not available over the given ring."""


class DenominatorNotInW(DRingKitError):
    """A reduced denominator has a prime factor that is neither 2 nor 1 mod 4."""


class ZeroInputError(DRingKitError):
    """Zero was supplied where a nonzero element is required."""


class ZeroPolynomialError(DRingKitError):
    """The zero polynomial was supplied where a nonzero one is required."""


class NotPrimitiveError(DRingKitError):
    """A primitive divisor is required."""


class ConstantDivisorError(DRingKitError):
    """A nonconstant divisor is required."""


class ConstantPolynomialError(DRingKitError):
    """A nonconstant polynomial is required."""


class EmptySampleSetError(DRingKitError):
    """An evaluation check needs at least one sample point."""


class ArgumentCapError(DRingKitError):
    """A command-line argument exceeds its documented cap."""


class VerificationError(DRingKitError):
    """An answer failed its own re-check (a quotient, a root, an identity);
    arithmetic bug."""


class PolyParseError(DRingKitError):
    """Polynomial or ring text could not be parsed."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position
