"""dringkit: exact divisibility-from-evaluations for polynomials over Z and
quadratic integer rings.

The toolkit decides polynomial divisibility from pointwise evaluation
divisibility (a primitive nonconstant divisor over Z that divides f(k) at
every integer k with g(k) != 0 divides f as a polynomial), and ships the
surrounding machinery: quadratic integer arithmetic with conjugation and
norms, Gauss-lemma content extraction, fraction-free pseudo-division, norm
polynomials for quadratic extensions, prime solvability searches, and
reproducible demonstrations (the Fermat x^p - x non-example, unit values of
x^2 + 1 over Z[W], and the Chebyshev pairs T_n, U_{n-1}).
"""

from .errors import (
    ArgumentCapError,
    ConstantDivisorError,
    ConstantPolynomialError,
    DenominatorNotInW,
    DRingKitError,
    EmptySampleSetError,
    NotPrimitiveError,
    PolyParseError,
    RingMismatchError,
    UnsupportedRingError,
    VerificationError,
    ZeroInputError,
    ZeroPolynomialError,
)
from .lab import (
    DEFAULT_DEMO_SEED,
    SAMPLE_WINDOW_NOTE,
    ChebCertifyReport,
    ChebPair,
    DivisibilityCertificate,
    EvalDivReport,
    PrimeSolvabilityRecord,
    ZWUnitReport,
    certify_divisibility,
    cheb_certify,
    cheb_generate,
    eval_divisibility,
    sf_search,
    witness_scan_order,
    zw_unit_demo,
)
from .norms import (
    TransferReport,
    TransferSample,
    conjugate_poly,
    norm_poly,
    norm_transfer_check,
)
from .parsing import parse_poly, parse_ring
from .polynomials import (
    Poly,
    PseudoDivResult,
    content,
    exact_divide,
    field_divide,
    is_primitive,
    primitive_part,
    pseudo_divide,
)
from .rings import (
    NORM_EUCLIDEAN_D,
    ZZ,
    IntegerRing,
    QuadInt,
    QuadRing,
    WRational,
    factorize,
    is_squarefree,
    is_w_prime,
    primes_up_to,
    quad_gcd,
)

__version__ = "0.1.0"

__all__ = [
    "ArgumentCapError",
    "ChebCertifyReport",
    "ChebPair",
    "ConstantDivisorError",
    "ConstantPolynomialError",
    "DEFAULT_DEMO_SEED",
    "DRingKitError",
    "DenominatorNotInW",
    "DivisibilityCertificate",
    "EmptySampleSetError",
    "EvalDivReport",
    "IntegerRing",
    "NORM_EUCLIDEAN_D",
    "NotPrimitiveError",
    "Poly",
    "PolyParseError",
    "PrimeSolvabilityRecord",
    "PseudoDivResult",
    "QuadInt",
    "QuadRing",
    "RingMismatchError",
    "SAMPLE_WINDOW_NOTE",
    "TransferReport",
    "TransferSample",
    "UnsupportedRingError",
    "VerificationError",
    "WRational",
    "ZZ",
    "ZWUnitReport",
    "ZeroInputError",
    "ZeroPolynomialError",
    "certify_divisibility",
    "cheb_certify",
    "cheb_generate",
    "conjugate_poly",
    "content",
    "eval_divisibility",
    "exact_divide",
    "factorize",
    "field_divide",
    "is_primitive",
    "is_squarefree",
    "is_w_prime",
    "norm_poly",
    "norm_transfer_check",
    "parse_poly",
    "parse_ring",
    "primes_up_to",
    "primitive_part",
    "pseudo_divide",
    "quad_gcd",
    "sf_search",
    "witness_scan_order",
    "zw_unit_demo",
]
