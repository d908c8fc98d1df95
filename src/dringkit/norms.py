"""Coefficientwise conjugation and norm polynomials for quadratic rings.

The Galois group of a quadratic extension is {identity, conjugation}, so the
norm of a polynomial is the product of the polynomial with its conjugate; the
result always lands in Z[x] and that integrality is checked rather than
trusted.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import EmptySampleSetError, UnsupportedRingError, VerificationError
from .polynomials import Poly, _plus_minus_values, _quad_product
from .rings import ZZ, QuadRing, Record

STATUS_HOLDS = "holds"
STATUS_VACUOUS = "vacuous"
STATUS_VIOLATION = "violation"


def conjugate_poly(p: Poly) -> Poly:
    """Apply the ring conjugation to every coefficient. A polynomial that it
    fixes, such as every polynomial over Z, is returned as is."""
    coeffs = [c.conjugate() for c in p.coeffs]
    return p if tuple(coeffs) == p.coeffs else Poly._trusted(coeffs, p.ring)


def _conjugate_pairs(pairs: list[tuple[int, int]], ring: QuadRing) -> list[tuple[int, int]]:
    """The coordinates (a + t*b, -b) of conj(a + b*w) for each pair (a, b):
    the adjugate's first column, as in QuadInt.conjugate."""
    t = ring.t
    return [(a + t * b, -b) for a, b in pairs]


def norm_poly(p: Poly) -> Poly:
    """The product p * conjugate_poly(p), projected onto Z[x].

    The product is taken on integer coordinates, p's coefficients against the
    coordinate pairs of their conjugates. Every coefficient of it has zero
    w-part; the projection checks this and raises VerificationError on a
    violation, which would indicate an arithmetic bug rather than bad input.
    """
    ring = p.ring
    if not isinstance(ring, QuadRing):
        raise UnsupportedRingError("norm polynomials need quadratic coefficients")
    pairs = _conjugate_pairs([(c.a, c.b) for c in p.coeffs], ring)
    values, w_parts = _quad_product(p.coeffs, pairs, ring)
    for i, b in enumerate(w_parts):
        if b != 0:
            raise VerificationError(f"coefficient of x^{i} kept w-part {b}")
    return Poly._trusted(values, ZZ)


class TransferSample(Record):
    """Divisibility bookkeeping at one integer sample point.

    element_divides / norm_divides are None when the respective divisor value
    vanishes at the point.
    """

    __slots__ = ("point", "divisor_value", "dividend_value", "divisor_norm", "dividend_norm",
                 "element_divides", "norm_divides", "status")


class TransferReport(Record):
    """Outcome of checking that elementwise divisibility transfers to norms."""

    __slots__ = ("dividend_norm_poly", "divisor_norm_poly", "samples", "verdict")


def norm_transfer_check(f: Poly, g: Poly, samples: Iterable[int]) -> TransferReport:
    """At each integer sample b with g(b) != 0 and g(b) | f(b) in the quadratic
    ring, require norm(g)(b) | norm(f)(b) in Z.

    Samples where the divisor vanishes or does not divide carry no obligation
    and are marked vacuous. Records are sorted by sample point and duplicates
    are dropped, so the report does not depend on evaluation order. A float
    sample raises TypeError, and no samples raise EmptySampleSetError.
    """
    f._check_ring(g)
    if not g:
        raise ZeroDivisionError("the divisor polynomial is zero")
    dividend_norm = norm_poly(f)
    divisor_norm = norm_poly(g)
    points = sorted(set(ZZ.coerce(b) for b in samples))
    if not points:
        raise EmptySampleSetError("need at least one sample point")
    ks = {abs(k) for k in points}
    gvals = _plus_minus_values(g.coeffs, f.ring, ks)
    fvals = _plus_minus_values(f.coeffs, f.ring, ks)
    gnorms = _plus_minus_values(divisor_norm.coeffs, ZZ, ks)
    fnorms = _plus_minus_values(dividend_norm.coeffs, ZZ, ks)
    records = []
    for point in points:
        gval, fval = gvals[point], fvals[point]
        gnorm, fnorm = gnorms[point], fnorms[point]
        if gnorm != gval.norm() or fnorm != fval.norm():
            raise VerificationError("norm evaluation disagreed with elementwise norm")
        element_divides = norm_divides = None
        status = STATUS_VACUOUS
        if gval:
            element_divides = gval.divides(fval) is not None
            norm_divides = fnorm % gnorm == 0
            if element_divides:
                status = STATUS_HOLDS if norm_divides else STATUS_VIOLATION
        records.append(
            TransferSample(
                point, gval, fval, gnorm, fnorm, element_divides, norm_divides, status
            )
        )
    verdict = (
        "VIOLATION"
        if any(r.status == STATUS_VIOLATION for r in records)
        else "CONSISTENT"
    )
    return TransferReport(dividend_norm, divisor_norm, tuple(records), verdict)
