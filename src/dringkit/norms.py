"""Coefficientwise conjugation and norm polynomials for quadratic rings.

The Galois group of a quadratic extension is {identity, conjugation}, so the
norm of a polynomial is the product of the polynomial with its conjugate; the
result always lands in Z[x] and that integrality is checked rather than
trusted.
"""

from __future__ import annotations

from typing import Iterable

from .errors import UnsupportedRingError, VerificationError
from .polynomials import Poly
from .rings import ZZ, QuadInt, QuadRing, Record

STATUS_HOLDS = "holds"
STATUS_VACUOUS = "vacuous"
STATUS_VIOLATION = "violation"


def conjugate_poly(p: Poly) -> Poly:
    """Apply the ring conjugation to every coefficient. A polynomial that it
    fixes, such as every polynomial over Z, is returned as is."""
    coeffs = [c.conjugate() for c in p.coeffs]
    return p if tuple(coeffs) == p.coeffs else Poly._trusted(coeffs, p.ring)


def norm_poly(p: Poly) -> Poly:
    """The product p * conjugate_poly(p), projected onto Z[x].

    Every coefficient of the product has zero w-part; the projection checks
    this and raises VerificationError on a violation, which would indicate an
    arithmetic bug rather than bad input.
    """
    if not isinstance(p.ring, QuadRing):
        raise UnsupportedRingError("norm polynomials need quadratic coefficients")
    product = p * conjugate_poly(p)
    values = []
    for i, c in enumerate(product.coeffs):
        if c.b != 0:
            raise VerificationError(f"coefficient of x^{i} kept w-part {c.b}")
        values.append(c.a)
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
    are dropped, so the report does not depend on evaluation order. A sample
    that is not an int, such as a float, raises TypeError.
    """
    f._check_ring(g)
    if not g:
        raise ZeroDivisionError("the divisor polynomial is zero")
    dividend_norm = norm_poly(f)
    divisor_norm = norm_poly(g)
    points = sorted(set(ZZ.coerce(b) for b in samples))
    gvals, fvals = g.values(points), f.values(points)
    gnorms, fnorms = divisor_norm.values(points), dividend_norm.values(points)
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
