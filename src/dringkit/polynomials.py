"""Dense univariate polynomials over Z or a quadratic integer ring.

Coefficients are stored in ascending powers and the leading coefficient is
always nonzero; the zero polynomial has an empty coefficient tuple and degree
None. All arithmetic is exact and stays inside the coefficient ring.

Coefficients are validated once, where they enter: `Poly(...)` and the
`zero`, `one`, `x`, `constant` and `monomial` constructors coerce every
coefficient into the ring, and a scalar multiplier is coerced once per
product. Arithmetic trusts its own outputs: sums, products, quotients and the
other results built here from coefficients already in the ring go through
`Poly._trusted`, which only strips trailing zeros. So does `parse_poly`,
which builds its ints and QuadInts from the text itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import (
    RingMismatchError,
    UnsupportedRingError,
    VerificationError,
    ZeroPolynomialError,
)
from .rings import ZZ, IntegerRing, QuadInt, QuadRing, _decimal

CoefficientRing = Union[IntegerRing, QuadRing]
Element = Union[int, QuadInt]


@dataclass(frozen=True)
class Poly:
    """coeffs[i] holds the coefficient of x**i."""

    coeffs: tuple = ()
    ring: CoefficientRing = ZZ

    def __post_init__(self) -> None:
        normalized = [self.ring.coerce(c) for c in self.coeffs]
        while normalized and not normalized[-1]:
            normalized.pop()
        object.__setattr__(self, "coeffs", tuple(normalized))

    @classmethod
    def _trusted(cls, coeffs: list, ring: CoefficientRing) -> "Poly":
        """A polynomial over `ring` from a list of coefficients already in it.

        Skips the coercion of `__post_init__`; only trailing zeros are stripped,
        in place, so the caller hands over the list.
        """
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", tuple(coeffs))
        object.__setattr__(p, "ring", ring)
        return p

    @classmethod
    def zero(cls, ring: CoefficientRing = ZZ) -> "Poly":
        return cls((), ring)

    @classmethod
    def one(cls, ring: CoefficientRing = ZZ) -> "Poly":
        return cls((1,), ring)

    @classmethod
    def x(cls, ring: CoefficientRing = ZZ) -> "Poly":
        return cls((0, 1), ring)

    @classmethod
    def constant(cls, value, ring: CoefficientRing = ZZ) -> "Poly":
        return cls((value,), ring)

    @classmethod
    def monomial(cls, coeff, power: int, ring: CoefficientRing = ZZ) -> "Poly":
        return cls((0,) * power + (coeff,), ring)

    def degree(self) -> int | None:
        """Index of the leading coefficient; None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def leading_coefficient(self) -> Element:
        if not self.coeffs:
            raise ZeroPolynomialError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def _check_ring(self, other: "Poly") -> None:
        if self.ring != other.ring:
            raise RingMismatchError(
                f"cannot combine polynomials over {self.ring} and {other.ring}"
            )

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_ring(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly._trusted(out, self.ring)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return Poly._trusted([-c for c in self.coeffs], self.ring)

    def __mul__(self, other):
        if isinstance(other, Poly):
            self._check_ring(other)
            ring = self.ring
            f, g = self.coeffs, other.coeffs
            if not isinstance(ring, QuadRing):
                return Poly._trusted(_int_product(f, g), ring)
            # (A + B*w)(C + E*w) = AC + n*BE + (AE + BC + t*BE)*w, as w**2 = t*w + n.
            a, b = [x.a for x in f], [x.b for x in f]
            c, e = [x.a for x in g], [x.b for x in g]
            t, n = ring.t, ring.n
            out = [
                QuadInt(ac + n * be, ae + bc + t * be, ring)
                for ac, ae, bc, be in zip(
                    _int_product(a, c), _int_product(a, e),
                    _int_product(b, c), _int_product(b, e),
                )
            ]
            return Poly._trusted(out, ring)
        scalar = self.ring.coerce(other)
        return Poly._trusted([c * scalar for c in self.coeffs], self.ring)

    __rmul__ = __mul__

    def evaluate(self, point) -> Element:
        """Horner evaluation at a point coerced into the coefficient ring.

        At a plain int over Z[w], the a- and b-coordinates each take one
        Horner pass on plain ints, since (a + b*w)*k + c = (a*k + c.a) +
        (b*k + c.b)*w; one QuadInt is built at the end.
        """
        if isinstance(self.ring, QuadRing) and isinstance(point, int):
            a = b = 0
            for c in reversed(self.coeffs):
                a = a * point + c.a
                b = b * point + c.b
            return QuadInt(a, b, self.ring)
        point = self.ring.coerce(point)
        acc = self.ring.zero
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    __call__ = evaluate

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for power in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[power]
            if not c:
                continue
            sign, body = _term_text(c, power)
            if not parts:
                parts.append(body if sign > 0 else "-" + body)
            else:
                parts.append((" + " if sign > 0 else " - ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


def _int_product(a, b) -> list[int]:
    """Schoolbook product of two coefficient sequences of ints; an empty
    operand gives only zeros, which Poly._trusted strips."""
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if not c:
            continue
        for j, d in enumerate(b, i):
            out[j] = out[j] + c * d
    return out


def _term_text(c: Element, power: int) -> tuple[int, str]:
    """Sign and unsigned text of one printed term."""
    if power == 0:
        var = ""
    elif power == 1:
        var = "x"
    else:
        var = f"x^{power}"
    if isinstance(c, QuadInt):
        sign = 1 if (c.a > 0 or (c.a == 0 and c.b > 0)) else -1
        m = c if sign > 0 else -c
        return sign, f"[{m}]{var}"
    sign = 1 if c > 0 else -1
    m = abs(c)
    return sign, var if var and m == 1 else _decimal(m) + var


@dataclass(frozen=True)
class PseudoDivResult:
    """Witness of multiplier * f == g * q + r with r == 0 or deg r < deg g.

    The multiplier is lc(g)**s and s = max(deg f - deg g + 1, 0).
    """

    multiplier: Element
    quotient: Poly
    remainder: Poly
    s: int


def content(p: Poly) -> Element:
    """Gcd of the coefficients: positive over Z, an arbitrary associate over Z[w]."""
    if not p:
        raise ZeroPolynomialError("the zero polynomial has no content")
    return p.ring.gcd(*p.coeffs)


def is_primitive(p: Poly) -> bool:
    """True when the content is a unit (tested via the norm over Z[w])."""
    return p.ring.is_unit(content(p))


def primitive_part(p: Poly) -> tuple[Element, Poly]:
    """Split p as content * primitive polynomial of the same degree."""
    c = content(p)
    parts = [p.ring.divides(c, value) for value in p.coeffs]
    if None in parts:
        raise VerificationError("content must divide every coefficient")
    return c, Poly._trusted(parts, p.ring)


def pseudo_divide(f: Poly, g: Poly) -> PseudoDivResult:
    """Fraction-free division of f by g, entirely inside the coefficient ring.

    Knuth's Algorithm R (TAOCP vol. 2, section 4.6.1) on one list u of f's
    coefficients: with n = deg g and s = max(deg f - n + 1, 0), the step for
    k = s-1, ..., 0 sets q_k = u_{n+k} * lc(g)**k and then
    u_j = lc(g)*u_j - u_{n+k}*g_{j-k} for j = k, ..., n+k-1. Algorithm R also
    multiplies every u_j with j < k by lc(g) at that step; here the factor is
    deferred and u_k takes all s-1-k of them as one power when it joins the
    window. The identity lc(g)**s * f == g*q + r is re-checked before
    returning.
    """
    f._check_ring(g)
    if not g:
        raise ZeroDivisionError("pseudo-division by the zero polynomial")
    ring = f.ring
    n = g.degree()
    s = max(len(f.coeffs) - n, 0)
    lead = g.coeffs[n]
    low = g.coeffs[:n]
    powers = [ring.one]
    for _ in range(s):
        powers.append(powers[-1] * lead)
    u = list(f.coeffs)
    q = [ring.zero] * s
    for k in range(s - 1, -1, -1):
        u[k] = u[k] * powers[s - 1 - k]
        c = u[n + k]
        q[k] = c * powers[k]
        for j, d in enumerate(low, k):
            u[j] = lead * u[j] - c * d
    quotient = Poly._trusted(q, ring)
    remainder = Poly._trusted(u[:n], ring)
    multiplier = powers[s]
    if f * multiplier != g * quotient + remainder:
        raise VerificationError("pseudo-division identity failed")
    return PseudoDivResult(multiplier, quotient, remainder, s)


def exact_divide(f: Poly, g: Poly) -> Poly | None:
    """The quotient q with f == g * q when g divides f in R[x], else None.

    Leading-coefficient elimination on one list of f's coefficients, with an
    exactness check at every step, independently of pseudo_divide so the two
    can cross-validate.
    """
    f._check_ring(g)
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    ring = f.ring
    n = g.degree()
    lead = g.coeffs[n]
    divides = ring.divides
    terms = [(i, d) for i, d in enumerate(g.coeffs[:n]) if d]
    r = list(f.coeffs)
    q = [ring.zero] * (len(r) - n)
    for k in range(len(q) - 1, -1, -1):
        c = r[n + k]
        if not c:
            continue
        c = divides(lead, c)
        if c is None:
            return None
        q[k] = c
        for i, d in terms:
            r[k + i] = r[k + i] - c * d
    if any(r[:n]):
        return None
    return Poly._trusted(q, ring)


def field_divide(f: Poly, g: Poly) -> tuple[Element, Poly] | None:
    """Fraction-free division over the fraction field: (den, q) with den*f == g*q.

    Returns None when f/g is not a polynomial over the fraction field. Over Z
    the pair is reduced (gcd(den, content(q)) == 1, den > 0); over a
    norm-Euclidean quadratic ring it is reduced up to units; other quadratic
    rings get the raw pseudo-division scaling.
    """
    result = pseudo_divide(f, g)
    if result.remainder:
        return None
    ring = f.ring
    den, q = result.multiplier, result.quotient
    if not q:
        return ring.one, q
    try:
        t = ring.gcd(den, content(q))
    except UnsupportedRingError:  # no gcd off the norm-Euclidean whitelist
        return den, q
    den, *parts = [ring.divides(t, c) for c in (den, *q.coeffs)]
    if den is None or None in parts:
        raise VerificationError("the gcd must divide den and q")
    if ring == ZZ and den < 0:
        den, parts = -den, [-c for c in parts]
    return den, Poly._trusted(parts, ring)
