"""Dense univariate polynomials over Z or a quadratic integer ring.

Coefficients are stored in ascending powers and the leading coefficient is
always nonzero; the zero polynomial has an empty coefficient tuple and degree
None. All arithmetic is exact and stays inside the coefficient ring.

Coefficients are validated once, where they enter: `Poly(...)` and the
`zero`, `one`, `x`, `constant` and `monomial` constructors coerce every
coefficient into the ring, and a scalar multiplier is coerced once per
product, as its one-coefficient left operand. Arithmetic trusts its own
outputs: sums, products, quotients and the other results built here from
coefficients already in the ring go through `Poly._trusted`, which only
strips trailing zeros. So does `parse_poly`, which builds its ints and
QuadInts from the text itself.
"""

from __future__ import annotations

import math
from itertools import zip_longest
from typing import Union

from .errors import (
    RingMismatchError,
    UnsupportedRingError,
    VerificationError,
    ZeroPolynomialError,
)
from .rings import NORM_EUCLIDEAN_D, ZZ, IntegerRing, QuadInt, QuadRing, Record, _decimal

CoefficientRing = Union[IntegerRing, QuadRing]
Element = Union[int, QuadInt]


class Poly(Record):
    """coeffs[i] holds the coefficient of x**i."""

    __slots__ = ("coeffs", "ring")

    def __init__(self, coeffs=(), ring: CoefficientRing = ZZ) -> None:
        Record.__init__(self, coeffs, ring)
        self.__post_init__()

    def __post_init__(self) -> None:
        normalized = [self.ring.coerce(c) for c in self.coeffs]
        while normalized and not normalized[-1]:
            normalized.pop()
        object.__setattr__(self, "coeffs", tuple(normalized))

    @classmethod
    def _trusted(cls, coeffs: list, ring: CoefficientRing) -> "Poly":
        """A polynomial over `ring` from a list of coefficients already in it.

        Made without calling the class, so `__post_init__` does not coerce;
        trailing zeros are stripped in place, so the caller hands over the list.
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
        if power < 0:
            raise ValueError("a monomial's power must not be negative")
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
            f, g = self.coeffs, other.coeffs
        else:  # on the left, so the inner loop runs once, over self
            f, g = (self.ring.coerce(other),), self.coeffs
        ring = self.ring
        if not isinstance(ring, QuadRing):
            return Poly._trusted(_int_product(f, g), ring)
        pairs = [(y.a, y.b) for y in g]
        out_a = [0] * (len(f) + len(g) - 1)
        out_b = out_a[:]
        for i, x in enumerate(f):
            if not x:
                continue
            p, q, r, s = ring.matrix(x.a, x.b)
            for j, (ya, yb) in enumerate(pairs, i):
                out_a[j] += p * ya + q * yb
                out_b[j] += r * ya + s * yb
        return Poly._trusted([QuadInt(a, b, ring) for a, b in zip(out_a, out_b)], ring)

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

    def values(self, points) -> dict:
        """The value at every point, keyed by the point coerced into the ring.

        Each point is coerced before any set or dict sees it, so a float
        raises TypeError even when an equal int is also asked for. Every int
        point k takes the pass of `_plus_minus_values` at |k|, which gives
        p(-k) with it; only QuadInt points go through `evaluate`.
        """
        ring = self.ring
        points = [int(k) if isinstance(k, int) else ring.coerce(k) for k in points]
        ints = _plus_minus_values(
            self.coeffs, ring, {abs(k) for k in points if isinstance(k, int)}
        )
        return {k: ints[k] if isinstance(k, int) else self.evaluate(k) for k in points}

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


def _plus_minus_values(coeffs, ring: CoefficientRing, ks: set[int]) -> dict:
    """p(k) and p(-k) = E(k*k) +- k*O(k*k) for each int k >= 0, from one
    Horner pass at k*k over the even and odd coefficients (Knuth, TAOCP
    vol. 2, section 4.6.4). Over Z[w] the pass runs on the a- and then on the
    b-coordinates, and each pair of values becomes a QuadInt."""
    if isinstance(ring, QuadRing):
        a = _plus_minus_values([c.a for c in coeffs], ZZ, ks)
        b = _plus_minus_values([c.b for c in coeffs], ZZ, ks)
        return {k: QuadInt(a[k], b[k], ring) for k in a}
    rows = list(zip_longest(coeffs[0::2], coeffs[1::2], fillvalue=0))[::-1]
    out = {}
    for k in ks:
        y = k * k
        e = o = 0
        for c, d in rows:
            e = e * y + c
            o = o * y + d
        o = k * o
        out[k] = e + o
        out[-k] = e - o
    return out


def _int_product(a, b) -> list[int]:
    """Schoolbook product of two coefficient sequences of ints. The first
    nonzero row of a is written, not added to zeros, and the rows after it
    are added; an empty operand gives only zeros, which Poly._trusted
    strips."""
    out = [0] * (len(a) + len(b) - 1)
    rows = enumerate(a)
    for i, c in rows:
        if c:
            for j, d in enumerate(b, i):
                out[j] = c * d
            break
    for i, c in rows:
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


class PseudoDivResult(Record):
    """Witness of multiplier * f == g * q + r with r == 0 or deg r < deg g.

    The multiplier is lc(g)**s and s = max(deg f - deg g + 1, 0).
    """

    __slots__ = ("multiplier", "quotient", "remainder", "s")


def content(p: Poly) -> Element:
    """Gcd of the coefficients: positive over Z, an arbitrary associate over Z[w]."""
    if not p:
        raise ZeroPolynomialError("the zero polynomial has no content")
    return p.ring.gcd(*p.coeffs)


def is_primitive(p: Poly) -> bool:
    """True when the content is a unit (tested via the norm over Z[w]).

    Over a whitelisted Z[w] a non-unit common divisor would divide every
    coefficient's norm, so coprime norms answer True without a gcd. Off the
    whitelist the content is still taken, so its gcd raises
    UnsupportedRingError as before.
    """
    ring = p.ring
    if isinstance(ring, QuadRing) and ring.d in NORM_EUCLIDEAN_D:
        g = 0
        for c in p.coeffs:
            g = math.gcd(g, c.norm())
            if g == 1:
                return True
    return ring.is_unit(content(p))


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
    window. Over Z[w] the loop runs on the integer coordinates of u. The
    identity lc(g)**s * f == g*q + r is re-checked before returning.
    """
    f._check_ring(g)
    if not g:
        raise ZeroDivisionError("pseudo-division by the zero polynomial")
    ring = f.ring
    s = max(len(f.coeffs) - g.degree(), 0)
    if isinstance(ring, QuadRing):
        multiplier, q, r = _quad_pseudo_divide(f.coeffs, g.coeffs, s, ring)
    else:
        multiplier, q, r = _int_pseudo_divide(f.coeffs, g.coeffs, s)
    quotient = Poly._trusted(q, ring)
    remainder = Poly._trusted(r, ring)
    if f * multiplier != g * quotient + remainder:
        raise VerificationError("pseudo-division identity failed")
    return PseudoDivResult(multiplier, quotient, remainder, s)


def _int_pseudo_divide(f: tuple, g: tuple, s: int) -> tuple[int, list, list]:
    """Algorithm R over Z: the multiplier lc(g)**s, q and r."""
    n = len(g) - 1
    lead = g[n]
    low = g[:n]
    powers = [1]
    for _ in range(s):
        powers.append(powers[-1] * lead)
    u = list(f)
    q = [0] * s
    for k in range(s - 1, -1, -1):
        u[k] = u[k] * powers[s - 1 - k]
        c = u[n + k]
        q[k] = c * powers[k]
        for j, d in enumerate(low, k):
            u[j] = lead * u[j] - c * d
    return powers[s], q, u[:n]


def _quad_pseudo_divide(f: tuple, g: tuple, s: int, ring: QuadRing) -> tuple[QuadInt, list, list]:
    """Algorithm R over Z[w] on the coordinate lists u_a and u_b of u. Each
    product applies a matrix from ring.matrix to a coordinate pair."""
    n = len(g) - 1
    # lc(g) * (x + y*w) = (la*x + lm*y) + (lb*x + lt*y)*w
    la, lm, lb, lt = ring.matrix(g[n].a, g[n].b)
    low = [(d.a, d.b) for d in g[:n]]
    powers = [(1, 0)]
    for _ in range(s):
        x, y = powers[-1]
        powers.append((la * x + lm * y, lb * x + lt * y))
    u_a = [c.a for c in f]
    u_b = [c.b for c in f]
    q = [None] * s
    for k in range(s - 1, -1, -1):
        pa, pm, pb, pt = ring.matrix(*powers[s - 1 - k])
        x, y = u_a[k], u_b[k]
        u_a[k], u_b[k] = pa * x + pm * y, pb * x + pt * y
        # c * (da + db*w) = (ca*da + cm*db) + (cb*da + ct*db)*w
        ca, cm, cb, ct = ring.matrix(u_a[n + k], u_b[n + k])
        x, y = powers[k]
        q[k] = QuadInt(ca * x + cm * y, cb * x + ct * y, ring)
        for j, (da, db) in enumerate(low, k):
            x, y = u_a[j], u_b[j]
            u_a[j] = la * x + lm * y - ca * da - cm * db
            u_b[j] = lb * x + lt * y - cb * da - ct * db
    r = [QuadInt(a, b, ring) for a, b in zip(u_a[:n], u_b[:n])]
    return QuadInt(*powers[s], ring), q, r


def exact_divide(f: Poly, g: Poly) -> Poly | None:
    """The quotient q with f == g * q when g divides f in R[x], else None.

    Leading-coefficient elimination on one list of f's coefficients, with an
    exactness check at every step, independently of pseudo_divide so the two
    can cross-validate. Over Z[w] the list is held as integer coordinates and
    each leading term is divided by lc(g) through the adjugate and the
    determinant of lc(g)'s matrix, that is conj(lc g) and N(lc g).
    """
    f._check_ring(g)
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    ring = f.ring
    if isinstance(ring, QuadRing):
        q = _quad_exact_quotient(f.coeffs, g.coeffs, ring)
    else:
        q = _int_exact_quotient(f.coeffs, g.coeffs)
    return None if q is None else Poly._trusted(q, ring)


def _int_exact_quotient(f: tuple, g: tuple) -> list | None:
    """The coefficients of f / g over Z, or None when g does not divide f."""
    n = len(g) - 1
    lead = g[n]
    divides = ZZ.divides
    terms = [(i, d) for i, d in enumerate(g[:n]) if d]
    r = list(f)
    q = [0] * (len(r) - n)
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
    return q


def _quad_exact_quotient(f: tuple, g: tuple, ring: QuadRing) -> list | None:
    """The coefficients of f / g over Z[w], or None when g does not divide f."""
    n = len(g) - 1
    la, lm, lb, lt = ring.matrix(g[n].a, g[n].b)  # multiplication by lc(g)
    norm = la * lt - lm * lb  # N(lc g)
    terms = [(i, d.a, d.b) for i, d in enumerate(g[:n]) if d]
    r_a = [c.a for c in f]
    r_b = [c.b for c in f]
    q = [ring.zero] * (len(f) - n)
    for k in range(len(q) - 1, -1, -1):
        a, b = r_a[n + k], r_b[n + k]
        if not (a or b):
            continue
        qa, ra = divmod(lt * a - lm * b, norm)  # the adjugate: times conj(lc g)
        qb, rb = divmod(la * b - lb * a, norm)
        if ra or rb:
            return None
        q[k] = QuadInt(qa, qb, ring)
        # q_k * (da + db*w) = (qa*da + qm*db) + (qb*da + qt*db)*w
        qa, qm, qb, qt = ring.matrix(qa, qb)
        for i, da, db in terms:
            r_a[k + i] -= qa * da + qm * db
            r_b[k + i] -= qb * da + qt * db
    if any(r_a[:n]) or any(r_b[:n]):
        return None
    return q


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
    try:
        t = ring.gcd(den, ring.gcd(*q.coeffs))
    except UnsupportedRingError:  # no gcd off the norm-Euclidean whitelist
        return den, q
    den, *parts = [ring.divides(t, c) for c in (den, *q.coeffs)]
    if den is None or None in parts:
        raise VerificationError("the gcd must divide den and q")
    if ring == ZZ and den < 0:
        den, parts = -den, [-c for c in parts]
    return den, Poly._trusted(parts, ring)
