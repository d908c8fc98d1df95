"""Dense univariate polynomials over Z or a quadratic integer ring.

Coefficients are stored in ascending powers and the leading coefficient is
always nonzero; the zero polynomial has an empty coefficient tuple and degree
None. All arithmetic is exact and stays inside the coefficient ring.

Coefficients are validated once, where they enter: `Poly(...)` and the
`zero`, `x` and `constant` constructors coerce every coefficient into the
ring, and a scalar multiplier is coerced once per product, as its
one-coefficient left operand. Arithmetic trusts its own outputs: sums,
products, quotients and the other results built here from coefficients
already in the ring go through `Poly._trusted`, which only strips trailing
zeros. So does `parse_poly`, which builds its ints and QuadInts from the
text itself.
"""

from __future__ import annotations

import math
from itertools import zip_longest

from .errors import (
    RingMismatchError,
    UnsupportedRingError,
    VerificationError,
    ZeroPolynomialError,
)
from .rings import NORM_EUCLIDEAN_D, ZZ, IntegerRing, QuadInt, QuadRing, Record, _decimal

CoefficientRing = IntegerRing | QuadRing
Element = int | QuadInt


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
    def x(cls, ring: CoefficientRing = ZZ) -> "Poly":
        return cls((0, 1), ring)

    @classmethod
    def constant(cls, value, ring: CoefficientRing = ZZ) -> "Poly":
        return cls((value,), ring)

    def degree(self) -> int | None:
        """Index of the leading coefficient; None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

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

    def __mul__(self, other):
        if isinstance(other, Poly):
            self._check_ring(other)
            f, g = self.coeffs, other.coeffs
        else:  # on the left, so the inner loop runs once, over self
            f, g = (self.ring.coerce(other),), self.coeffs
        ring = self.ring
        if not isinstance(ring, QuadRing):
            return Poly._trusted(_int_product(f, g), ring)
        out_a, out_b = _quad_product(f, [(y.a, y.b) for y in g], ring)
        return Poly._trusted([QuadInt(a, b, ring) for a, b in zip(out_a, out_b)], ring)

    __rmul__ = __mul__

    def evaluate(self, point) -> Element:
        """Horner evaluation at a point coerced into the coefficient ring.

        A plain int point skips the coercion: over Z it takes one Horner pass
        on the coefficients, and over Z[w] the a- and b-coordinates each take
        one, since (a + b*w)*k + c = (a*k + c.a) + (b*k + c.b)*w; one QuadInt
        is built at the end.
        """
        if isinstance(point, int):
            if isinstance(self.ring, QuadRing):
                a = b = 0
                for c in reversed(self.coeffs):
                    a = a * point + c.a
                    b = b * point + c.b
                return QuadInt(a, b, self.ring)
            acc = 0
            for c in reversed(self.coeffs):
                acc = acc * point + c
            return acc
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
        """The terms from the highest power down, each printed from its
        coefficient's ints: a sign, the absolute value and the power of x.
        A Z[w] coefficient is bracketed and takes its sign from a, or from b
        when a = 0; a Z coefficient 1 is left out before x."""
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        quad = isinstance(self.ring, QuadRing)
        parts = []
        for power in range(len(coeffs) - 1, -1, -1):
            c = coeffs[power]
            var = "" if power == 0 else "x" if power == 1 else f"x^{power}"
            if quad:
                a, b = c.a, c.b
                if a < 0 or not a and b < 0:
                    sign, a, b = " - ", -a, -b
                elif a or b:
                    sign = " + "
                else:
                    continue
                w = "" if not b else f"+{_decimal(b)}w" if b > 0 else f"-{_decimal(-b)}w"
                parts.append(f"{sign}[{_decimal(a)}{w}]{var}")
            else:
                if c > 0:
                    sign = " + "
                elif c:
                    sign, c = " - ", -c
                else:
                    continue
                parts.append(f"{sign}{var}" if c == 1 and var else f"{sign}{_decimal(c)}{var}")
        text = "".join(parts)
        return text[3:] if text[1] == "+" else "-" + text[3:]

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


def _quad_product(rows, pairs, ring: QuadRing) -> tuple[list[int], list[int]]:
    """The a- and b-coordinates of the product of the Z[w] coefficients rows
    with the coefficients given by their coordinate pairs (a, b). Each
    nonzero row applies its matrix from ring.matrix to every pair."""
    out_a = [0] * (len(rows) + len(pairs) - 1)
    out_b = out_a[:]
    for i, x in enumerate(rows):
        if not x:
            continue
        p, q, r, s = ring.matrix(x.a, x.b)
        for j, (ya, yb) in enumerate(pairs, i):
            out_a[j] += p * ya + q * yb
            out_b[j] += r * ya + s * yb
    return out_a, out_b


def _identity_holds(f: Poly, g: Poly, q: Poly, r: Poly | None = None, multiplier=None) -> bool:
    """multiplier * f == g*q + r, the identity every division re-checks; a
    multiplier or r left out is 1 or 0.

    Over Z it is that Poly expression. Over Z[w] the residual g*q + r -
    multiplier*f is summed on integer coordinates and must vanish, so no
    QuadInt is built.
    """
    ring = f.ring
    if not isinstance(ring, QuadRing):
        lhs = f if multiplier is None else f * multiplier
        return lhs == (g * q if r is None else g * q + r)
    rest = () if r is None else r.coeffs
    out_a, out_b = _quad_product(g.coeffs, [(c.a, c.b) for c in q.coeffs], ring)
    pad = [0] * (max(len(f.coeffs), len(rest)) - len(out_a))
    out_a += pad
    out_b += pad
    for i, c in enumerate(rest):
        out_a[i] += c.a
        out_b[i] += c.b
    m = ring.one if multiplier is None else multiplier
    ma, mm, mb, mt = ring.matrix(m.a, m.b)
    for i, c in enumerate(f.coeffs):
        out_a[i] -= ma * c.a + mm * c.b
        out_b[i] -= mb * c.a + mt * c.b
    return not (any(out_a) or any(out_b))


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

    With n = deg g and s = max(deg f - n + 1, 0), q and r are the quotient and
    remainder of lc(g)**s * f by g, found by the elimination of exact_divide
    (TAOCP vol. 2, section 4.6.1). Every step is exact: the step that finds
    q_k, the coefficient of x**k, meets a list whose entries are all
    multiples of lc(g)**(k+1), since lc(g)**s * f starts so and each step
    before it, for j > k, subtracted q_j * x**j * g with q_j a multiple of
    lc(g)**j. The identity lc(g)**s * f == g*q + r is re-checked before
    returning, with lc(g)**s * f computed anew.
    """
    f._check_ring(g)
    if not g:
        raise ZeroDivisionError("pseudo-division by the zero polynomial")
    ring = f.ring
    s = max(len(f.coeffs) - g.degree(), 0)
    multiplier = g.coeffs[-1] ** s
    scaled = (f * multiplier).coeffs
    if isinstance(ring, QuadRing):
        out = _quad_divide(scaled, g.coeffs, ring)
        if out is not None:
            q, r_a, r_b = out
            out = q, [QuadInt(a, b, ring) for a, b in zip(r_a, r_b)]
    else:
        out = _int_divide(scaled, g.coeffs)
    if out is None:
        raise VerificationError("pseudo-division step was not exact")
    quotient = Poly._trusted(out[0], ring)
    remainder = Poly._trusted(out[1], ring)
    if not _identity_holds(f, g, quotient, remainder, multiplier):
        raise VerificationError("pseudo-division identity failed")
    return PseudoDivResult(multiplier, quotient, remainder, s)


def exact_divide(f: Poly, g: Poly) -> Poly | None:
    """The quotient q with f == g * q when g divides f in R[x], else None.

    The elimination kernel of the ring, which pseudo_divide also runs; g
    divides f when every step is exact and the remainder is zero.
    """
    f._check_ring(g)
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    ring = f.ring
    if isinstance(ring, QuadRing):
        out = _quad_divide(f.coeffs, g.coeffs, ring)
        exact = out is not None and not (any(out[1]) or any(out[2]))
    else:
        out = _int_divide(f.coeffs, g.coeffs)
        exact = out is not None and not any(out[1])
    return Poly._trusted(out[0], ring) if exact else None


def _int_divide(f: tuple, g: tuple) -> tuple[list, list] | None:
    """Leading-coefficient elimination over Z: the coefficients of the
    quotient and the remainder of f by g, or None at the first step whose
    leading term lc(g) does not divide."""
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
    return q, r[:n]


def _quad_divide(f: tuple, g: tuple, ring: QuadRing) -> tuple[list, list, list] | None:
    """Leading-coefficient elimination over Z[w] on the integer coordinates
    of f: the quotient's coefficients and the remainder's a- and
    b-coordinates, or None at the first step whose leading term lc(g) does
    not divide. Each leading term is divided by lc(g) through the adjugate
    and the determinant of lc(g)'s matrix, that is conj(lc g) and N(lc g)."""
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
    return q, r_a[:n], r_b[:n]


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
