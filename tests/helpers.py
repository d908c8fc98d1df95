"""Shared generators for randomized tests.

Random polynomials use coefficients uniform in [-50, 50] and degrees uniform
in [1, 12] unless stated otherwise, always from an explicitly seeded RNG so
every run sees the same instances.
"""

import random
from dataclasses import dataclass

from dringkit import (
    Poly,
    PolyParseError,
    PrimeSolvabilityRecord,
    QuadRing,
    ZZ,
    primes_up_to,
    primitive_part,
)
from dringkit.parsing import MAX_EXPONENT, MAX_LITERAL_DIGITS
from dringkit.polynomials import PseudoDivResult


def rand_coeff(rng: random.Random, ring, bound: int = 50):
    if ring == ZZ:
        return rng.randint(-bound, bound)
    return ring.element(rng.randint(-bound, bound), rng.randint(-bound, bound))


def rand_nonzero_coeff(rng: random.Random, ring, bound: int = 50):
    while True:
        c = rand_coeff(rng, ring, bound)
        if c:
            return c


def rand_poly(rng: random.Random, ring=ZZ, min_deg: int = 1, max_deg: int = 12,
              bound: int = 50) -> Poly:
    degree = rng.randint(min_deg, max_deg)
    coeffs = [rand_coeff(rng, ring, bound) for _ in range(degree)]
    coeffs.append(rand_nonzero_coeff(rng, ring, bound))
    return Poly(coeffs, ring)


def rand_primitive(rng: random.Random, ring=ZZ, min_deg: int = 1, max_deg: int = 12,
                   bound: int = 50) -> Poly:
    """A random primitive polynomial, obtained by stripping the content."""
    _, prim = primitive_part(rand_poly(rng, ring, min_deg, max_deg, bound))
    return prim


def brute_is_prime(n: int) -> bool:
    """Trial-division primality check, independent of the library sieve."""
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1
    return True


TEST_QUAD_DS = (-1, -3, 5)


# --- reference division loops ---------------------------------------------
#
# Division written with whole-Poly arithmetic, one monomial step at a time,
# independently of the in-place list kernel in dringkit.polynomials. The
# kernel must reproduce their answers exactly.


def oracle_pseudo_divide(f: Poly, g: Poly) -> PseudoDivResult:
    ring = f.ring
    n = g.degree()
    if not f or f.degree() < n:
        return PseudoDivResult(ring.one, Poly.zero(ring), f, 0)
    s = f.degree() - n + 1
    lead = g.leading_coefficient()
    q = Poly.zero(ring)
    r = f
    steps = 0
    while r and r.degree() >= n:
        t = Poly.monomial(r.leading_coefficient(), r.degree() - n, ring)
        q = q * lead + t
        r = r * lead - t * g
        steps += 1
    if steps != s:
        pad = lead ** (s - steps)
        q = q * pad
        r = r * pad
    return PseudoDivResult(lead**s, q, r, s)


def oracle_exact_divide(f: Poly, g: Poly) -> Poly | None:
    ring = f.ring
    if not f:
        return Poly.zero(ring)
    n = g.degree()
    if f.degree() < n:
        return None
    lead = g.leading_coefficient()
    q = Poly.zero(ring)
    r = f
    while r and r.degree() >= n:
        if ring == ZZ:
            c, rem = divmod(r.leading_coefficient(), lead)
            if rem:
                return None
        else:
            c = lead.divides(r.leading_coefficient())
            if c is None:
                return None
        t = Poly.monomial(c, r.degree() - n, ring)
        q = q + t
        r = r - t * g
    return q if not r else None


# --- reference prime search ---------------------------------------------------
#
# The exhaustive residue scan that sf_search replaced: Horner evaluation of
# every residue of every prime, O(sum of p * deg). The F_p[x] root finder must
# reproduce its records exactly.


def sf_search_scan(f: Poly, prime_limit: int) -> list[PrimeSolvabilityRecord]:
    records = []
    for p in primes_up_to(prime_limit):
        reduced = [c % p for c in f.coeffs]
        for k in range(p):
            acc = 0
            for c in reversed(reduced):
                acc = (acc * k + c) % p
            if acc == 0:
                records.append(PrimeSolvabilityRecord(p, k))
                break
    return records


# --- reference parser ---------------------------------------------------------
#
# The character-by-character tokenizer and recursive-descent parser that the
# one-regex parser in dringkit.parsing replaced. The library must accept the
# same texts, build the same polynomials and reject the rest with the same
# message at the same position. (The tokenizer reads digits with str.isdigit,
# so it is only a reference on ASCII text.)


@dataclass(frozen=True)
class _Token:
    kind: str
    value: int | None
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            if j - i > MAX_LITERAL_DIGITS:
                raise PolyParseError(f"integer literal over {MAX_LITERAL_DIGITS} digits", i)
            value = int(text[i:j])
            if tokens and tokens[-1].kind == "^" and value > MAX_EXPONENT:
                raise PolyParseError(f"exponent above the cap of {MAX_EXPONENT}", i)
            tokens.append(_Token("int", value, i))
            i = j
            continue
        if c in "+-*^[]xw":
            tokens.append(_Token(c, None, i))
            i += 1
            continue
        raise PolyParseError(f"unexpected character {c!r}", i)
    tokens.append(_Token("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        token = self.tokens[self.i]
        self.i += 1
        return token

    def expect(self, kind: str, what: str) -> _Token:
        token = self.take()
        if token.kind != kind:
            raise PolyParseError(f"expected {what}", token.pos)
        return token


def parse_poly_reference(text: str, ring=ZZ) -> Poly:
    """Parse polynomial text over the given coefficient ring."""
    parser = _Parser(_tokenize(text))
    quad = isinstance(ring, QuadRing)
    terms: dict[int, object] = {}
    first = True
    while True:
        token = parser.peek()
        if token.kind == "end":
            if first:
                raise PolyParseError("empty polynomial", token.pos)
            break
        sign = 1
        if token.kind in "+-":
            parser.take()
            sign = -1 if token.kind == "-" else 1
        elif not first:
            raise PolyParseError("expected '+' or '-' between terms", token.pos)
        coeff, power = _parse_term(parser, ring, quad)
        current = terms.get(power, ring.zero)
        terms[power] = current + coeff * sign
        first = False
    size = max(terms) + 1
    return Poly([terms.get(i, ring.zero) for i in range(size)], ring)


def _parse_term(parser: _Parser, ring, quad: bool):
    token = parser.peek()
    if token.kind == "[":
        if not quad:
            raise PolyParseError("bracketed coefficients need a quadratic ring", token.pos)
        coeff = _parse_bracket(parser, ring)
        has_coeff = True
    elif token.kind == "int":
        parser.take()
        coeff = ring.coerce(token.value)
        has_coeff = True
    elif token.kind == "x":
        coeff = ring.one
        has_coeff = False
    else:
        raise PolyParseError("expected a term", token.pos)
    if has_coeff and parser.peek().kind == "*":
        parser.take()
        if parser.peek().kind != "x":
            raise PolyParseError("expected 'x' after '*'", parser.peek().pos)
    power = 0
    if parser.peek().kind == "x":
        parser.take()
        power = 1
        if parser.peek().kind == "^":
            parser.take()
            power = parser.expect("int", "a nonnegative integer exponent").value
    return coeff, power


def _parse_bracket(parser: _Parser, ring: QuadRing):
    parser.expect("[", "'['")
    sign = 1
    a = 0
    b = 0
    token = parser.peek()
    if token.kind in "+-":
        parser.take()
        sign = -1 if token.kind == "-" else 1
        token = parser.peek()
    if token.kind == "int":
        parser.take()
        if parser.peek().kind == "w":
            parser.take()
            b = sign * token.value
        else:
            a = sign * token.value
            nxt = parser.peek()
            if nxt.kind in "+-":
                parser.take()
                wsign = -1 if nxt.kind == "-" else 1
                part = parser.peek()
                if part.kind == "int":
                    parser.take()
                    parser.expect("w", "'w'")
                    b = wsign * part.value
                elif part.kind == "w":
                    parser.take()
                    b = wsign
                else:
                    raise PolyParseError("expected the w-part of the coefficient", part.pos)
    elif token.kind == "w":
        parser.take()
        b = sign
    else:
        raise PolyParseError("expected a quadratic coefficient", token.pos)
    parser.expect("]", "']'")
    return ring.element(a, b)


# --- reference evaluation -----------------------------------------------------
#
# Horner's rule on whole ring elements, the point coerced into the ring: the
# path Poly.evaluate keeps for every point but a plain int over Z[w].


def evaluate_reference(p: Poly, point):
    point = p.ring.coerce(point)
    acc = p.ring.zero
    for c in reversed(p.coeffs):
        acc = acc * point + c
    return acc
