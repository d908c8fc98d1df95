"""Text form for polynomials and ring descriptors.

The grammar accepts signed integer coefficients, the variable "x" with "^"
powers, "+"/"-" separators and an optional "*" between coefficient and
variable. Over a quadratic ring, coefficients may be bracketed as "[a+bw]"
(also "[a]", "[bw]", "[w]", with either sign on each part). Whitespace is
insignificant, terms may repeat and appear in any order (they are summed),
and floating-point or rational literals are rejected outright. The tokenizer
rejects an exponent over MAX_EXPONENT and an integer literal over
MAX_LITERAL_DIGITS digits (the interpreter's default limit for int(str))
before any coefficient list is allocated.

Printing lives on Poly.__str__ and round-trips through parse_poly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import PolyParseError, UnsupportedRingError
from .polynomials import CoefficientRing, Poly
from .rings import NORM_EUCLIDEAN_D, ZZ, QuadRing

_RING_PATTERN = re.compile(r"^Q\(\s*sqrt\s*(-?\d+)\s*\)$")
MAX_EXPONENT = 10_000
MAX_LITERAL_DIGITS = 4_300


def parse_ring(spec: str) -> CoefficientRing:
    """Resolve "Z" or "Q(sqrt d)" (d on the norm-Euclidean whitelist)."""
    text = spec.strip()
    if text == "Z":
        return ZZ
    match = _RING_PATTERN.match(text)
    if match:
        d = int(match.group(1))
        if d not in NORM_EUCLIDEAN_D:
            raise UnsupportedRingError(
                f"d = {d} is outside the norm-Euclidean whitelist "
                f"{sorted(NORM_EUCLIDEAN_D)}"
            )
        return QuadRing(d)
    raise UnsupportedRingError(f'ring spec must be "Z" or "Q(sqrt d)", got {spec!r}')


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


def parse_poly(text: str, ring: CoefficientRing = ZZ) -> Poly:
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


def _parse_term(parser: _Parser, ring: CoefficientRing, quad: bool):
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
