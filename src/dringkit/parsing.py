"""Text form for polynomials and ring descriptors.

The grammar accepts signed integer coefficients written with the ASCII digits
0-9, the variable "x" with "^" powers, "+"/"-" separators and an optional "*"
between coefficient and variable. Over a quadratic ring, coefficients may be
bracketed as "[a+bw]" (also "[a]", "[bw]", "[w]", with either sign on each
part). Whitespace is insignificant, terms may repeat and appear in any order
(they are summed), and floating-point or rational literals are rejected
outright.

Before any term is read, three scans of the whole text look for an unexpected
character, an integer literal over MAX_LITERAL_DIGITS digits (the
interpreter's default limit for int(str)) and an exponent over MAX_EXPONENT;
the error at the earliest position is raised, before any coefficient list is
allocated. Then one regular expression reads one whole signed term per match.
The terms are summed as plain ints, one dict over Z and one dict per
coordinate over Z[w], and the polynomial is built once through
`Poly._trusted`, since every coefficient is already in the ring.

Printing lives on Poly.__str__ and round-trips through parse_poly.
"""

from __future__ import annotations

import re

from .errors import PolyParseError, UnsupportedRingError
from .polynomials import CoefficientRing, Poly
from .rings import NORM_EUCLIDEAN_D, ZZ, QuadInt, QuadRing

_RING_PATTERN = re.compile(r"^Q\(\s*sqrt\s*(-?[0-9]+)\s*\)$")
MAX_EXPONENT = 10_000
MAX_LITERAL_DIGITS = 4_300

_BAD_CHAR = re.compile(r"[^\s0-9+\-*^\[\]xw]")
_LONG_LITERAL = re.compile(r"(?<![0-9])[0-9]{%d}" % (MAX_LITERAL_DIGITS + 1))
# An exponent with at least as many significant digits as the cap.
_BIG_EXPONENT = re.compile(r"\^\s*(0*[1-9][0-9]{%d,})" % (len(str(MAX_EXPONENT)) - 1))

# One signed term. Every piece is optional, so the match always succeeds and
# stops at the first token that does not continue the term; the conditionals
# keep a piece from matching after an incomplete one (a bracket not yet
# closed), so a structural error always lies at match.end(). Each \s*
# follows a required token: a piece that fails is skipped without
# backtracking over the whitespace before it, which keeps a match linear.
_TERM = re.compile(r"""
    (?: (?P<sign>[+-])\s* )?
    (?:
        (?P<num>[0-9]+)\s*
      | (?P<lb>\[)\s*
        (?: (?P<bsign>[+-])\s* )?
        (?:
            (?P<a>[0-9]+)\s*
            (?:
                (?P<aw>w)\s*
              | (?P<wsign>[+-])\s*
                (?: (?P<b>[0-9]+)\s* (?: (?P<bw>w)\s* )? | (?P<w2>w)\s* )?
            )?
          | (?P<w1>w)\s*
        )?
        (?: (?(a)|(?(w1)|(?!))) (?(wsign)(?(bw)|(?(w2)|(?!)))) (?P<rb>\])\s* )?
    )?
    (?: (?(lb)(?(rb)|(?!)))
        (?: (?(num)|(?(lb)|(?!))) (?P<star>\*)\s* )?
        (?: (?P<x>x)\s* (?: (?P<caret>\^)\s* (?: (?P<exp>[0-9]+)\s* )? )? )?
    )?
""", re.VERBOSE)


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


def _check_tokens(text: str) -> None:
    """Raise the earliest unexpected character, over-long literal or
    over-cap exponent (an integer right after "^"), if there is one."""
    bad = _BAD_CHAR.search(text)
    end = bad.start() if bad else len(text)
    literal = _LONG_LITERAL.search(text, 0, end)
    if literal:
        end = literal.start()
    for match in _BIG_EXPONENT.finditer(text, 0, end):
        if int(match.group(1)) > MAX_EXPONENT:
            raise PolyParseError(f"exponent above the cap of {MAX_EXPONENT}", match.start(1))
    if literal:
        raise PolyParseError(f"integer literal over {MAX_LITERAL_DIGITS} digits", end)
    if bad:
        raise PolyParseError(f"unexpected character {bad.group()!r}", end)


def _term_error(m: re.Match) -> str:
    """What the term read by `m` lacks at m.end()."""
    if m["lb"] is not None:
        if m["a"] is None and m["w1"] is None:
            return "expected a quadratic coefficient"
        if m["wsign"] is not None and m["b"] is None and m["w2"] is None:
            return "expected the w-part of the coefficient"
        if m["b"] is not None and m["bw"] is None:
            return "expected 'w'"
        if m["rb"] is None:
            return "expected ']'"
    elif m["num"] is None and m["x"] is None:
        return "expected a term"
    if m["star"] is not None and m["x"] is None:
        return "expected 'x' after '*'"
    return "expected a nonnegative integer exponent"


def parse_poly(text: str, ring: CoefficientRing = ZZ) -> Poly:
    """Parse polynomial text over the given coefficient ring."""
    _check_tokens(text)
    quad = isinstance(ring, QuadRing)
    end = len(text)
    pos = start = end - len(text.lstrip())
    if pos == end:
        raise PolyParseError("empty polynomial", end)
    a_parts: dict[int, int] = {}
    b_parts: dict[int, int] = {}
    while pos < end:
        m = _TERM.match(text, pos)
        sign, num, lb, bsign, a, aw, wsign, b, bw, w2, w1, rb, star, x, caret, exp = m.groups()
        if sign is None and pos != start:
            raise PolyParseError("expected '+' or '-' between terms", pos)
        if lb is not None and not quad:
            raise PolyParseError("bracketed coefficients need a quadratic ring", m.start("lb"))
        pos = m.end()
        # A bracket, "*" or "^" left unfinished, or no term at all.
        if (
            (rb is None if lb is not None else num is None and x is None)
            or (star is not None and x is None)
            or (caret is not None and exp is None)
        ):
            raise PolyParseError(_term_error(m), pos)
        if lb is not None:
            s = -1 if bsign == "-" else 1
            if w1 is not None:
                ca, cb = 0, s
            elif aw is not None:
                ca, cb = 0, s * int(a)
            else:
                ca = s * int(a)
                cb = 0 if wsign is None else (-1 if wsign == "-" else 1) * (int(b) if b else 1)
        else:
            ca, cb = (int(num) if num else 1), 0
        if sign == "-":
            ca, cb = -ca, -cb
        power = int(exp) if exp else (1 if x else 0)
        a_parts[power] = a_parts.get(power, 0) + ca
        if cb:
            b_parts[power] = b_parts.get(power, 0) + cb
    coeffs = [ring.zero] * (max(a_parts) + 1)
    if quad:
        for power, ca in a_parts.items():
            coeffs[power] = QuadInt(ca, b_parts.get(power, 0), ring)
    else:
        for power, ca in a_parts.items():
            coeffs[power] = ca
    return Poly._trusted(coeffs, ring)
