"""Text form for polynomials and ring descriptors.

The grammar accepts signed integer coefficients written with the ASCII digits
0-9, the variable "x" with "^" powers, "+"/"-" separators and an optional "*"
between coefficient and variable. Over a quadratic ring, coefficients may be
bracketed as "[a+bw]" (also "[a]", "[bw]", "[w]", with either sign on each
part). Whitespace is insignificant, terms may repeat and appear in any order
(they are summed), and floating-point or rational literals are rejected
outright.

A text is accepted by one fullmatch of a whole-text pattern for its ring
kind, which also refuses an integer literal over MAX_LITERAL_DIGITS digits
(the interpreter's default limit for int(str)), and its terms are read by one
findall. The terms are summed as plain ints, one dict over Z and one dict per
coordinate over Z[w]; an exponent over MAX_EXPONENT is refused before any
coefficient list is allocated, and the polynomial is built once through
`Poly._trusted`, since every coefficient is already in the ring.

A refused text goes to `_refusal`, which names its error: first the earliest
unexpected character, over-long literal or over-cap exponent, found by three
scans of the whole text, then the first token that does not fit the grammar,
found by reading one signed term per match.

Printing lives on Poly.__str__ and round-trips through parse_poly.
"""

from __future__ import annotations

import re

from .errors import PolyParseError, UnsupportedRingError, VerificationError
from .polynomials import CoefficientRing, Poly
from .rings import NORM_EUCLIDEAN_D, ZZ, QuadInt, QuadRing

_RING_PATTERN = re.compile(r"^Q\(\s*sqrt\s*(-?[0-9]+)\s*\)$")
MAX_EXPONENT = 10_000
MAX_LITERAL_DIGITS = 4_300

# The accept path: one fullmatch of the whole text against the grammar of its
# ring kind, then one findall that reads every term. A whole-text pattern
# reads a literal of at most MAX_LITERAL_DIGITS digits and no character
# outside the grammar, so an accepted text needs only its exponents checked
# against their cap. It has no conditional groups, and each \s* follows a
# required token (or the start of the text), so a piece that fails is given
# up without backtracking over the whitespace before it, and a match stays
# linear. A row pattern only runs on a text that its whole-text pattern
# accepted, so it may be lax: every piece is optional, its greedy first
# reading is the right one, and the lookahead keeps it from an empty match at
# the end.
_INT = r"[0-9]{1,%d}" % MAX_LITERAL_DIGITS
_X_POWER = r"(?:x\s*(?:\^\s*%s\s*)?)" % _INT
_Z_TERM = r"(?:%s\s*(?:(?:\*\s*)?%s)?|%s)" % (_INT, _X_POWER, _X_POWER)
_Z_WHOLE = re.compile(r"\s*(?:[+-]\s*)?%s(?:[+-]\s*%s)*" % (_Z_TERM, _Z_TERM))
_Z_ROW = re.compile(r"(?!\Z)\s*([+-]?)\s*([0-9]*)\s*\*?\s*(x?)\s*\^?\s*([0-9]*)\s*")
# Over Z[w] a coefficient may also be a bracket. These patterns, and those of
# the refusal path below, are compiled on first use, through re's own cache:
# a Z text that parses never needs them.
_BRACKET = r"\[\s*(?:[+-]\s*)?(?:%s\s*(?:w\s*|[+-]\s*(?:%s\s*)?w\s*)?|w\s*)\]\s*" % (_INT, _INT)
_Q_TERM = r"(?:(?:%s\s*|%s)(?:(?:\*\s*)?%s)?|%s)" % (_INT, _BRACKET, _X_POWER, _X_POWER)
_Q_WHOLE = r"\s*(?:[+-]\s*)?%s(?:[+-]\s*%s)*" % (_Q_TERM, _Q_TERM)
_Q_ROW = (
    r"(?!\Z)\s*([+-]?)\s*"
    r"(?:([0-9]+)|\[\s*([+-]?)\s*([0-9]*)\s*(w?)\s*([+-]?)\s*([0-9]*)\s*w?\s*\])?"
    r"\s*\*?\s*(x?)\s*\^?\s*([0-9]*)\s*"
)

# The refusal path first looks for the token errors, then reads the text term
# by term.
_BAD_CHAR = r"[^\s0-9+\-*^\[\]xw]"
_LONG_LITERAL = r"(?<![0-9])[0-9]{%d}" % (MAX_LITERAL_DIGITS + 1)
# An exponent with at least as many significant digits as the cap.
_BIG_EXPONENT = r"\^\s*(0*[1-9][0-9]{%d,})" % (len(str(MAX_EXPONENT)) - 1)

# One signed term per match. Every piece is optional, so the match always
# succeeds and stops at the first token that does not continue the term; the
# conditionals keep a piece from matching after an incomplete one (a bracket
# not yet closed), so a structural error always lies at match.end(). Each \s*
# follows a required token, as above.
_TERM = r"""
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
"""


def parse_ring(spec: str) -> CoefficientRing:
    """Resolve "Z" or "Q(sqrt d)" (d on the norm-Euclidean whitelist)."""
    text = spec.strip()
    if text == "Z":
        return ZZ
    match = _RING_PATTERN.match(text)
    if match:
        try:
            d = int(match.group(1))
        except ValueError:  # past the interpreter's int(str) digit limit
            digits = len(match.group(1).lstrip("-"))
            raise UnsupportedRingError(
                f"d of {digits} digits is outside the norm-Euclidean whitelist "
                f"{sorted(NORM_EUCLIDEAN_D)}"
            ) from None
        if d not in NORM_EUCLIDEAN_D:
            raise UnsupportedRingError(
                f"d = {d} is outside the norm-Euclidean whitelist "
                f"{sorted(NORM_EUCLIDEAN_D)}"
            )
        return QuadRing(d)
    raise UnsupportedRingError(f'ring spec must be "Z" or "Q(sqrt d)", got {spec!r}')


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


def _refusal(text: str, quad: bool) -> PolyParseError:
    """The error of a text that parse_poly refused. A token error comes
    first: the earliest unexpected character, over-long literal or over-cap
    exponent (an integer right after "^"). Then _TERM reads the text term by
    term, up to the first token that does not fit."""
    bad = re.search(_BAD_CHAR, text)
    end = bad.start() if bad else len(text)
    literal = re.compile(_LONG_LITERAL).search(text, 0, end)
    if literal:
        end = literal.start()
    for match in re.compile(_BIG_EXPONENT).finditer(text, 0, end):
        if int(match.group(1)) > MAX_EXPONENT:
            return PolyParseError(f"exponent above the cap of {MAX_EXPONENT}", match.start(1))
    if literal:
        return PolyParseError(f"integer literal over {MAX_LITERAL_DIGITS} digits", end)
    if bad:
        return PolyParseError(f"unexpected character {bad.group()!r}", end)
    term = re.compile(_TERM, re.VERBOSE)
    end = len(text)
    pos = start = end - len(text.lstrip())
    if pos == end:
        return PolyParseError("empty polynomial", end)
    while pos < end:
        m = term.match(text, pos)
        if m["sign"] is None and pos != start:
            return PolyParseError("expected '+' or '-' between terms", pos)
        if m["lb"] is not None and not quad:
            return PolyParseError("bracketed coefficients need a quadratic ring", m.start("lb"))
        pos = m.end()
        # A bracket, "*" or "^" left unfinished, or no term at all.
        if (
            (m["rb"] is None if m["lb"] is not None else m["num"] is None and m["x"] is None)
            or (m["star"] is not None and m["x"] is None)
            or (m["caret"] is not None and m["exp"] is None)
        ):
            return PolyParseError(_term_error(m), pos)
    raise VerificationError(f"parse_poly refused {text!r}, which reads term by term")


def parse_poly(text: str, ring: CoefficientRing = ZZ) -> Poly:
    """Parse polynomial text over the given coefficient ring."""
    quad = isinstance(ring, QuadRing)
    if (re.fullmatch(_Q_WHOLE, text) if quad else _Z_WHOLE.fullmatch(text)) is None:
        raise _refusal(text, quad)
    a_parts: dict[int, int] = {}
    b_parts: dict[int, int] = {}
    if quad:
        for sign, num, bsign, a, aw, wsign, b, x, exp in re.findall(_Q_ROW, text):
            if num:
                ca, cb = int(num), 0
            elif aw:
                ca, cb = 0, -int(a or 1) if bsign == "-" else int(a or 1)
            elif a:
                ca = -int(a) if bsign == "-" else int(a)
                cb = 0 if not wsign else -int(b or 1) if wsign == "-" else int(b or 1)
            else:
                ca, cb = 1, 0
            if sign == "-":
                ca, cb = -ca, -cb
            power = int(exp) if exp else 1 if x else 0
            a_parts[power] = a_parts.get(power, 0) + ca
            if cb:
                b_parts[power] = b_parts.get(power, 0) + cb
    else:
        for sign, num, x, exp in _Z_ROW.findall(text):
            c = int(num) if num else 1
            power = int(exp) if exp else 1 if x else 0
            a_parts[power] = a_parts.get(power, 0) + (-c if sign == "-" else c)
    top = max(a_parts)
    if top > MAX_EXPONENT:
        raise _refusal(text, quad)
    coeffs = [ring.zero] * (top + 1)
    if quad:
        for power, ca in a_parts.items():
            coeffs[power] = QuadInt(ca, b_parts.get(power, 0), ring)
    else:
        for power, c in a_parts.items():
            coeffs[power] = c
    return Poly._trusted(coeffs, ring)
