"""Polynomial text grammar, ring specs, and print/parse round trips."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dringkit import (
    NORM_EUCLIDEAN_D,
    Poly,
    PolyParseError,
    QuadInt,
    QuadRing,
    UnsupportedRingError,
    ZZ,
    parse_poly,
    parse_ring,
)
from dringkit.parsing import MAX_EXPONENT, MAX_LITERAL_DIGITS
from helpers import RECHECK_QUAD_RINGS, TEST_QUAD_DS, parse_poly_reference, rand_poly, str_reference

GAUSS = QuadRing(-1)


def _rarely(common, rare, one_in=10):
    """rare once in one_in draws, common otherwise."""
    return st.integers(1, one_in).flatmap(lambda i: rare if i == 1 else common)


# --- ring specs -------------------------------------------------------------


def test_parse_ring_accepts_z_and_whitelisted_quadratics():
    assert parse_ring("Z") == ZZ
    assert parse_ring("Q(sqrt -1)") == QuadRing(-1)
    assert parse_ring("Q(sqrt 5)") == QuadRing(5)
    assert parse_ring(" Q( sqrt  -3 ) ") == QuadRing(-3)


def test_parse_ring_rejects_everything_else():
    with pytest.raises(UnsupportedRingError):
        parse_ring("Q(sqrt 10)")  # square-free but not norm-Euclidean
    with pytest.raises(UnsupportedRingError):
        parse_ring("Q(sqrt 4)")
    with pytest.raises(UnsupportedRingError):
        parse_ring("GF(7)")
    with pytest.raises(UnsupportedRingError):
        parse_ring("Q(sqrt -١)")  # ASCII digits only


@pytest.mark.parametrize("digits", [4_300, 4_301, 5_000])
@pytest.mark.parametrize("sign", ["", "-"])
def test_parse_ring_refuses_a_d_past_the_int_digit_limit(digits, sign):
    # int() converts at most 4,300 digits; a longer d is refused by its
    # length, not with the interpreter's own message.
    whitelist = str(sorted(NORM_EUCLIDEAN_D))
    if digits <= MAX_LITERAL_DIGITS:
        expected = f"d = {sign}{'9' * digits} is outside the norm-Euclidean whitelist {whitelist}"
    else:
        expected = f"d of {digits} digits is outside the norm-Euclidean whitelist {whitelist}"
    with pytest.raises(UnsupportedRingError) as raised:
        parse_ring(f"Q(sqrt {sign}{'9' * digits})")
    assert str(raised.value) == expected


# --- basic grammar ----------------------------------------------------------


def test_parse_reference_polynomial():
    assert parse_poly("8x^4 - 8x^2 + 1") == Poly((1, 0, -8, 0, 8))


def test_parse_zero():
    p = parse_poly("0")
    assert not p
    assert p.degree() is None


def test_parse_quadratic_coefficients():
    p = parse_poly("[1+1w]x + [0+0w]", GAUSS)
    assert p == Poly((GAUSS.zero, GAUSS.element(1, 1)), GAUSS)


def test_parse_bracket_forms():
    assert parse_poly("[3]", GAUSS) == Poly((GAUSS.element(3, 0),), GAUSS)
    assert parse_poly("[2w]", GAUSS) == Poly((GAUSS.element(0, 2),), GAUSS)
    assert parse_poly("[-w]", GAUSS) == Poly((GAUSS.element(0, -1),), GAUSS)
    assert parse_poly("[5-w]", GAUSS) == Poly((GAUSS.element(5, -1),), GAUSS)
    assert parse_poly("[-2+3w]x^2", GAUSS) == Poly((0, 0, GAUSS.element(-2, 3)), GAUSS)


def test_terms_may_repeat_and_commute():
    assert parse_poly("x + 1 + x") == Poly((1, 2))
    assert parse_poly("1 - x^2 + 2x^2") == Poly((1, 0, 1))


def test_optional_star_and_whitespace():
    assert parse_poly("3*x + 2") == Poly((2, 3))
    assert parse_poly("  3 * x ^ 2  -  1 ") == Poly((-1, 0, 3))


def test_bare_integer_coefficients_coerce_over_quadratic_rings():
    assert parse_poly("x^2 + 1", GAUSS) == Poly((1, 0, 1), GAUSS)


def test_leading_sign():
    assert parse_poly("-x + 4") == Poly((4, -1))
    assert parse_poly("+x") == Poly((0, 1))


# --- rejected inputs --------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    ["", "   ", "x +", "x x", "1.5x", "1/2", "x^-1", "x^", "[1+1w]x", "y + 1",
     "3**x", "[", "2 2"],
)
def test_bad_inputs_raise_with_a_position(text):
    with pytest.raises(PolyParseError) as excinfo:
        parse_poly(text)
    assert excinfo.value.position >= 0


def test_brackets_rejected_over_z_but_position_is_reported():
    with pytest.raises(PolyParseError) as excinfo:
        parse_poly("2x + [1+1w]")
    assert excinfo.value.position == 5


def test_unclosed_bracket_over_quadratic_ring():
    with pytest.raises(PolyParseError):
        parse_poly("[1+1w x", GAUSS)


def test_float_rejected_at_the_dot():
    with pytest.raises(PolyParseError) as excinfo:
        parse_poly("1.5x + 2")
    assert excinfo.value.position == 1


@pytest.mark.parametrize("text, position", [("x²+1", 1), ("٣x+1", 0), ("x^²", 2)])
def test_non_ascii_digits_are_unexpected_characters(text, position):
    with pytest.raises(PolyParseError, match="unexpected character") as excinfo:
        parse_poly(text)
    assert excinfo.value.position == position


@pytest.mark.parametrize("text, message, position", [
    ("*x", "expected a term", 0),
    ("x*2", "expected '+' or '-' between terms", 1),
    ("2 * + x", "expected 'x' after '*'", 4),
    ("x ^ + 1", "expected a nonnegative integer exponent", 4),
    ("x + [ ]", "expected a quadratic coefficient", 6),
    ("x + [1 + ]", "expected the w-part of the coefficient", 9),
    ("x + [1 + 2 ]", "expected 'w'", 11),
    ("x + [2w + 1]", "expected ']'", 8),
    ("[w] [w]", "expected '+' or '-' between terms", 4),
    ("x ^ 2 - [w", "expected ']'", 10),
])
def test_structural_errors_name_the_first_token_that_does_not_fit(text, message, position):
    with pytest.raises(PolyParseError) as excinfo:
        parse_poly(text, GAUSS)
    assert str(excinfo.value) == f"{message} (at position {position})"


# --- parse-time caps --------------------------------------------------------


def test_exponent_at_the_cap_parses():
    p = parse_poly(f"x^{MAX_EXPONENT} + 1")
    assert p.degree() == MAX_EXPONENT


@pytest.mark.parametrize("ring", [ZZ, GAUSS])
def test_exponent_over_the_cap_is_rejected_at_its_position(ring):
    with pytest.raises(PolyParseError, match=f"cap of {MAX_EXPONENT}") as excinfo:
        parse_poly(f"3x^2 - x^ {MAX_EXPONENT + 1}", ring)
    assert excinfo.value.position == 10


def test_literal_at_the_cap_parses():
    literal = "9" * MAX_LITERAL_DIGITS
    assert parse_poly(f"{literal}x + 1") == Poly((1, int(literal)))


@pytest.mark.parametrize("text, position", [
    ("x + " + "7" * (MAX_LITERAL_DIGITS + 1), 4),
    ("[2+" + "7" * (MAX_LITERAL_DIGITS + 1) + "w]x", 3),
    ("x^" + "1" * (MAX_LITERAL_DIGITS + 1), 2),
], ids=["term", "bracket", "exponent"])
def test_literal_over_the_cap_is_rejected_at_its_position(text, position):
    with pytest.raises(PolyParseError, match=f"{MAX_LITERAL_DIGITS} digits") as excinfo:
        parse_poly(text, GAUSS)
    assert excinfo.value.position == position


# --- round trips ------------------------------------------------------------


def test_print_forms():
    assert str(Poly((1, 0, -8, 0, 8))) == "8x^4 - 8x^2 + 1"
    assert str(Poly(())) == "0"
    assert str(Poly((0, -1))) == "-x"
    assert str(Poly((-7,))) == "-7"
    assert str(Poly((0, 1, 1))) == "x^2 + x"


def test_print_forms_quadratic():
    p = Poly((GAUSS.element(0, 1), GAUSS.element(-3, 0), GAUSS.element(1, 2)), GAUSS)
    assert str(p) == "[1+2w]x^2 - [3]x + [0+1w]"
    assert str(Poly((GAUSS.element(0, -1),), GAUSS)) == "-[0+1w]"
    assert str(Poly((GAUSS.element(-1, 2),), GAUSS)) == "-[1-2w]"


def test_round_trip_over_z():
    rng = random.Random(4001)
    for _ in range(1000):
        p = rand_poly(rng, ZZ, min_deg=0, max_deg=9, bound=10**6)
        assert parse_poly(str(p)) == p
    assert parse_poly(str(Poly(()))) == Poly(())


@pytest.mark.parametrize("d", TEST_QUAD_DS)
def test_round_trip_over_quadratic_rings(d):
    ring = QuadRing(d)
    rng = random.Random(4002 + d)
    for _ in range(1000):
        p = rand_poly(rng, ring, min_deg=0, max_deg=9, bound=10**4)
        assert parse_poly(str(p), ring) == p


# Poly.__str__ prints each term from the coefficient's ints; the reference
# printer builds it from the sign and str() of the whole coefficient.
PRINT_INTS = _rarely(
    st.sampled_from([0, 0, 1, -1, 2, -2]) | st.integers(-(10**30), 10**30),
    st.builds(lambda s, n: s * (10**n + 7), st.sampled_from([1, -1]), st.integers(4_300, 4_310)),
)


@pytest.mark.parametrize("ring", (ZZ,) + RECHECK_QUAD_RINGS, ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_printing_matches_the_reference_printer(ring, data):
    if ring == ZZ:
        coeffs = data.draw(st.lists(PRINT_INTS, max_size=8))
    else:
        pairs = data.draw(st.lists(st.tuples(PRINT_INTS, PRINT_INTS), max_size=8))
        coeffs = [QuadInt(a, b, ring) for a, b in pairs]
    p = Poly(coeffs, ring)
    assert str(p) == str_reference(p)


# --- the reference parser -------------------------------------------------------
#
# tests/helpers.py keeps the tokenizer and recursive-descent parser that the
# one-regex parser replaced; both must agree on every text, including which
# error is reported and where.

PARSE_RINGS = (ZZ, QuadRing(-1), QuadRing(5))
SPACE = st.sampled_from(["", "", " ", "\t", "  ", " \t "])
DIGITS = st.integers(0, 10**6).map(str) | st.sampled_from(["0", "007", "1" * 40])


def _outcome(parse, text, ring):
    try:
        p = parse(text, ring)
    except PolyParseError as exc:
        return "error", str(exc), exc.position
    return "poly", p.ring, tuple((type(c), c) for c in p.coeffs)


@st.composite
def bracket_texts(draw):
    ws = lambda: draw(SPACE)  # noqa: E731
    sign = lambda: draw(st.sampled_from(["", "+", "-"]))  # noqa: E731
    first = draw(st.sampled_from(["a", "bw", "w", "a+bw", "a+w"]))
    parts = ["[", ws(), sign(), ws()]
    if first == "w":
        parts.append("w")
    else:
        parts += [draw(DIGITS), ws()]
        if first == "bw":
            parts.append("w")
        elif first != "a":
            parts += [draw(st.sampled_from(["+", "-"])), ws()]
            parts += [draw(DIGITS), ws(), "w"] if first == "a+bw" else ["w"]
    parts += [ws(), "]"]
    return "".join(parts)


@st.composite
def well_formed_texts(draw, ring):
    ws = lambda: draw(SPACE)  # noqa: E731
    coefficients = DIGITS if ring == ZZ else DIGITS | bracket_texts()
    out = [ws()]
    for i in range(draw(st.integers(1, 6))):
        if i:
            out += [draw(st.sampled_from(["+", "-"])), ws()]
        else:
            out += [draw(st.sampled_from(["", "+", "-"])), ws()]
        coeff = draw(st.none() | coefficients)
        power = draw(st.sampled_from([None, 0, 1, 2, 3, 12]))
        if coeff is not None:
            out += [coeff, ws()]
        if power is not None or coeff is None:
            if coeff is not None and draw(st.booleans()):
                out += ["*", ws()]
            out += ["x", ws()]
            if power is not None and (power != 1 or draw(st.booleans())):
                out += ["^", ws(), str(power), ws()]
    return "".join(out)


@pytest.mark.parametrize("ring", PARSE_RINGS, ids=str)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_well_formed_texts_match_the_reference_parser(ring, data):
    text = data.draw(well_formed_texts(ring))
    expected = _outcome(parse_poly_reference, text, ring)
    assert expected[0] == "poly"
    assert _outcome(parse_poly, text, ring) == expected


@pytest.mark.parametrize("ring", PARSE_RINGS, ids=str)
@settings(max_examples=1000, deadline=None)
@given(text=st.text(alphabet="0123456789 +-*^[]xw.\t", max_size=24))
def test_arbitrary_texts_match_the_reference_parser(ring, text):
    assert _outcome(parse_poly, text, ring) == _outcome(parse_poly_reference, text, ring)


# Uniform draws of characters seldom parse, so the accept path (one fullmatch
# of the whole text, one findall of its terms) is reached mostly through
# texts built term by term: whitespace runs in every slot, a sign or none on
# the first term, every bracket form, "*" or none, x and x^k with powers that
# repeat, and literals and exponents at their caps. Each text is also
# compared with one character deleted or inserted, which mostly lands on the
# refusal path.

RUN_SPACE = st.sampled_from(["", "", " ", "\t", " \t ", "\n", " " * 33])
# A literal or an exponent at its cap is slow to read for the reference
# tokenizer, which goes character by character, so these are drawn rarely.
RUN_DIGITS = _rarely(DIGITS, st.builds(
    lambda n, d: d * n, st.integers(MAX_LITERAL_DIGITS - 2, MAX_LITERAL_DIGITS), st.sampled_from("19")
))
POWERS = _rarely(
    st.sampled_from(["0", "1", "2", "2", "3", "007", "12"]),
    st.sampled_from([str(MAX_EXPONENT), "0" + str(MAX_EXPONENT), str(MAX_EXPONENT - 1)]),
    one_in=40,
)
BRACKET_FORMS = ("a", "bw", "w", "-w", "a+bw", "a-w", "a+w", "a-bw")


@st.composite
def bracket_forms(draw):
    ws = lambda: draw(RUN_SPACE)  # noqa: E731
    form = draw(st.sampled_from(BRACKET_FORMS))
    parts = ["[", ws()]
    if form == "-w":
        parts += ["-", ws(), "w"]
    else:
        parts += [draw(st.sampled_from(["", "+", "-"])), ws()]
        if form == "w":
            parts.append("w")
        else:
            parts += [draw(RUN_DIGITS), ws()]
            if form == "bw":
                parts.append("w")
            elif form != "a":
                parts += [form[1], ws()]
                parts += [draw(RUN_DIGITS), ws(), "w"] if form.endswith("bw") else ["w"]
    parts += [ws(), "]"]
    return "".join(parts)


@st.composite
def valid_texts(draw, ring):
    ws = lambda: draw(RUN_SPACE)  # noqa: E731
    coefficients = RUN_DIGITS if ring == ZZ else RUN_DIGITS | bracket_forms()
    out = [ws()]
    for i in range(draw(st.integers(1, 8))):
        out += [draw(st.sampled_from(["+", "-"] if i else ["", "+", "-"])), ws()]
        coeff = draw(st.none() | coefficients)
        power = draw(st.none() | POWERS)
        if coeff is not None:
            out += [coeff, ws()]
        if coeff is None or power is not None:
            if coeff is not None and draw(st.booleans()):
                out += ["*", ws()]
            out += ["x", ws()]
            if power is not None and (power != "1" or draw(st.booleans())):
                out += ["^", ws(), power, ws()]
    return "".join(out)


@pytest.mark.parametrize("ring", PARSE_RINGS, ids=str)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_texts_built_term_by_term_match_the_reference_parser(ring, data):
    text = data.draw(valid_texts(ring))
    expected = _outcome(parse_poly_reference, text, ring)
    assert expected[0] == "poly"
    assert _outcome(parse_poly, text, ring) == expected


@pytest.mark.parametrize("ring", PARSE_RINGS, ids=str)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_texts_one_edit_away_match_the_reference_parser(ring, data):
    text = data.draw(valid_texts(ring))
    # Half the edits land on or before a symbol, which whitespace runs and
    # long literals would otherwise make rare.
    symbols = [i for i, c in enumerate(text) if c in "+-*^[]xw"]
    i = data.draw(st.integers(0, len(text)) | st.sampled_from(symbols or [0]))
    if i < len(text) and data.draw(st.booleans()):
        text = text[:i] + text[i + 1:]
    else:
        text = text[:i] + data.draw(st.sampled_from("0123456789 +-*^[]xw.\t")) + text[i:]
    assert _outcome(parse_poly, text, ring) == _outcome(parse_poly_reference, text, ring)


# --- linear time on long whitespace runs --------------------------------------------
#
# A term pattern with \s* on both sides of an optional piece backtracks
# quadratically over a whitespace run; 10^5 characters in any slot must
# still take well under a second, whether the text parses or not.

RUN = " \t" * (10**5 // 2)
SLOTS = {
    "after a sign": ("-{}x", "-{}"),
    "after [": ("[{}1+2w]x", "[{}x"),
    "before + in brackets": ("[1{}+2w]", "[1{}+]"),
    "after + in brackets": ("[1+{}2w]", "[1+{}2]"),
    "before - in brackets": ("[1{}-w]", "[1{}-x]"),
    "after - in brackets": ("[1-{}w]", "[1-{}]"),
    "between x and ^": ("x{}^2", "x{}^"),
    "before ]": ("[1+2w{}]x", "[1+2w{}x"),
    "before '+'": ("x{}+1", "x{}+"),
    "after an exponent": ("x^2{}+1", "x^2{}1"),
    "after '*'": ("2*{}x", "2*{}"),
}
TEMPLATES = [t for pair in SLOTS.values() for t in pair]
TEMPLATE_IDS = [f"{slot}-{kind}" for slot in SLOTS for kind in ("parses", "fails")]


def _parse_seconds(text, ring):
    start = time.perf_counter()
    try:
        parse_poly(text, ring)
    except PolyParseError:
        pass
    return time.perf_counter() - start


@pytest.mark.parametrize("template", TEMPLATES, ids=TEMPLATE_IDS)
def test_long_whitespace_runs_take_linear_time(template):
    assert _parse_seconds(template.format(RUN), GAUSS) < 1.0


@pytest.mark.parametrize("template", TEMPLATES, ids=TEMPLATE_IDS)
def test_long_whitespace_runs_take_linear_time_over_z(template):
    assert _parse_seconds(template.format(RUN), ZZ) < 1.0
