"""Polynomial text grammar, ring specs, and print/parse round trips."""

import random

import pytest

from dringkit import (
    Poly,
    PolyParseError,
    QuadRing,
    UnsupportedRingError,
    ZZ,
    parse_poly,
    parse_ring,
)
from dringkit.parsing import MAX_EXPONENT, MAX_LITERAL_DIGITS
from helpers import TEST_QUAD_DS, rand_poly

GAUSS = QuadRing(-1)


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
    assert parse_poly("[-2+3w]x^2", GAUSS) == Poly.monomial(GAUSS.element(-2, 3), 2, GAUSS)


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
