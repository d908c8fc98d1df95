"""Polynomial arithmetic, content machinery, and the three division routines."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dringkit import (
    NORM_EUCLIDEAN_D,
    Poly,
    QuadInt,
    QuadRing,
    RingMismatchError,
    UnsupportedRingError,
    ZZ,
    content,
    exact_divide,
    field_divide,
    is_primitive,
    primitive_part,
    pseudo_divide,
    ZeroPolynomialError,
)
from helpers import (
    KERNEL_QUAD_DS,
    TEST_QUAD_DS,
    evaluate_reference,
    product_reference,
    quad_product_reference,
    rand_poly,
    rand_primitive,
)

GAUSS = QuadRing(-1)

P4 = Poly((1, 0, -8, 0, 8))
Q8 = Poly((0, -8, 0, 80, 0, -192, 0, 128))


def small_int_polys(max_deg=6, bound=20):
    return st.lists(
        st.integers(min_value=-bound, max_value=bound), min_size=0, max_size=max_deg + 1
    ).map(lambda cs: Poly(cs))


# --- representation -------------------------------------------------------


def test_trailing_zeros_are_stripped():
    assert Poly((1, 2, 0, 0)).coeffs == (1, 2)
    assert Poly((0, 0)).coeffs == ()


def test_degree_of_zero_is_none():
    assert Poly(()).degree() is None
    assert Poly((5,)).degree() == 0
    assert Q8.degree() == 7


# --- ring arithmetic ------------------------------------------------------


def test_product_of_conjugate_linear_factors():
    assert Poly((1, 1)) * Poly((-1, 1)) == Poly((-1, 0, 1))


def test_additive_identity():
    p = Poly((3, -2, 7))
    assert p + Poly.zero() == p


def test_square_of_2x2_minus_1():
    p = Poly((-1, 0, 2))
    assert p * p == Poly((1, 0, -4, 0, 4))


def test_mixed_ring_arithmetic_raises():
    with pytest.raises(RingMismatchError):
        Poly((1,), ZZ) + Poly((1,), GAUSS)


def test_degree_is_additive_under_product():
    rng = random.Random(1001)
    for _ in range(200):
        p = rand_poly(rng, max_deg=6)
        q = rand_poly(rng, max_deg=6)
        assert (p * q).degree() == p.degree() + q.degree()
    assert (Poly.zero() * Poly((1, 2))).degree() is None


# Over Z[w] the product is one schoolbook loop through QuadRing.matrix;
# helpers.product_reference multiplies whole ring elements and
# helpers.quad_product_reference runs four integer products with t and n
# written out.
PRODUCT_RINGS = (ZZ,) + tuple(QuadRing(d) for d in KERNEL_QUAD_DS)
product_coords = st.just(0) | st.integers(-10**30, 10**30)


@st.composite
def product_operands(draw):
    """Two polynomials over one ring, each zero or of degree 0-24."""
    ring = draw(st.sampled_from(PRODUCT_RINGS))
    polys = []
    for _ in range(2):
        size = draw(st.integers(0, 25))
        pairs = draw(st.lists(st.tuples(product_coords, product_coords),
                              min_size=size, max_size=size))
        if ring == ZZ:
            polys.append(Poly([a for a, _ in pairs]))
        else:
            polys.append(Poly([ring.element(a, b) for a, b in pairs], ring))
    return polys


def assert_same_poly(product, expected):
    """Equal coefficient by coefficient, with the same types and rings."""
    assert product.ring == expected.ring
    assert len(product.coeffs) == len(expected.coeffs)
    for c, e in zip(product.coeffs, expected.coeffs):
        assert type(c) is type(e)
        if isinstance(e, QuadInt):
            assert c.ring == e.ring and (c.a, c.b) == (e.a, e.b)
        else:
            assert c == e


@settings(max_examples=200, deadline=None)
@given(operands=product_operands())
# _int_product writes its first nonzero row and adds the rest: a scalar is
# that row alone, a zero first coefficient moves it, and an empty operand
# leaves only zeros.
@example(operands=[Poly((10**40 + 7,)), Poly((3, -1, 0, 2, 5))])
@example(operands=[Poly((0, 0, 4, -1)), Poly((0, 7, 1))])
@example(operands=[Poly(()), Poly((1, 2, 3))])
@example(operands=[Poly((1, 2, 3)), Poly(())])
def test_product_matches_the_reference(operands):
    f, g = operands
    product = f * g
    assert_same_poly(product, product_reference(f, g))
    if f.ring != ZZ:
        assert_same_poly(product, quad_product_reference(f, g))


@settings(max_examples=200, deadline=None)
@given(operands=product_operands(), data=st.data())
def test_scalar_product_is_the_product_with_a_constant(operands, data):
    p, ring = operands[0], operands[0].ring
    a = data.draw(st.just(0) | st.booleans() | product_coords)
    scalars = [a]
    if ring != ZZ:
        scalars.append(ring.element(a, data.draw(product_coords)))
    for c in scalars:
        expected = p * Poly.constant(c, ring)
        assert_same_poly(p * c, expected)
        assert_same_poly(c * p, expected)
    other = QuadRing(-1 if ring == ZZ or ring.d != -1 else 2)
    stranger = other.element(1, 1)
    with pytest.raises(RingMismatchError):
        p * stranger
    with pytest.raises(RingMismatchError):
        stranger * p


# --- evaluation -----------------------------------------------------------


def test_evaluate_reference_points():
    assert P4.evaluate(3) == 577
    assert Q8.evaluate(3) == 235416


def test_evaluate_at_zero_gives_constant_term():
    assert Q8.evaluate(0) == 0
    assert Poly((7, 1, 4)).evaluate(0) == 7


def test_evaluate_over_quadratic_ring():
    p = Poly((GAUSS.element(1, 1), GAUSS.element(0, 1)), GAUSS)  # (w)x + (1+w)
    assert p.evaluate(2) == GAUSS.element(1, 3)


# Poly.evaluate runs one Horner pass per coordinate at a plain int over Z[w];
# helpers.evaluate_reference is Horner's rule on whole QuadInts.
EVAL_DS = (-1, -3, -7, -11, 2, 3, 5, 73)
coordinates = st.integers(-10**30, 10**30)


@st.composite
def quad_polys(draw):
    """Zero, or degree 0-20 with coordinates up to 10^30 in absolute value."""
    ring = QuadRing(draw(st.sampled_from(EVAL_DS)))
    size = draw(st.integers(0, 21))
    pairs = draw(st.lists(st.tuples(coordinates, coordinates), min_size=size, max_size=size))
    return Poly([ring.element(a, b) for a, b in pairs], ring)


@settings(max_examples=300, deadline=None)
@given(p=quad_polys(), k=st.just(0) | st.integers(-10**6, 10**6))
def test_evaluation_at_an_int_matches_the_reference(p, k):
    value = p.evaluate(k)
    expected = evaluate_reference(p, k)
    assert type(value) is QuadInt and value.ring == p.ring
    assert (value.a, value.b) == (expected.a, expected.b)


@settings(max_examples=100, deadline=None)
@given(p=quad_polys(), ab=st.sampled_from([(0, 1), (1, 1), (-2, 3)]))
def test_evaluation_at_a_ring_element_matches_the_reference(p, ab):
    point = p.ring.element(*ab)  # w, 1 + w, -2 + 3w
    value = p.evaluate(point)
    expected = evaluate_reference(p, point)
    assert value.ring == p.ring
    assert (value.a, value.b) == (expected.a, expected.b)


# Over Z a plain int point, True and False included, takes the same pass
# without coercion; helpers.evaluate_reference coerces it first. Any other
# point still goes through IntegerRing.coerce and raises what it raises.
@settings(max_examples=300, deadline=None)
@given(
    coeffs=st.lists(coordinates, max_size=21),
    k=st.sampled_from((0, True, False)) | st.integers(-10**6, 10**6),
)
@example(coeffs=[], k=True)
@example(coeffs=[10**30] * 21, k=-10**6)
def test_evaluation_over_z_at_an_int_matches_the_reference(coeffs, k):
    p = Poly(coeffs)
    value = p.evaluate(k)
    assert value == evaluate_reference(p, k)
    assert type(value) is int
    with pytest.raises(RingMismatchError):
        p.evaluate(GAUSS.element(k, 1))
    with pytest.raises(TypeError, match="exact integer required, got float"):
        p.evaluate(float(k))


# Poly.values pairs k with -k in one Horner pass on the even and odd parts;
# Poly.evaluate, one point at a time, is its oracle. Over Z[w] a QuadInt
# point with b == 0 equals the int a, so the two may share a key.
VALUES_RINGS = (ZZ,) + tuple(QuadRing(d) for d in sorted(NORM_EUCLIDEAN_D))


@st.composite
def value_windows(draw, ring):
    """A shuffled window of points: symmetric, one-sided or mixed, with
    duplicates, 0, |k| up to 10^6 and, over Z[w], QuadInt points."""
    bound = draw(st.sampled_from((3, 50, 10**6)))
    ks = draw(st.lists(st.just(0) | st.integers(0, bound), max_size=8))
    shape = draw(st.sampled_from(("symmetric", "one-sided", "mixed")))
    if shape == "symmetric":
        points = [s * k for k in ks for s in (1, -1)]
    elif shape == "one-sided":
        sign = draw(st.sampled_from((1, -1)))
        points = [sign * k for k in ks]
    else:
        points = [draw(st.sampled_from((1, -1))) * k for k in ks] + [-k for k in ks[::2]]
    if points:
        points += draw(st.lists(st.sampled_from(points), max_size=3))
    if isinstance(ring, QuadRing):
        small = st.integers(-4, 4)
        points += [ring.element(a, b) for a, b in draw(st.lists(st.tuples(small, small), max_size=3))]
    return draw(st.permutations(points))


@st.composite
def polys_and_windows(draw):
    ring = draw(st.sampled_from(VALUES_RINGS))
    size = draw(st.integers(0, 21))
    if isinstance(ring, QuadRing):
        pairs = draw(st.lists(st.tuples(coordinates, coordinates), min_size=size, max_size=size))
        p = Poly([ring.element(a, b) for a, b in pairs], ring)
    else:
        p = Poly(draw(st.lists(coordinates, min_size=size, max_size=size)))
    return p, draw(value_windows(ring))


@settings(max_examples=300, deadline=None)
@given(case=polys_and_windows())
def test_values_match_pointwise_evaluation(case):
    p, points = case
    values = p.values(points)
    expected = {k: p.evaluate(k) for k in points}
    assert values == expected
    for k, value in expected.items():
        assert type(values[k]) is type(value)
        if isinstance(value, QuadInt):
            assert (values[k].a, values[k].b, values[k].ring) == (value.a, value.b, value.ring)


def test_values_evaluate_only_the_quadint_points(monkeypatch):
    # Every int point takes the +-k pass at |k|, so only QuadInt points reach
    # evaluate.
    calls = []
    evaluate = Poly.evaluate

    def spy(self, point):
        calls.append(point)
        return evaluate(self, point)

    monkeypatch.setattr(Poly, "evaluate", spy)
    ring = QuadRing(5)
    quad = Poly((ring.element(1, 2), ring.omega, ring.element(-3, 1), ring.one), ring)
    for p in (P4, quad):
        for points in (
            range(-4, 5),
            [3, 0, -1, 1, -3, 0],
            [1, 2, 3, 5, 2],
            [7, -2, 0, 4],
        ):
            calls.clear()
            p.values(points)
            assert calls == [], (p, points)
    points = [ring.element(1, 1), 2, ring.omega, -3, ring.element(4)]
    calls.clear()
    values = quad.values(points)
    assert calls == [ring.element(1, 1), ring.omega, ring.element(4)]
    assert values == {k: evaluate(quad, k) for k in points}


def test_values_refuse_a_float_next_to_an_equal_int():
    for points in ([2, 2.0], [2.0, 2], [-2, 2, 2.0]):
        with pytest.raises(TypeError, match="exact integer required, got float"):
            P4.values(points)
        with pytest.raises(TypeError, match="cannot interpret float"):
            Poly((GAUSS.one, GAUSS.omega), GAUSS).values(points)


def test_evaluation_at_a_point_of_another_ring_is_refused():
    p = Poly((GAUSS.element(1, 1), GAUSS.one), GAUSS)
    with pytest.raises(RingMismatchError):
        p.evaluate(QuadRing(5).omega)
    with pytest.raises(RingMismatchError):
        Poly((1, 1)).evaluate(GAUSS.omega)


# --- content and primitive part -------------------------------------------


def test_content_examples():
    assert content(Poly((2, 4, 6))) == 2
    assert content(P4) == 1
    assert content(Poly((5,))) == 5
    with pytest.raises(ZeroPolynomialError):
        content(Poly(()))


def test_is_primitive_examples():
    assert is_primitive(Poly((0, 1)))
    assert not is_primitive(Poly((2, 2)))
    assert is_primitive(P4)


@settings(max_examples=200, deadline=None)
@given(
    d=st.sampled_from(sorted(NORM_EUCLIDEAN_D)),
    pairs=st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)), min_size=1, max_size=6),
    scale=st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
)
def test_is_primitive_agrees_with_the_content_over_zw(d, pairs, scale):
    # Scaling by a random element makes many inputs non-primitive, so both
    # answers are drawn, also where the norms share a factor.
    ring = QuadRing(d)
    p = Poly([ring.element(a, b) for a, b in pairs], ring) * ring.element(*scale)
    if not p:
        with pytest.raises(ZeroPolynomialError):
            is_primitive(p)
        return
    assert is_primitive(p) == ring.is_unit(content(p))


def test_is_primitive_off_the_whitelist_still_needs_a_gcd():
    # Coprime norms (6 and 1) would answer True; off the norm-Euclidean
    # whitelist the answer stays the gcd's UnsupportedRingError.
    ring = QuadRing(-5)
    p = Poly((ring.element(1, 1), ring.one), ring)
    with pytest.raises(UnsupportedRingError) as raised:
        content(p)
    with pytest.raises(UnsupportedRingError) as also_raised:
        is_primitive(p)
    assert str(also_raised.value) == str(raised.value)
    for d in (-1, -5):
        with pytest.raises(ZeroPolynomialError):
            is_primitive(Poly.zero(QuadRing(d)))


def test_primitive_part_examples():
    assert primitive_part(Poly((2, 4, 6))) == (2, Poly((1, 2, 3)))
    assert primitive_part(Poly((0, 1))) == (1, Poly((0, 1)))
    assert primitive_part(Poly((0, -4, 0, 8))) == (4, Poly((0, -1, 0, 2)))


def test_primitive_part_keeps_sign_on_the_polynomial():
    c, h = primitive_part(Poly((-2, -4)))
    assert c == 2 and h == Poly((-1, -2))


def test_content_over_quadratic_ring_is_a_common_divisor():
    rng = random.Random(1002)
    for d in TEST_QUAD_DS:
        ring = QuadRing(d)
        for _ in range(50):
            p = rand_poly(rng, ring, max_deg=5, bound=20)
            c, h = primitive_part(p)
            assert is_primitive(h)
            assert h * c == p
            assert h.degree() == p.degree()


def test_content_is_multiplicative_over_z():
    rng = random.Random(1003)
    for _ in range(300):
        p = rand_poly(rng, max_deg=6)
        q = rand_poly(rng, max_deg=6)
        assert content(p * q) == content(p) * content(q)


def test_gauss_lemma_products_of_primitives_are_primitive():
    rng = random.Random(1004)
    for ring in (ZZ,) + tuple(QuadRing(d) for d in TEST_QUAD_DS):
        for _ in range(100):
            p = rand_primitive(rng, ring, max_deg=6, bound=25)
            q = rand_primitive(rng, ring, max_deg=6, bound=25)
            assert is_primitive(p * q)


# --- pseudo-division ------------------------------------------------------


def test_pseudo_divide_scales_by_leading_coefficient_power():
    result = pseudo_divide(Poly((0, 0, 1)), Poly((1, 2)))
    assert result.multiplier == 4
    assert result.s == 2
    assert result.quotient == Poly((-1, 2))
    assert result.remainder == Poly((1,))


def test_pseudo_divide_with_monic_divisor():
    result = pseudo_divide(Poly((-1, 0, 1)), Poly((-1, 1)))
    assert result.multiplier == 1
    assert result.quotient == Poly((1, 1))
    assert not result.remainder


def test_pseudo_divide_low_degree_dividend():
    f = Poly((3, 1))
    result = pseudo_divide(f, Poly((0, 0, 5)))
    assert result.multiplier == 1
    assert result.s == 0
    assert not result.quotient
    assert result.remainder == f


def test_pseudo_divide_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        pseudo_divide(Poly((1,)), Poly(()))


@settings(max_examples=300)
@given(f=small_int_polys(), g=small_int_polys())
def test_pseudo_division_identity(f, g):
    if not g:
        return
    result = pseudo_divide(f, g)
    assert f * result.multiplier == g * result.quotient + result.remainder
    assert not result.remainder or result.remainder.degree() < g.degree()


def test_pseudo_division_identity_over_quadratic_rings():
    rng = random.Random(1005)
    for d in TEST_QUAD_DS:
        ring = QuadRing(d)
        for _ in range(100):
            f = rand_poly(rng, ring, max_deg=6, bound=10)
            g = rand_poly(rng, ring, min_deg=0, max_deg=4, bound=10)
            if not g:
                continue
            result = pseudo_divide(f, g)
            assert f * result.multiplier == g * result.quotient + result.remainder
            assert not result.remainder or result.remainder.degree() < g.degree()


# --- exact division -------------------------------------------------------


def test_exact_divide_recurrence_pair():
    quotient = exact_divide(Q8, P4)
    assert quotient is not None
    assert quotient * P4 == Q8
    # also the expansion of 8x * (2x^2 - 1)
    assert quotient == Poly((0, -8, 0, 16))


def test_exact_divide_refuses_on_remainder():
    assert exact_divide(Poly((1, 0, 1)), Poly((1, 1))) is None


def test_exact_divide_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        exact_divide(Poly((4, -1, 9)), Poly(()))


def test_exact_divide_by_one():
    f = Poly((4, -1, 9))
    assert exact_divide(f, Poly((1,))) == f


def test_exact_divide_round_trip():
    rng = random.Random(1006)
    for _ in range(300):
        f = rand_poly(rng, max_deg=6)
        g = rand_poly(rng, min_deg=0, max_deg=4)
        if not g:
            continue
        assert exact_divide(f * g, g) == f


def test_exact_divide_round_trip_over_quadratic_rings():
    rng = random.Random(1007)
    for d in TEST_QUAD_DS:
        ring = QuadRing(d)
        for _ in range(100):
            f = rand_poly(rng, ring, max_deg=5, bound=10)
            g = rand_poly(rng, ring, min_deg=0, max_deg=3, bound=10)
            if not g:
                continue
            assert exact_divide(f * g, g) == f


# --- fraction-field division ----------------------------------------------


def test_field_divide_constant_denominator():
    f = Poly((0, -1, 0, 0, 0, 1))  # x^5 - x
    assert field_divide(f, Poly((5,))) == (5, f)


def test_field_divide_exact_factor():
    assert field_divide(Poly((-1, 0, 1)), Poly((-1, 1))) == (1, Poly((1, 1)))


def test_field_divide_degree_obstruction():
    assert field_divide(Poly((0, 1)), Poly((0, 0, 1))) is None


def test_field_divide_zero_dividend():
    # The zero quotient has gcd 0, so t = den and the pair is (1, 0), also
    # off the whitelist, where a gcd of one nonzero value needs no quad_gcd.
    for ring in (ZZ, GAUSS, QuadRing(-5)):
        den, q = field_divide(Poly((), ring), Poly((3, 7), ring))
        assert den == ring.one and type(den) is type(ring.one)
        assert q == Poly.zero(ring) and q.ring == ring


def test_field_divide_agrees_with_exact_divide_after_clearing_content():
    rng = random.Random(1008)
    for _ in range(200):
        g = rand_poly(rng, min_deg=1, max_deg=4)
        if rng.random() < 0.5:
            f = g * rand_poly(rng, min_deg=0, max_deg=4) * rng.choice([2, 3, 5, -7])
        else:
            f = rand_poly(rng, max_deg=8)
        pair = field_divide(f, g)
        _, divisor_prim = primitive_part(g)
        exact = exact_divide(f, divisor_prim)
        assert (pair is not None) == (exact is not None)
        if pair is not None:
            den, q = pair
            assert f * den == g * q
            assert den > 0


def test_field_divide_reduces_over_quadratic_rings():
    ring = GAUSS
    f = Poly((0, -1, 0, 0, 0, 1), ring)
    den, q = field_divide(f, Poly((5,), ring))
    assert f * den == Poly((5,), ring) * q
    # reduced: den and content(q) share no factor, so den is an associate of 5
    assert den.norm() == 25


def test_field_divide_over_non_euclidean_ring_keeps_the_raw_scaling():
    ring = QuadRing(-5)  # square-free but no gcd available
    f = Poly((1, 0, 1), ring)
    g = Poly((2,), ring)
    den, q = field_divide(f, g)
    assert f * den == g * q
    assert den == ring.element(8, 0)  # lc(g)^(deg f + 1), unreduced
