"""Quadratic integer arithmetic and the Z[W] localization."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dringkit import (
    NORM_EUCLIDEAN_D,
    DenominatorNotInW,
    Poly,
    QuadInt,
    QuadRing,
    RingMismatchError,
    UnsupportedRingError,
    WRational,
    ZZ,
    ZeroInputError,
    factorize,
    is_squarefree,
    parse_poly,
    quad_gcd,
    rings,
)
from dringkit.rings import _reduction_step
from helpers import (
    TEST_QUAD_DS,
    divides_reference,
    pair_product_reference,
    quad_gcd_reference,
    reduction_step_reference,
)

GAUSS = QuadRing(-1)
EISEN = QuadRing(-3)
GOLDEN = QuadRing(5)

coords = st.integers(min_value=-1000, max_value=1000)
big_coords = st.integers(min_value=-10**30, max_value=10**30)
gcd_coords = st.integers(min_value=-10**12, max_value=10**12)


# --- descriptors ---------------------------------------------------------


# n in w**2 = t*w + n: d itself, or (d - 1)/4 when w = (1 + sqrt d)/2
MINIMAL_POLYNOMIAL_N = {-1: -1, -2: -2, 2: 2, 3: 3, -3: -1, 5: 1, 13: 3, -7: -2}


@pytest.mark.parametrize("d,half", [(-1, False), (-2, False), (2, False), (3, False),
                                    (-3, True), (5, True), (13, True), (-7, True)])
def test_basis_mode_follows_d_mod_4(d, half):
    ring = QuadRing(d)
    assert (ring.t, ring.n) == (int(half), MINIMAL_POLYNOMIAL_N[d])
    assert ring.omega * ring.omega == ring.t * ring.omega + ring.n


def test_minimal_polynomial_constants_are_not_fields():
    ring = QuadRing(5)
    assert QuadRing._fields == ("d",)
    assert repr(ring) == "QuadRing(d=5)"
    assert ring == QuadRing(5) and hash(ring) == hash(QuadRing(5))


@pytest.mark.parametrize("d", [0, 1, 4, 8, 12, -4, 45, -9, 10**6 + 1])
def test_invalid_descriptors_rejected(d):
    with pytest.raises(ValueError):
        QuadRing(d)


def test_descriptor_equality_is_by_d():
    assert QuadRing(-1) == QuadRing(-1)
    assert QuadRing(-1) != QuadRing(5)


# --- addition / multiplication -------------------------------------------


def test_add_componentwise():
    assert GAUSS.element(1, 2) + GAUSS.element(3, 4) == GAUSS.element(4, 6)


def test_add_identity_and_inverse():
    x = GOLDEN.element(7, -3)
    assert x + GOLDEN.zero == x
    assert GOLDEN.element(1, 1) + GOLDEN.element(-1, -1) == GOLDEN.zero


def test_mixed_rings_raise():
    with pytest.raises(RingMismatchError):
        GAUSS.element(1, 0) + GOLDEN.element(1, 0)
    with pytest.raises(RingMismatchError):
        GAUSS.element(1, 0) * EISEN.element(1, 1)
    with pytest.raises(RingMismatchError):
        EISEN.element(1, 1) * GAUSS.element(1, 0)
    x = GOLDEN.element(3, -2)
    with pytest.raises(TypeError):
        x + 2.0
    for value in (x + True, x * True):
        assert type(value.a) is int and type(value.b) is int
    assert (x + True, x * True) == (GOLDEN.element(4, -2), x)


def test_sqrt_mode_multiplication():
    # w = sqrt(-1), so w*w = -1
    assert GAUSS.omega * GAUSS.omega == GAUSS.element(-1, 0)


def test_half_integer_mode_multiplication():
    # w = (1 + sqrt 5)/2 satisfies w^2 = w + 1
    assert GOLDEN.omega * GOLDEN.omega == GOLDEN.element(1, 1)


def test_multiplicative_identity():
    x = EISEN.element(4, -9)
    assert x * EISEN.one == x
    assert 1 * x == x


@pytest.mark.parametrize("ring", [GAUSS, GOLDEN], ids=str)
def test_pow_squares_once_per_bit_after_the_first(ring, monkeypatch):
    # One product per set bit into the result and one squaring per bit after
    # the lowest; none after the last bit, where the square is the largest.
    x = ring.element(2, -1)
    multiply = QuadInt.__mul__
    calls = []

    def counting(self, other):
        calls.append(None)
        return multiply(self, other)

    powers = [ring.one]  # x ** n by repeated multiplication
    for _ in range(1000):
        powers.append(multiply(powers[-1], x))
    monkeypatch.setattr(QuadInt, "__mul__", counting)
    for n in [*range(1, 130), 255, 256, 1000]:
        calls.clear()
        assert x ** n == powers[n]
        assert len(calls) == bin(n).count("1") + n.bit_length() - 1, n
    calls.clear()
    assert x ** 0 == ring.one and calls == []
    with pytest.raises(ValueError, match="negative powers leave the ring"):
        x ** -1


def test_int_coercion_in_arithmetic():
    assert GAUSS.element(2, 3) + 5 == GAUSS.element(7, 3)
    assert 2 * GAUSS.element(1, 1) == GAUSS.element(2, 2)


def test_int_on_either_side_of_equality():
    assert GAUSS.element(3, 0) == 3 and 3 == GAUSS.element(3, 0)
    assert GAUSS.element(3, 1) != 3 and 3 != GAUSS.element(3, 1)
    assert GAUSS.element(3, 0) != 4


def test_coerce_rejects_floats():
    with pytest.raises(TypeError):
        GAUSS.coerce(1.5)


def test_ring_refuses_a_float_d():
    with pytest.raises(TypeError, match="exact integer required, got float"):
        QuadRing(2.0)


@pytest.mark.parametrize("a, b", [(0.5, 1), (1, 0.5), (2.0, 0)])
def test_element_refuses_float_coordinates(a, b):
    with pytest.raises(TypeError, match="exact integer required, got float"):
        GAUSS.element(a, b)


def test_a_bool_is_stored_as_the_int_it_equals():
    # bool is a subclass of int; stored as is, True printed as "True", which
    # the parser cannot read back.
    assert type(ZZ.coerce(True)) is int and ZZ.coerce(False) == 0
    assert str(GAUSS.element(True)) == "1"
    assert type(GAUSS.coerce(True).a) is int
    p = Poly((True, GAUSS.omega), GAUSS)
    assert str(p) == "[0+1w]x + [1]"
    assert parse_poly(str(p), GAUSS) == p
    assert str(WRational(3, True)) == "3/1"
    assert type(WRational(True).num) is int


@pytest.mark.parametrize("num, den", [(1.5, 1), (1, 2.0)])
def test_wrational_refuses_float_integers(num, den):
    with pytest.raises(TypeError, match="float"):
        WRational(num, den)


# --- against sympy --------------------------------------------------------

# Every norm-Euclidean d, plus rings without a gcd: -5, 10, the prime
# 999983 = 3 (mod 4) and 999997 = 757 * 1321 = 1 (mod 4).
ORACLE_DS = tuple(sorted(NORM_EUCLIDEAN_D)) + (-5, 10, 999_983, 999_997)


def _sympy_value(x: QuadInt, root):
    """a + b*w as a sympy number, w built from the given square root of d."""
    w = (1 + root) / 2 if x.ring.d % 4 == 1 else root
    return x.a + x.b * w


def _sympy_coordinates(sympy, value, d):
    """(a, b) with value == a + b*w, read off value = p + q*sqrt(d)."""
    root = sympy.sqrt(d)
    value = sympy.expand(value)
    p, q = value.coeff(root, 0), value.coeff(root, 1)
    assert sympy.expand(value - p - q * root) == 0
    if d % 4 == 1:  # sqrt(d) = 2w - 1
        p, q = p - q, 2 * q
    assert p.is_Integer and q.is_Integer
    return int(p), int(q)


@settings(max_examples=300, deadline=None)
@given(a=big_coords, b=big_coords, c=big_coords, e=big_coords, d=st.sampled_from(ORACLE_DS))
def test_multiply_conjugate_and_norm_match_sympy(a, b, c, e, d):
    sympy = pytest.importorskip("sympy")
    root = sympy.sqrt(d)
    ring = QuadRing(d)
    x, y = ring.element(a, b), ring.element(c, e)
    product = x * y
    expected = _sympy_value(x, root) * _sympy_value(y, root)
    assert (product.a, product.b) == _sympy_coordinates(sympy, expected, d)
    conjugate = x.conjugate()
    assert (conjugate.a, conjugate.b) == _sympy_coordinates(sympy, _sympy_value(x, -root), d)
    norm = sympy.expand(_sympy_value(x, root) * _sympy_value(x, -root))
    assert norm.is_Integer and x.norm() == int(norm)


# QuadRing.matrix is the one place an element product is derived from t and
# n; the pair product in helpers, written from w**2 = t*w + n alone, checks it
# and everything QuadInt computes through it.
MATRIX_DS = sorted(NORM_EUCLIDEAN_D) + [-6, -5, 10, 14, 15, 23]


def test_matrix_examples():
    assert GAUSS.matrix(1, 2) == (1, -2, 2, 1)
    assert GAUSS.element(1, 2) * GAUSS.element(3, 4) == GAUSS.element(-5, 10)
    assert GOLDEN.omega * GOLDEN.omega == GOLDEN.element(1, 1)
    assert GOLDEN.omega.norm() == -1
    assert EISEN.omega.norm() == 1


@settings(max_examples=300, deadline=None)
@given(a=gcd_coords, b=gcd_coords, x=gcd_coords, y=gcd_coords, d=st.sampled_from(MATRIX_DS))
def test_matrix_arithmetic_matches_the_pair_product(a, b, x, y, d):
    ring = QuadRing(d)
    t, n = ring.t, ring.n
    alpha, beta = ring.element(a, b), ring.element(x, y)
    product = pair_product_reference(a, b, x, y, t, n)
    p, q, r, s = ring.matrix(a, b)
    assert (p * x + q * y, r * x + s * y) == product
    gamma = alpha * beta
    assert (gamma.a, gamma.b) == product
    assert alpha.norm() == a * a + t * a * b - n * b * b
    conjugate = alpha.conjugate()
    assert (conjugate.a, conjugate.b) == (a + t * b, -b)
    assert pair_product_reference(a, b, conjugate.a, conjugate.b, t, n) == (alpha.norm(), 0)
    if not alpha:
        return
    quotient = alpha.divides(gamma)
    assert (quotient.a, quotient.b) == (x, y)
    quotient = alpha.divides(beta)
    if quotient is None:
        num = pair_product_reference(x, y, conjugate.a, conjugate.b, t, n)
        assert num[0] % alpha.norm() or num[1] % alpha.norm()
    else:
        assert pair_product_reference(a, b, quotient.a, quotient.b, t, n) == (x, y)


# --- conjugation ----------------------------------------------------------


def test_conjugate_sqrt_mode():
    assert GAUSS.element(3, 4).conjugate() == GAUSS.element(3, -4)


def test_conjugate_half_integer_mode():
    # sigma((1 + sqrt 5)/2) = (1 - sqrt 5)/2 = 1 - w
    assert GOLDEN.omega.conjugate() == GOLDEN.element(1, -1)


@settings(max_examples=200)
@given(a=coords, b=coords, d=st.sampled_from(TEST_QUAD_DS + (-2, 2)))
def test_conjugate_is_an_involution(a, b, d):
    x = QuadRing(d).element(a, b)
    assert x.conjugate().conjugate() == x


@settings(max_examples=200)
@given(a=coords, b=coords, c=coords, e=coords, d=st.sampled_from(TEST_QUAD_DS + (-2, 2)))
def test_conjugate_is_a_ring_homomorphism(a, b, c, e, d):
    ring = QuadRing(d)
    x, y = ring.element(a, b), ring.element(c, e)
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()


@settings(max_examples=200)
@given(a=coords, b=coords, d=st.sampled_from(TEST_QUAD_DS + (-2, 2)))
def test_fixed_points_of_conjugation_are_the_integers(a, b, d):
    x = QuadRing(d).element(a, b)
    assert (x.conjugate() == x) == (b == 0)


# --- norms ----------------------------------------------------------------


def test_norm_examples():
    assert GAUSS.element(3, 4).norm() == 25
    assert EISEN.element(1, 1).norm() == 3
    assert GOLDEN.zero.norm() == 0


@settings(max_examples=200)
@given(a=coords, b=coords, d=st.sampled_from(TEST_QUAD_DS + (-2, 2)))
def test_norm_is_self_times_conjugate(a, b, d):
    x = QuadRing(d).element(a, b)
    product = x * x.conjugate()
    assert product.b == 0
    assert product.a == x.norm()


@pytest.mark.parametrize("d", TEST_QUAD_DS)
def test_norm_multiplicativity_bulk(d):
    ring = QuadRing(d)
    rng = random.Random(90_000 + d)
    for _ in range(1000):
        x = ring.element(rng.randint(-999, 999), rng.randint(-999, 999))
        y = ring.element(rng.randint(-999, 999), rng.randint(-999, 999))
        assert (x * y).norm() == x.norm() * y.norm()


# --- exact division -------------------------------------------------------


def test_divides_splits_two_over_gaussians():
    q = GAUSS.element(1, 1).divides(GAUSS.element(2, 0))
    assert q == GAUSS.element(1, -1)


def test_divides_self_gives_one():
    x = GOLDEN.element(8, -5)
    assert x.divides(x) == GOLDEN.one


def test_divides_absent_when_norms_obstruct():
    assert GAUSS.element(3, 0).divides(GAUSS.element(1, 1)) is None


def test_divides_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GAUSS.zero.divides(GAUSS.one)


@pytest.mark.parametrize("d", TEST_QUAD_DS)
def test_divides_round_trip_and_refusal(d):
    ring = QuadRing(d)
    rng = random.Random(91_000 + d)
    for _ in range(300):
        g = ring.element(rng.randint(-40, 40), rng.randint(-40, 40))
        if not g:
            continue
        q = ring.element(rng.randint(-40, 40), rng.randint(-40, 40))
        f = g * q
        assert g.divides(f) == q
        result = g.divides(f + 1)
        if result is not None:
            assert g * result == f + 1
        else:
            # the defining check: (f+1) * conj(g) is not coordinatewise
            # divisible by norm(g)
            num = (f + 1) * g.conjugate()
            n = g.norm()
            assert num.a % n != 0 or num.b % n != 0


# --- units ----------------------------------------------------------------


def test_unit_examples():
    assert GAUSS.omega.is_unit()
    assert not GAUSS.zero.is_unit()
    assert QuadRing(2).element(1, 1).is_unit()  # norm 1 - 2 = -1


# --- gcd ------------------------------------------------------------------


def _is_associate(x, y):
    return x.divides(y) is not None and y.divides(x) is not None


def test_gcd_of_two_and_one_plus_i():
    g = quad_gcd(GAUSS.element(2, 0), GAUSS.element(1, 1))
    assert _is_associate(g, GAUSS.element(1, 1))


def test_gcd_with_zero_and_self():
    x = GAUSS.element(3, 7)
    assert quad_gcd(x, GAUSS.zero) == x
    assert _is_associate(quad_gcd(x, x), x)


def test_gcd_rejects_unsupported_ring():
    ring = QuadRing(-5)
    with pytest.raises(UnsupportedRingError):
        quad_gcd(ring.element(2, 0), ring.element(1, 1))


def test_gcd_rejects_double_zero():
    with pytest.raises(ZeroInputError):
        quad_gcd(GAUSS.zero, GAUSS.zero)


def test_gcd_rejects_integers_and_mixed_rings():
    with pytest.raises(TypeError):
        quad_gcd(2, GAUSS.element(1, 1))
    with pytest.raises(TypeError):
        quad_gcd(GAUSS.element(1, 1), 2)
    with pytest.raises(RingMismatchError):
        quad_gcd(GAUSS.element(2, 0), EISEN.element(1, 1))


@pytest.mark.parametrize("d", sorted(NORM_EUCLIDEAN_D))
def test_gcd_divides_both_inputs_across_whitelist(d):
    ring = QuadRing(d)
    rng = random.Random(92_000 + d)
    for _ in range(25):
        x = ring.element(rng.randint(-60, 60), rng.randint(-60, 60))
        y = ring.element(rng.randint(-60, 60), rng.randint(-60, 60))
        if not x and not y:
            continue
        g = quad_gcd(x, y)
        assert g.divides(x) is not None
        assert g.divides(y) is not None


@pytest.mark.parametrize("d", [-1, -3, -7, 2, 5])
def test_gcd_is_maximal_among_small_common_divisors(d):
    ring = QuadRing(d)
    rng = random.Random(93_000 + d)
    for _ in range(20):
        x = ring.element(rng.randint(-10, 10), rng.randint(-10, 10))
        y = ring.element(rng.randint(-10, 10), rng.randint(-10, 10))
        if not x or not y or abs(x.norm()) > 200 or abs(y.norm()) > 200:
            continue
        g = quad_gcd(x, y)
        for a in range(-15, 16):
            for b in range(-15, 16):
                cand = ring.element(a, b)
                if not cand:
                    continue
                if cand.divides(x) is not None and cand.divides(y) is not None:
                    assert cand.divides(g) is not None


# quad_gcd and _reduction_step run on coordinate pairs; the QuadInt descent
# in helpers is the oracle, and the two must agree on the associate.


@settings(max_examples=300, deadline=None)
@given(a=gcd_coords, b=gcd_coords, c=gcd_coords | st.just(0), e=gcd_coords | st.just(0),
       d=st.sampled_from(sorted(NORM_EUCLIDEAN_D)))
def test_gcd_matches_the_quadint_descent(a, b, c, e, d):
    ring = QuadRing(d)
    x, y = ring.element(a, b), ring.element(c, e)
    if not x and not y:
        return
    g, expected = quad_gcd(x, y), quad_gcd_reference(x, y)
    assert type(g) is QuadInt and g.ring == ring
    assert (g.a, g.b) == (expected.a, expected.b)


def test_widening_search_returns_the_reference_remainder():
    # Over Q(sqrt 73), N(-6 - w) = 24 and the rounded quotient -3 + w leaves
    # -6 - 2w, of norm -24: only the widening search finds a smaller remainder.
    ring = QuadRing(73)
    x, y = ring.element(-6, -6), ring.element(-6, -1)
    assert y.norm() == 24
    assert (x + ring.element(-3, 1) * y * -1).norm() == -24
    r = _reduction_step((x.a, x.b), (y.a, y.b), ring)
    expected = reduction_step_reference(x, y)
    assert r == (expected.a, expected.b)
    assert abs(ring.element(*r).norm()) < 24


def test_widening_search_goes_past_radius_64():
    # Over Q(sqrt 19) the nearest norm-decreasing quotient for this pair sits
    # 80 + 18w lattice steps from the rounded one, outside the radius-64 box.
    ring = QuadRing(19)
    x, y = ring.element(10441235250, -2400402664), ring.element(59661890374, -13688237592)
    assert y.norm() == -447_956_126_603_350_940
    r = _reduction_step((x.a, x.b), (y.a, y.b), ring)
    expected = reduction_step_reference(x, y)
    assert r == (expected.a, expected.b)
    assert abs(ring.element(*r).norm()) < 447_956_126_603_350_940


def test_gcd_whose_descent_needs_a_box_past_radius_64():
    ring = QuadRing(19)
    x = ring.element(-341487525608, -595848167312)
    y = ring.element(296727691650, 732207385456)
    g, expected = quad_gcd(x, y), quad_gcd_reference(x, y)
    assert g.divides(x) is not None and g.divides(y) is not None
    assert (g.a, g.b) == (expected.a, expected.b)


# Inputs on which a descent that took any norm decrease ran for millions of
# steps in Q(sqrt 17): each remainder was 0.99999999985 of the norm before.
# With every step cutting the norm to 170/171 or less, a descent from y takes
# at most log(|N(y)|) / log(171/170) + 1 steps.
@pytest.mark.parametrize("x, y, steps", [
    ((1, 17179869006), (17179869006, 17179869006), 4),
    ((639059193256, 48930), (639059193256, 639059193256), 13),
])
def test_gcd_descent_cuts_the_norm_by_a_fixed_factor(x, y, steps, monkeypatch):
    ring = QuadRing(17)
    x, y = ring.element(*x), ring.element(*y)
    norms = []

    def counting(u, v, ring):
        norms.append(abs(ring.element(*v).norm()))
        if len(norms) > 10_000:
            pytest.fail("the descent did not end within 10,000 steps")
        return _reduction_step(u, v, ring)

    monkeypatch.setattr(rings, "_reduction_step", counting)
    g = quad_gcd(x, y)
    assert g.divides(x) is not None and g.divides(y) is not None
    assert len(norms) == steps
    assert len(norms) <= math.log(abs(y.norm())) / math.log(171 / 170) + 1
    assert all(171 * after <= 170 * before for before, after in zip(norms, norms[1:]))


@settings(max_examples=150, deadline=None)
@given(a=big_coords, b=big_coords, c=big_coords, e=big_coords,
       d=st.sampled_from(sorted(NORM_EUCLIDEAN_D)))
def test_gcd_descent_steps_are_bounded_by_the_norm(a, b, c, e, d):
    ring = QuadRing(d)
    x, y = ring.element(a, b), ring.element(c, e)
    if not y:
        return
    steps = 0

    def counting(u, v, ring):
        nonlocal steps
        steps += 1
        return _reduction_step(u, v, ring)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rings, "_reduction_step", counting)
        quad_gcd(x, y)
    assert steps <= math.log(abs(y.norm())) / math.log(171 / 170) + 1


# The real fields whose sampled descents needed the widest boxes: radius 8,
# 128, 8 and 32 for d = 11, 19, 57 and 73.
wide_coords = st.integers(min_value=-10**20, max_value=10**20)


@settings(max_examples=200, deadline=None)
@given(a=wide_coords, b=wide_coords, c=wide_coords, e=wide_coords,
       d=st.sampled_from((11, 19, 57, 73)))
def test_gcd_divides_both_inputs_in_the_widest_search_fields(a, b, c, e, d):
    ring = QuadRing(d)
    x, y = ring.element(a, b), ring.element(c, e)
    if not x and not y:
        return
    g, expected = quad_gcd(x, y), quad_gcd_reference(x, y)
    assert g.divides(x) is not None and g.divides(y) is not None
    assert (g.a, g.b) == (expected.a, expected.b)


# QuadInt.divides works on coordinates; helpers.divides_reference multiplies
# QuadInts. Every norm-Euclidean d sampled by the benchmark, plus rings
# without a gcd: -5 and 999997. Divisors of small norm make a non-multiple
# with one coordinate divisible likely.
DIVIDES_DS = (-1, -3, -7, -11, 2, 3, 5, 73, -5, 999_997)
divisor_coords = st.integers(min_value=-3, max_value=3) | big_coords


@settings(max_examples=300, deadline=None)
@given(a=divisor_coords, b=divisor_coords, c=big_coords, e=big_coords,
       multiple=st.booleans(), d=st.sampled_from(DIVIDES_DS))
def test_divides_matches_the_reference(a, b, c, e, multiple, d):
    ring = QuadRing(d)
    x, y = ring.element(a, b), ring.element(c, e)
    if not x:
        with pytest.raises(ZeroDivisionError):
            x.divides(y)
        return
    if multiple:
        y = x * y
    q, expected = x.divides(y), divides_reference(x, y)
    if expected is None:
        assert q is None
    else:
        assert type(q) is QuadInt and (q.a, q.b) == (expected.a, expected.b)
    if multiple:
        assert (q.a, q.b) == (c, e)


def test_divides_checks_the_ring_of_its_argument():
    assert GAUSS.element(1, 1).divides(2) == GAUSS.element(1, -1)
    with pytest.raises(RingMismatchError):
        GAUSS.element(1, 1).divides(EISEN.element(1, 1))
    with pytest.raises(TypeError):
        GAUSS.element(1, 1).divides(2.0)


# --- Z[W] -----------------------------------------------------------------


def test_wrational_construction_examples():
    assert WRational(3, 5) == WRational(3, 5)
    assert WRational(6, 4) == WRational(3, 2)
    with pytest.raises(DenominatorNotInW):
        WRational(1, 3)
    with pytest.raises(ZeroDivisionError):
        WRational(1, 0)


def test_wrational_sign_normalization():
    x = WRational(3, -5)
    assert (x.num, x.den) == (-3, 5)


def test_wrational_reduction_can_remove_bad_primes():
    # 3/3 reduces to 1/1 before the denominator is factored
    assert WRational(3, 3) == WRational(1, 1)


def test_wrational_denominator_cap():
    assert WRational(5**20, 5**30).den == 5**10  # reduced before the cap applies
    with pytest.raises(ValueError):
        WRational(1, 5**18)  # 5^18 > 10^12


def test_factorize_and_is_squarefree_reject_zero():
    with pytest.raises(ValueError):
        factorize(0)
    assert not is_squarefree(0)


def test_factorize_and_is_squarefree_are_bounded_at_10_to_the_12():
    assert factorize(10**12) == {2: 12, 5: 12}
    assert factorize(999_999_999_989) == {999_999_999_989: 1}  # a prime
    assert not is_squarefree(10**12) and not is_squarefree(-(10**12))
    assert is_squarefree(999_999_999_989)
    message = "trial division is capped at n <= 1000000000000"
    for n in (10**12 + 1, 2**61 - 1):
        with pytest.raises(ValueError, match=message):
            factorize(n)
        with pytest.raises(ValueError, match=message):
            is_squarefree(n)
        with pytest.raises(ValueError, match=message):
            is_squarefree(-n)


def test_factorize_refuses_a_float():
    with pytest.raises(TypeError, match="exact integer required, got float"):
        factorize(1.5)


def test_is_squarefree_refuses_a_float():
    with pytest.raises(TypeError, match="exact integer required, got float"):
        is_squarefree(2.0)
