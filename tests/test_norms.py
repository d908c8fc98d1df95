"""Conjugate polynomials, norm polynomials, and the norm-transfer check."""

import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dringkit import (
    DRingKitError,
    EmptySampleSetError,
    Poly,
    QuadInt,
    QuadRing,
    RingMismatchError,
    UnsupportedRingError,
    VerificationError,
    ZZ,
    conjugate_poly,
    norm_poly,
    norm_transfer_check,
)
from dringkit import norms
from helpers import (
    RECHECK_QUAD_RINGS,
    TEST_QUAD_DS,
    norm_poly_reference,
    norm_transfer_reference,
    rand_poly,
)

GAUSS = QuadRing(-1)


def test_conjugate_poly_flips_w_parts():
    p = Poly((GAUSS.element(0, -1), GAUSS.one), GAUSS)  # x - w
    assert conjugate_poly(p) == Poly((GAUSS.element(0, 1), GAUSS.one), GAUSS)


def test_conjugate_poly_fixes_integer_coefficients():
    p = Poly((3, -2, 7))
    assert conjugate_poly(p) is p
    q = Poly((3, -2, 7), GAUSS)
    assert conjugate_poly(q) == q


def test_conjugate_poly_is_an_involution():
    rng = random.Random(2001)
    for d in TEST_QUAD_DS:
        ring = QuadRing(d)
        for _ in range(50):
            p = rand_poly(rng, ring, min_deg=0, max_deg=6, bound=20)
            assert conjugate_poly(conjugate_poly(p)) == p


def test_conjugate_poly_distributes_over_products():
    rng = random.Random(2002)
    for d in TEST_QUAD_DS:
        ring = QuadRing(d)
        for _ in range(50):
            p = rand_poly(rng, ring, min_deg=0, max_deg=5, bound=20)
            q = rand_poly(rng, ring, min_deg=0, max_deg=5, bound=20)
            assert conjugate_poly(p * q) == conjugate_poly(p) * conjugate_poly(q)


def test_norm_poly_of_linear_factors():
    x_minus_w = Poly((GAUSS.element(0, -1), GAUSS.one), GAUSS)
    assert norm_poly(x_minus_w) == Poly((1, 0, 1))
    wx_plus_one = Poly((GAUSS.one, GAUSS.omega), GAUSS)
    assert norm_poly(wx_plus_one) == Poly((1, 0, 1))


def test_norm_poly_of_zero_is_zero():
    assert norm_poly(Poly((), GAUSS)) == Poly(())


def test_norm_poly_needs_quadratic_coefficients():
    with pytest.raises(UnsupportedRingError):
        norm_poly(Poly((1, 2), ZZ))


def test_norm_poly_doubles_the_degree():
    rng = random.Random(2003)
    for d in TEST_QUAD_DS:
        ring = QuadRing(d)
        for _ in range(100):
            p = rand_poly(rng, ring, max_deg=8, bound=30)
            assert norm_poly(p).degree() == 2 * p.degree()


def test_norm_poly_matches_elementwise_norms():
    rng = random.Random(2004)
    for d in TEST_QUAD_DS:
        ring = QuadRing(d)
        for _ in range(100):
            p = rand_poly(rng, ring, min_deg=0, max_deg=6, bound=30)
            a = rng.randint(-30, 30)
            assert norm_poly(p).evaluate(a) == p.evaluate(a).norm()


def test_norm_poly_is_multiplicative():
    rng = random.Random(2005)
    for d in TEST_QUAD_DS:
        ring = QuadRing(d)
        for _ in range(100):
            p = rand_poly(rng, ring, min_deg=0, max_deg=5, bound=20)
            q = rand_poly(rng, ring, min_deg=0, max_deg=5, bound=20)
            assert norm_poly(p * q) == norm_poly(p) * norm_poly(q)


def test_norm_poly_checks_the_w_parts_of_the_product(monkeypatch):
    # With conjugation replaced by the identity, norm_poly(x + w) squares
    # x + w instead: x^2 + 2w*x - 1, whose x^1 coefficient keeps w-part 2.
    monkeypatch.setattr(norms, "_conjugate_pairs", lambda pairs, ring: pairs)
    with pytest.raises(VerificationError, match="x\\^1 kept w-part 2"):
        norm_poly(Poly((GAUSS.omega, GAUSS.one), GAUSS))


pairs_strategy = st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)), max_size=7)


def _outcome(fn, *args):
    """The result's repr, or the error's class and message."""
    try:
        return repr(fn(*args))
    except (DRingKitError, ZeroDivisionError) as exc:
        return f"raises {type(exc).__name__}: {exc}"


@settings(max_examples=200, deadline=None)
@given(
    ring=st.sampled_from(RECHECK_QUAD_RINGS),
    pairs=pairs_strategy,
    index=st.integers(0, 8),
    delta=st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
)
@example(ring=GAUSS, pairs=[(0, 1), (1, 0)], index=0, delta=(0, 2))
def test_norm_poly_matches_the_product_with_the_conjugate(ring, pairs, index, delta):
    # norm_poly takes the product on coordinate pairs; the whole-Poly form in
    # helpers multiplies by conjugate_poly(p). Both must give the same ints,
    # and with one conjugate coefficient off by delta the same w-part error.
    p = Poly([ring.element(a, b) for a, b in pairs], ring)
    norm = norm_poly(p)
    assert norm == norm_poly_reference(p)
    assert all(type(c) is int for c in norm.coeffs)
    conj = [(c.a, c.b) for c in conjugate_poly(p).coeffs]
    conj += [(0, 0)] * (index + 1 - len(conj))
    conj[index] = (conj[index][0] + delta[0], conj[index][1] + delta[1])
    conj_poly = Poly._trusted([QuadInt(a, b, ring) for a, b in conj], ring)
    with mock.patch.object(norms, "_conjugate_pairs", lambda pairs, ring: conj):
        corrupted = _outcome(norm_poly, p)
    assert corrupted == _outcome(norm_poly_reference, p, conj_poly)


@settings(max_examples=150, deadline=None)
@given(
    ring=st.sampled_from(RECHECK_QUAD_RINGS),
    f_pairs=pairs_strategy,
    g_pairs=pairs_strategy,
    samples=st.lists(st.integers(-8, 8), max_size=12),
)
def test_transfer_matches_the_report_from_poly_values(ring, f_pairs, g_pairs, samples):
    f = Poly([ring.element(a, b) for a, b in f_pairs], ring)
    g = Poly([ring.element(a, b) for a, b in g_pairs], ring)
    assert _outcome(norm_transfer_check, f, g, samples) == _outcome(
        norm_transfer_reference, f, g, samples
    )


# --- norm transfer ---------------------------------------------------------


def test_transfer_consistent_on_constructed_multiple():
    g = Poly((GAUSS.element(0, -1), GAUSS.one), GAUSS)  # x - w
    f = g * Poly((GAUSS.element(2, 0), GAUSS.one), GAUSS)  # (x - w)(x + 2)
    report = norm_transfer_check(f, g, range(1, 11))
    assert report.verdict == "CONSISTENT"
    assert all(s.status == "holds" for s in report.samples)
    assert [s.point for s in report.samples] == list(range(1, 11))


def test_transfer_of_a_polynomial_with_itself():
    f = Poly((GAUSS.element(3, 1), GAUSS.element(0, 2), GAUSS.one), GAUSS)
    report = norm_transfer_check(f, f, range(-5, 6))
    assert report.verdict == "CONSISTENT"
    assert all(s.status in ("holds", "vacuous") for s in report.samples)


def test_transfer_marks_non_dividing_samples_vacuous():
    f = Poly((GAUSS.zero, GAUSS.one), GAUSS)  # x
    g = Poly((GAUSS.element(0, -1), GAUSS.one), GAUSS)  # x - w
    report = norm_transfer_check(f, g, [1])
    (sample,) = report.samples
    assert sample.divisor_value == GAUSS.element(1, -1)
    assert sample.divisor_norm == 2
    assert sample.dividend_norm == 1
    assert sample.element_divides is False
    assert sample.status == "vacuous"
    assert report.verdict == "CONSISTENT"


def test_transfer_counts_divisor_zeros_as_vacuous():
    g = Poly((GAUSS.element(-2, 0), GAUSS.one), GAUSS)  # x - 2
    f = Poly((GAUSS.element(0, 0), GAUSS.one), GAUSS)
    report = norm_transfer_check(f, g, [2])
    (sample,) = report.samples
    assert sample.element_divides is None
    assert sample.status == "vacuous"


def test_transfer_rejects_mixed_rings_and_a_zero_divisor():
    f = Poly((GAUSS.one, GAUSS.one), GAUSS)
    eisen = QuadRing(-3)
    with pytest.raises(RingMismatchError):
        norm_transfer_check(f, Poly((eisen.one, eisen.one), eisen), [1])
    with pytest.raises(ZeroDivisionError):
        norm_transfer_check(f, Poly((), GAUSS), [1])


def test_transfer_randomized_multiples_never_violate():
    rng = random.Random(2006)
    for d in TEST_QUAD_DS:
        ring = QuadRing(d)
        for _ in range(30):
            g = rand_poly(rng, ring, max_deg=3, bound=8)
            f = g * rand_poly(rng, ring, min_deg=0, max_deg=3, bound=8)
            report = norm_transfer_check(f, g, range(-10, 11))
            assert report.verdict == "CONSISTENT"


def test_transfer_refuses_an_empty_sample_set():
    g = Poly((GAUSS.element(0, -1), GAUSS.one), GAUSS)  # x - w
    for samples in ([], range(0)):
        with pytest.raises(EmptySampleSetError, match="need at least one sample point"):
            norm_transfer_check(g, g, samples)


def test_transfer_sorts_and_deduplicates_the_samples():
    g = Poly((GAUSS.element(0, -1), GAUSS.one), GAUSS)  # x - w
    report = norm_transfer_check(g, g, [3, 1, 3, -2, 1])
    assert [s.point for s in report.samples] == [-2, 1, 3]


def test_transfer_refuses_float_samples():
    g = Poly((GAUSS.element(0, -1), GAUSS.one), GAUSS)
    with pytest.raises(TypeError, match="exact integer required, got float"):
        norm_transfer_check(g, g, [0.5, 1.9])
    with pytest.raises(TypeError, match="exact integer required, got float"):
        norm_transfer_check(g, g, [1, 2.0])
