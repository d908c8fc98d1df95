"""The list division kernel and the trusted constructor behind Poly arithmetic.

Division answers are checked bit for bit against independent oracles: sympy
over Z, and over Z[w] the allocating Poly loops and the QuadInt list loops
kept in helpers; certify verdicts over Z[w] are checked by sympy over
Q(sqrt d). The boundary tests pin down that validation still happens where
coefficients enter, and that every arithmetic result comes out normalised.
"""

import random
from itertools import zip_longest

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dringkit import (
    NORM_EUCLIDEAN_D,
    Poly,
    QuadRing,
    RingMismatchError,
    VerificationError,
    ZZ,
    certify_divisibility,
    exact_divide,
    is_primitive,
    pseudo_divide,
)
from dringkit import polynomials
from dringkit.cli import main
from helpers import (
    KERNEL_QUAD_DS,
    RECHECK_QUAD_RINGS,
    exact_divide_reference,
    identity_reference,
    oracle_exact_divide,
    oracle_pseudo_divide,
    product_reference,
    pseudo_divide_reference,
    rand_poly,
)

ORACLE_QUAD_DS = (-1, -3, 5, 2)

int_coeffs = st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=10)
small_int_coeffs = st.lists(st.integers(min_value=-30, max_value=30), max_size=8)


def quad_coeffs(max_size):
    pair = st.tuples(st.integers(-20, 20), st.integers(-20, 20))
    return st.lists(pair, max_size=max_size)


def quad_poly(pairs, ring):
    return Poly([ring.element(a, b) for a, b in pairs], ring)


def same_poly(p, q):
    """Equal coefficient by coefficient, each of the same type and coordinates."""
    if len(p.coeffs) != len(q.coeffs) or p.ring != q.ring:
        return False
    for c, d in zip(p.coeffs, q.coeffs):
        if type(c) is not type(d) or c != d:
            return False
        if p.ring != ZZ and (c.a, c.b) != (d.a, d.b):
            return False
    return True


def same_pseudo(result, oracle):
    return (
        result.multiplier == oracle.multiplier
        and result.s == oracle.s
        and same_poly(result.quotient, oracle.quotient)
        and same_poly(result.remainder, oracle.remainder)
    )


# --- over Z, against sympy ---------------------------------------------------


def to_sympy(p, sympy, x):
    return sympy.Poly(list(reversed(p.coeffs)) or [0], x, domain="ZZ")


def from_sympy(P):
    return Poly([int(c) for c in reversed(P.all_coeffs())])


@settings(max_examples=200, deadline=None)
@given(fc=int_coeffs, gc=int_coeffs)
def test_pseudo_divide_matches_sympy_over_z(fc, gc):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    f, g = Poly(fc), Poly(gc)
    assume(g)
    result = pseudo_divide(f, g)
    F, G = to_sympy(f, sympy, x), to_sympy(g, sympy, x)
    assert same_poly(result.quotient, from_sympy(F.pquo(G)))
    assert same_poly(result.remainder, from_sympy(F.prem(G)))
    assert result.multiplier == g.coeffs[-1] ** result.s


@settings(max_examples=200, deadline=None)
@given(gc=small_int_coeffs, qc=small_int_coeffs, rc=small_int_coeffs, exact=st.booleans())
def test_exact_divide_matches_sympy_over_z(gc, qc, rc, exact):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    g = Poly(gc)
    assume(g)
    f = g * Poly(qc) if exact else g * Poly(qc) + Poly(rc)
    quotient, remainder = sympy.div(to_sympy(f, sympy, x), to_sympy(g, sympy, x), domain="QQ")
    field_q = list(reversed(quotient.all_coeffs()))
    divides = remainder.is_zero and all(c.is_integer for c in field_q)
    result = exact_divide(f, g)
    assert (result is not None) == divides
    if divides:
        assert same_poly(result, Poly([int(c) for c in field_q]))


# --- over Z[w], against the allocating loops ----------------------------------


@settings(max_examples=200, deadline=None)
@given(d=st.sampled_from(ORACLE_QUAD_DS), fc=quad_coeffs(9), gc=quad_coeffs(5))
def test_pseudo_divide_matches_the_reference_loop_over_zw(d, fc, gc):
    ring = QuadRing(d)
    f, g = quad_poly(fc, ring), quad_poly(gc, ring)
    assume(g)
    assert same_pseudo(pseudo_divide(f, g), oracle_pseudo_divide(f, g))


@settings(max_examples=200, deadline=None)
@given(
    d=st.sampled_from(ORACLE_QUAD_DS),
    gc=quad_coeffs(5),
    qc=quad_coeffs(6),
    rc=quad_coeffs(6),
    exact=st.booleans(),
)
def test_exact_divide_matches_the_reference_loop_over_zw(d, gc, qc, rc, exact):
    ring = QuadRing(d)
    g = quad_poly(gc, ring)
    assume(g)
    f = g * quad_poly(qc, ring)
    if not exact:
        f = f + quad_poly(rc, ring)
    result, oracle = exact_divide(f, g), oracle_exact_divide(f, g)
    assert (result is None) == (oracle is None)
    if result is not None:
        assert same_poly(result, oracle)
        if exact:
            assert result == quad_poly(qc, ring)


# Over Z[w] both kernels run on integer coordinates; their QuadInt loops in
# helpers are the oracle, and must agree coordinate for coordinate.
KERNEL_RINGS = tuple(QuadRing(d) for d in KERNEL_QUAD_DS)
kernel_coords = st.just(0) | st.integers(-10**6, 10**6)


@st.composite
def kernel_poly(draw, ring, max_deg):
    """A polynomial over ring, zero or of degree up to max_deg."""
    size = draw(st.integers(0, max_deg + 1))
    pairs = draw(st.lists(st.tuples(kernel_coords, kernel_coords), min_size=size, max_size=size))
    return quad_poly(pairs, ring)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_pseudo_divide_matches_the_quadint_loop(data):
    ring = data.draw(st.sampled_from(KERNEL_RINGS), label="ring")
    f = data.draw(kernel_poly(ring, 40), label="f")
    g = data.draw(kernel_poly(ring, 40), label="g")
    assume(g)
    assert same_pseudo(pseudo_divide(f, g), pseudo_divide_reference(f, g))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), exact=st.booleans())
def test_exact_divide_matches_the_quadint_loop(data, exact):
    ring = data.draw(st.sampled_from(KERNEL_RINGS), label="ring")
    g = data.draw(kernel_poly(ring, 20), label="g")
    assume(g)
    q = data.draw(kernel_poly(ring, 20), label="q")
    f = g * q
    if not exact:
        f = f + data.draw(kernel_poly(ring, 40), label="r")
    result, oracle = exact_divide(f, g), exact_divide_reference(f, g)
    assert (result is None) == (oracle is None)
    if result is not None:
        assert same_poly(result, oracle)
    if exact:
        assert same_poly(result, q)


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
def test_exact_divide_checks_both_coordinates(ring):
    # lc(g) = 2 has conjugate 2 and norm 4: (2 + w)*2 has a-part 4, divisible
    # by 4, and b-part 2, which is not; with a constant divisor no leftover
    # coefficient is left to catch a quotient that only one part allowed.
    g = Poly.constant(2, ring)
    for f in (Poly.constant(ring.element(2, 1), ring), Poly.constant(ring.element(1, 2), ring)):
        assert exact_divide(f, g) is None
        assert exact_divide_reference(f, g) is None


CERTIFY_DS = tuple(d for d in KERNEL_QUAD_DS if d in NORM_EUCLIDEAN_D)


@settings(max_examples=100, deadline=None)
@given(
    d=st.sampled_from(CERTIFY_DS),
    gc=quad_coeffs(4),
    qc=quad_coeffs(4),
    rc=quad_coeffs(4),
    exact=st.booleans(),
)
def test_certify_verdict_matches_sympy_over_the_number_field(d, gc, qc, rc, exact):
    # For primitive g over a UFD, g | f in Z[w][x] exactly when g | f in
    # K[x], K = Q(sqrt d) (Gauss's lemma); sympy decides the latter.
    sympy = pytest.importorskip("sympy")
    ring = QuadRing(d)
    g = quad_poly(gc, ring)
    assume(g and g.degree() >= 1 and is_primitive(g))
    f = g * quad_poly(qc, ring)
    if not exact:
        f = f + quad_poly(rc, ring)
    field = sympy.QQ.algebraic_field(sympy.sqrt(d))
    root = field.from_sympy(sympy.sqrt(d))
    w = (field.one + root) / field(2) if d % 4 == 1 else root
    x = sympy.Symbol("x")

    def over_field(p):
        coeffs = [field(c.a) + field(c.b) * w for c in reversed(p.coeffs)]
        return sympy.Poly.from_list(coeffs or [field.zero], x, domain=field)

    divides = over_field(f).rem(over_field(g)).is_zero
    assert (certify_divisibility(f, g).verdict == "DIVIDES") == divides


def test_kernels_match_the_reference_loops_on_long_inputs():
    rng = random.Random(2024)
    for ring in (ZZ,) + tuple(QuadRing(d) for d in ORACLE_QUAD_DS):
        for _ in range(5):
            f = rand_poly(rng, ring, min_deg=20, max_deg=40, bound=1000)
            g = rand_poly(rng, ring, min_deg=1, max_deg=10, bound=1000)
            assert same_pseudo(pseudo_divide(f, g), oracle_pseudo_divide(f, g))
            assert same_poly(exact_divide(f * g, g), oracle_exact_divide(f * g, g))
            assert exact_divide(f * g + Poly((1,), ring), g) is None


# --- sparse dividends, large leading coefficients --------------------------------
#
# One elimination per ring serves both divisions; pseudo_divide runs it on
# lc(g)^s * f. A sparse c*x^N + e with N up to 600 makes s large and every
# step's leading term a high power of lc(g); a constant divisor divides every
# coefficient by lc(g). Checked against Algorithm R (the loop it replaced),
# the monomial-step oracle and, over Z, sympy's prem.

Q73, Q_5 = QuadRing(73), QuadRing(-5)
SPARSE_RINGS = (ZZ, QuadRing(-1), Q73, Q_5)


def _wide_int(draw):
    """A nonzero int of 16 to 64 bits, either sign."""
    bits = draw(st.integers(16, 64))
    return draw(st.sampled_from((1, -1))) * draw(st.integers(2 ** (bits - 1), 2**bits - 1))


@st.composite
def sparse_pairs(draw):
    ring = draw(st.sampled_from(SPARSE_RINGS))

    def small():
        c = draw(st.integers(-50, 50))
        return c if ring == ZZ else ring.element(c, draw(st.integers(-50, 50)))

    n = draw(st.integers(0, 3))
    lead = _wide_int(draw) if ring == ZZ else ring.element(_wide_int(draw), _wide_int(draw))
    g = Poly([small() for _ in range(n)] + [lead], ring)
    shape = draw(st.sampled_from(("sparse", "zero", "lower")))
    if shape == "zero" or (shape == "lower" and n == 0):
        f = Poly.zero(ring)
    elif shape == "lower":
        f = Poly([small() for _ in range(draw(st.integers(1, n)))], ring)
    else:
        power = draw(st.integers(0, 600))
        f = Poly((0,) * power + (small() or 1,), ring) + Poly.constant(small(), ring)
    return f, g


@settings(max_examples=40, deadline=None)
@given(pair=sparse_pairs())
@example(pair=(Poly((0,) * 600 + (7,), ZZ) + Poly((1,), ZZ), Poly.constant(2**63 + 1)))
@example(pair=(Poly.zero(Q_5), Poly.constant(Q_5.element(65537, -3), Q_5)))
@example(pair=(Poly((1, 2), Q73), Poly((1, 0, 0, Q73.element(2**40, 7)), Q73)))
def test_sparse_dividends_match_algorithm_r_and_the_oracles(pair):
    f, g = pair
    result = pseudo_divide(f, g)
    assert same_pseudo(result, pseudo_divide_reference(f, g))
    assert same_pseudo(result, oracle_pseudo_divide(f, g))
    if f.ring == ZZ:
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        prem = to_sympy(f, sympy, x).prem(to_sympy(g, sympy, x))
        assert same_poly(result.remainder, from_sympy(prem))
    quotient, oracle = exact_divide(f, g), oracle_exact_divide(f, g)
    assert (quotient is None) == (oracle is None)
    if quotient is not None:
        assert same_poly(quotient, oracle)


# --- inputs the main loops answer without a special case ------------------------

TRIVIAL_RINGS = (ZZ,) + tuple(QuadRing(d) for d in ORACLE_QUAD_DS)


@pytest.mark.parametrize("ring", TRIVIAL_RINGS, ids=str)
def test_short_dividends_run_through_the_division_loops(ring):
    # A zero dividend, or one of lower degree than the divisor, leaves s = 0:
    # an empty loop, multiplier 1, quotient 0 and remainder f, re-checked.
    rng = random.Random(13)
    for g in (Poly.constant(3, ring), rand_poly(rng, ring, min_deg=3, max_deg=3)):
        for f in (Poly.zero(ring), *(rand_poly(rng, ring, d, d) for d in range(g.degree()))):
            result = pseudo_divide(f, g)
            assert same_pseudo(result, oracle_pseudo_divide(f, g))
            assert result.multiplier == ring.one and result.s == 0
            assert same_poly(result.remainder, f) and not result.quotient
            quotient, oracle = exact_divide(f, g), oracle_exact_divide(f, g)
            assert (quotient is None) == (oracle is None) == bool(f)
            assert quotient is None or same_poly(quotient, oracle)


@pytest.mark.parametrize("ring", TRIVIAL_RINGS, ids=str)
def test_empty_operands_of_product_and_difference(ring):
    zero = Poly.zero(ring)
    p = rand_poly(random.Random(17), ring, min_deg=2, max_deg=5)
    for f, g in ((zero, p), (p, zero), (zero, zero)):
        assert same_poly(f * g, product_reference(f, g))
        pairs = zip_longest(f.coeffs, g.coeffs, fillvalue=ring.zero)
        assert same_poly(f + g * -1, Poly([c + d * -1 for c, d in pairs], ring))


@pytest.mark.parametrize("ring", TRIVIAL_RINGS, ids=str)
def test_short_pseudo_division_is_re_checked(ring, monkeypatch):
    # Every pseudo-division re-checks lc(g)^s * f == g*q + r, also at s = 0;
    # a remainder off by one in one coordinate (the w-part over Z[w]) from the
    # elimination kernel must surface as VerificationError, not a silent answer.
    name = "_int_divide" if ring == ZZ else "_quad_divide"
    divide = getattr(polynomials, name)

    def off_by_one(*args):
        *out, last = divide(*args)
        last[0] += 1
        return (*out, last)

    monkeypatch.setattr(polynomials, name, off_by_one)
    g = Poly((1, 0, 1), ring)
    for f in (Poly.x(ring), Poly((0, 0, 0, 3), ring)):  # s = 0, then s = 2
        with pytest.raises(VerificationError, match="pseudo-division identity failed"):
            pseudo_divide(f, g)


@pytest.mark.parametrize("ring", TRIVIAL_RINGS, ids=str)
def test_an_inexact_pseudo_division_step_is_an_error(ring, monkeypatch, capsys):
    # Every step on lc(g)^s * f is exact; a kernel that reports otherwise
    # raises VerificationError, with no partial answer, and the CLI exits 2.
    name = "_int_divide" if ring == ZZ else "_quad_divide"
    monkeypatch.setattr(polynomials, name, lambda *args: None)
    with pytest.raises(VerificationError, match="pseudo-division step was not exact"):
        pseudo_divide(Poly((0, 0, 0, 3), ring), Poly((1, 0, 2), ring))
    code = main(["pseudodiv", "3x^3", "2x^2+1", "--ring", str(ring), "--json"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: pseudo-division step was not exact\n"


# --- the re-checked identity -----------------------------------------------------
#
# pseudo_divide and certify_divisibility decide multiplier*f == g*q + r with
# polynomials._identity_holds, on integer coordinates over Z[w]. Against the
# whole-Poly form in helpers, on true identities and on ones whose quotient or
# remainder is off by a drawn delta at a drawn index, also past its end.


def _poly(pairs, ring) -> Poly:
    """quad_poly, or over Z the polynomial of the first coordinates."""
    return Poly([a for a, _ in pairs]) if ring == ZZ else quad_poly(pairs, ring)


def _shifted(p: Poly, index: int, delta) -> Poly:
    """p with delta added to its coefficient of x**index."""
    coeffs = list(p.coeffs) + [p.ring.zero] * (index + 1 - len(p.coeffs))
    coeffs[index] = coeffs[index] + delta
    return Poly(coeffs, p.ring)


@settings(max_examples=200, deadline=None)
@given(
    ring=st.sampled_from((ZZ,) + RECHECK_QUAD_RINGS),
    fc=quad_coeffs(9),
    gc=quad_coeffs(5),
    corrupt=st.sampled_from(("nothing", "quotient", "remainder")),
    index=st.integers(0, 9),
    delta=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
)
@example(ring=QuadRing(-5), fc=[], gc=[(0, 2)], corrupt="remainder", index=3, delta=(0, 1))
@example(ring=QuadRing(73), fc=[(1, 1)], gc=[(1, 0), (2, 3)], corrupt="quotient", index=0, delta=(0, 1))
def test_the_coordinate_identity_matches_the_poly_identity(ring, fc, gc, corrupt, index, delta):
    f, g = _poly(fc, ring), _poly(gc, ring)
    assume(g)
    delta = delta[0] if ring == ZZ else ring.element(*delta)
    result = pseudo_divide_reference(f, g)
    m, q, r = result.multiplier, result.quotient, result.remainder
    if corrupt == "quotient":
        q = _shifted(q, index, delta)
    elif corrupt == "remainder":
        r = _shifted(r, index, delta)
    holds = polynomials._identity_holds(f, g, q, r, m)
    assert holds is identity_reference(f, g, q, r, m)
    assert holds is (corrupt == "nothing" or not delta)
    # certify_divisibility's form: f == g*q, with no multiplier or remainder.
    h = g * _poly(fc, ring)
    wrong = _shifted(_poly(fc, ring), index, delta)
    holds = polynomials._identity_holds(h, g, wrong)
    assert holds is identity_reference(h, g, wrong)
    assert holds is (not delta)


# --- validation at the boundary ------------------------------------------------


GAUSS = QuadRing(-1)


def test_constructor_rejects_a_float_coefficient():
    with pytest.raises(TypeError):
        Poly((1.5,))


def test_constructor_rejects_a_quadratic_coefficient_over_z():
    with pytest.raises(RingMismatchError):
        Poly((1, GAUSS.element(0, 1)), ZZ)


def test_scalar_product_rejects_a_float():
    with pytest.raises(TypeError):
        Poly((1, 2)) * 1.5


@pytest.mark.parametrize(
    "combine",
    [lambda p, q: p + q, lambda p, q: p + q * -1, lambda p, q: p * q, pseudo_divide, exact_divide],
)
def test_mixing_rings_raises(combine):
    with pytest.raises(RingMismatchError):
        combine(Poly((1, 1), ZZ), Poly((1, 1), GAUSS))


# --- normalised results ---------------------------------------------------------


@pytest.mark.parametrize("ring", [ZZ, GAUSS, QuadRing(5)])
def test_difference_with_itself_is_the_zero_polynomial(ring):
    p = rand_poly(random.Random(7), ring)
    zero = p + p * -1
    assert zero.coeffs == ()
    assert zero.degree() is None
    assert zero == Poly.zero(ring)
    assert hash(zero) == hash(Poly.zero(ring))
    assert (p * -1 + p).coeffs == ()


@pytest.mark.parametrize("ring", [ZZ, GAUSS, QuadRing(-3), QuadRing(2)])
def test_products_equal_their_validated_rebuild(ring):
    rng = random.Random(11)
    for _ in range(50):
        p = rand_poly(rng, ring, min_deg=0, max_deg=6)
        q = rand_poly(rng, ring, min_deg=0, max_deg=6)
        for result in (p * q, p + q, p + q * -1, p * 3):
            rebuilt = Poly(list(result.coeffs), ring)
            assert result == rebuilt
            assert hash(result) == hash(rebuilt)
            assert not result.coeffs or result.coeffs[-1]
