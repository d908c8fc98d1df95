"""Pointwise checks, certification, prime searches, and the demos."""

import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dringkit import (
    ChebPair,
    ConstantDivisorError,
    ConstantPolynomialError,
    DRingKitError,
    EmptySampleSetError,
    NotPrimitiveError,
    Poly,
    QuadRing,
    UnsupportedRingError,
    VerificationError,
    ZZ,
    certify_divisibility,
    cheb_certify,
    cheb_generate,
    eval_divisibility,
    parse_poly,
    primes_up_to,
    sf_search,
    witness_scan_order,
    zw_unit_demo,
)
from dringkit import lab
from helpers import (
    brute_is_prime,
    certify_reference,
    cheb_pairs_reference,
    eval_divisibility_reference,
    rand_nonzero_coeff,
    rand_poly,
)

FERMAT_F = parse_poly("x^5 - x")
FIVE = parse_poly("5")


# --- eval_divisibility ------------------------------------------------------


def test_fermat_values_all_divide():
    report = eval_divisibility(FERMAT_F, FIVE, range(-100, 101))
    assert report.verdict == "ALL_DIVIDE"
    assert report.checked == 201
    assert report.vacuous == 0
    assert not report.failures


def test_self_division_is_vacuous_at_roots():
    x = Poly((0, 1))
    report = eval_divisibility(x, x, range(-3, 4))
    assert report.verdict == "ALL_DIVIDE"
    assert report.vacuous == 1  # only k = 0


def test_failure_report_carries_the_values():
    report = eval_divisibility(Poly((1, 1)), Poly((2,)), [0, 1])
    assert report.verdict == "FAILED"
    assert report.failures == ((0, 2, 1),)
    assert report.checked == 2
    assert report.vacuous == 0
    assert report.divisible == 1


def test_eval_divisibility_over_quadratic_ring():
    ring = QuadRing(-1)
    g = Poly((ring.element(0, -1), ring.one), ring)  # x - w
    f = g * Poly((ring.element(5, 2), ring.one), ring)
    report = eval_divisibility(f, g, range(-10, 11))
    assert report.verdict == "ALL_DIVIDE"


def test_eval_divisibility_accepts_quadratic_sample_points():
    ring = QuadRing(-1)
    g = Poly((ring.element(0, -1), ring.one), ring)  # x - w
    f = g * Poly((ring.element(5, 2), ring.one), ring)
    samples = [ring.omega, ring.element(1, 1), ring.element(-2, 3)]
    report = eval_divisibility(f, g, samples)
    assert report.verdict == "ALL_DIVIDE"
    assert report.vacuous == 1  # g vanishes at w


def test_eval_divisibility_rejects_bad_inputs():
    with pytest.raises(ZeroDivisionError):
        eval_divisibility(Poly((1,)), Poly(()), [1])
    with pytest.raises(EmptySampleSetError):
        eval_divisibility(Poly((1,)), Poly((1, 1)), [])


# eval_divisibility takes its values from Poly.values, which pairs k with -k;
# helpers.eval_divisibility_reference evaluates g and f point by point.
@pytest.mark.parametrize("d", [None, -1, -3, 5, 73], ids=lambda d: "Z" if d is None else f"d={d}")
def test_eval_divisibility_matches_the_per_point_loop(d):
    ring = ZZ if d is None else QuadRing(d)
    rng = random.Random(f"eval_divisibility {d}")
    seen = {"vacuous": 0, "failures": 0, "duplicates": 0}
    for _ in range(60):
        roots = [rng.randint(-6, 6) for _ in range(rng.randint(0, 2))]
        g = rand_poly(rng, ring, 0, 3, bound=5)
        for r in roots:
            g = g * Poly((-r, 1), ring)
        q = rand_poly(rng, ring, 0, 4, bound=5)
        f = rng.choice((
            g * q,
            g * q + Poly.constant(rand_nonzero_coeff(rng, ring, 3), ring),
            rand_poly(rng, ring, 0, 8),
        ))
        m = rng.choice((3, 8, 20))
        samples = list(range(rng.choice((-m, 0, m // 2)), m + 1))
        samples += roots + rng.choices(range(-m, m + 1), k=5)
        if ring != ZZ:
            samples += [ring.element(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)]
        rng.shuffle(samples)
        report = eval_divisibility(f, g, samples)
        assert report == eval_divisibility_reference(f, g, samples)
        seen["vacuous"] += report.vacuous > 0
        seen["failures"] += bool(report.failures)
        seen["duplicates"] += len(set(samples)) < len(samples)
    assert all(seen.values()), seen


@pytest.mark.parametrize("samples", [[2, 2.0], [2.0, 2]], ids=["int-first", "float-first"])
def test_a_float_sample_is_refused_next_to_an_equal_int(samples):
    with pytest.raises(TypeError, match="exact integer required, got float"):
        eval_divisibility(FERMAT_F, FIVE, samples)
    ring = QuadRing(-1)
    with pytest.raises(TypeError, match="cannot interpret float"):
        eval_divisibility(Poly((1, 1), ring), Poly((1,), ring), samples)


# --- certify_divisibility ---------------------------------------------------


def test_certify_divides_with_verified_quotient():
    g = parse_poly("3x + 2")
    q = parse_poly("x^3 - 7")
    cert = certify_divisibility(g * q, g)
    assert cert.verdict == "DIVIDES"
    assert cert.quotient == q
    assert cert.witness is None


def test_certify_finds_the_smallest_witness_in_scan_order():
    # k = 0 and k = 1 divide, k = -1 is a zero of g, so the witness is 2
    cert = certify_divisibility(parse_poly("x^2 + 1"), parse_poly("x + 1"), 10)
    assert cert.verdict == "NOT_DIVIDES"
    assert cert.quotient is None
    assert cert.witness == 2


def test_certify_rejects_constant_or_imprimitive_divisors():
    with pytest.raises(ConstantDivisorError):
        certify_divisibility(FERMAT_F, FIVE)
    with pytest.raises(NotPrimitiveError):
        certify_divisibility(parse_poly("2x^2 + 2"), parse_poly("2x + 2"))
    with pytest.raises(ZeroDivisionError):
        certify_divisibility(FERMAT_F, Poly(()))


def test_certify_rejects_a_negative_search_bound():
    for f in (parse_poly("x + 60"), parse_poly("x^2")):  # not divisible, divisible
        with pytest.raises(ValueError, match="must not be negative"):
            certify_divisibility(f, parse_poly("x"), search_bound=-1)


def test_witness_scan_order_spirals_outward():
    assert list(witness_scan_order(3)) == [0, 1, -1, 2, -2, 3, -3]


def test_certify_may_exhaust_a_tiny_bound():
    # x(x+1)(x+2)(x+3)(x+4)(x+5) + 60060 is divisible by 60060? No:
    # just pick an instance where small points all divide.
    f = parse_poly("x^2 + x")  # f(k) always even
    g = parse_poly("x + 4")
    # g(k) | f(k) fails somewhere, but maybe not within bound 0..0: bound=0
    cert = certify_divisibility(f, g, search_bound=0)
    assert cert.verdict == "NOT_DIVIDES"
    assert cert.witness is None  # g(0) = 4 divides f(0) = 0; scan stops at 0


def test_a_constant_term_that_does_not_divide_is_the_witness_before_any_division(monkeypatch):
    def no_division(f, g):
        raise AssertionError("exact_divide ran")

    monkeypatch.setattr(lab, "exact_divide", no_division)
    cert = certify_divisibility(parse_poly("x^2 + 3"), parse_poly("x + 2"))
    assert cert == lab.DivisibilityCertificate("NOT_DIVIDES", None, 0)


# The reference divides first and scans from k = 0 only when the division
# fails; the library compares the constant terms first. Both must give the
# same certificate, or raise the same error, on divisors with g(0) = 0, on
# zero and lower-degree dividends, on multiples and on near-multiples, with
# search bounds down to 0.
CERTIFY_RINGS = (ZZ, QuadRing(-1), QuadRing(-3), QuadRing(5), QuadRing(73))


def _certify_outcome(certify, f, g, bound):
    try:
        return certify(f, g, bound)
    except (ArithmeticError, ValueError, DRingKitError) as exc:
        return type(exc), str(exc)


@st.composite
def certify_cases(draw, ring):
    def poly(min_size, max_size, bound=6):
        coord = st.integers(-bound, bound)
        if ring == ZZ:
            return draw(st.lists(coord, min_size=min_size, max_size=max_size))
        pairs = draw(st.lists(st.tuples(coord, coord), min_size=min_size, max_size=max_size))
        return [ring.element(a, b) for a, b in pairs]

    g = poly(2, 4)
    if not g[-1] or draw(st.booleans()):
        g[-1] = ring.one  # a monic divisor is primitive
    if draw(st.booleans()):
        g[0] = ring.zero
    g = Poly(g, ring)
    shape = draw(st.sampled_from(["zero", "lower", "multiple", "near", "any"]))
    if shape == "zero":
        f = Poly((), ring)
    elif shape == "lower":
        f = Poly(poly(0, g.degree()), ring)
    elif shape == "any":
        f = Poly(poly(0, 8, 40), ring)
    else:
        f = g * Poly(poly(1, 4), ring)
        if shape == "near":
            f = f + Poly(poly(1, g.degree(), 40), ring)
    return f, g, draw(st.sampled_from([0, 0, 1, 2, 5, 30]))


@pytest.mark.parametrize("ring", CERTIFY_RINGS, ids=str)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_certificates_match_dividing_before_the_scan(ring, data):
    f, g, bound = data.draw(certify_cases(ring))
    expected = _certify_outcome(certify_reference, f, g, bound)
    assert _certify_outcome(certify_divisibility, f, g, bound) == expected


# --- prime solvability search ------------------------------------------------


def test_sf_search_for_sums_of_two_squares_pattern():
    records = sf_search(parse_poly("x^2 + 1"), 30)
    assert [(r.prime, r.root) for r in records] == [
        (2, 1), (5, 2), (13, 5), (17, 4), (29, 12),
    ]


def test_sf_search_for_x_alone():
    records = sf_search(parse_poly("x"), 10)
    assert [(r.prime, r.root) for r in records] == [(2, 0), (3, 0), (5, 0), (7, 0)]


def test_sf_search_for_x_squared_minus_two():
    records = sf_search(parse_poly("x^2 - 2"), 20)
    assert [(r.prime, r.root) for r in records] == [(2, 0), (7, 3), (17, 6)]


def test_sf_search_rejects_constants():
    with pytest.raises(ConstantPolynomialError):
        sf_search(FIVE, 100)
    with pytest.raises(ValueError):
        sf_search(parse_poly("x^2 + 1"), 1)


def test_sf_search_rejects_quadratic_coefficients():
    with pytest.raises(UnsupportedRingError):
        sf_search(parse_poly("x^2 + 1", QuadRing(-1)), 100)


def test_sf_search_nonempty_once_limit_is_large_enough():
    rng = random.Random(3003)
    for _ in range(30):
        f = Poly([rng.randint(-50, 50) for _ in range(rng.randint(1, 5))] + [rng.randint(1, 50)])
        limit = 100
        while limit <= 10**5:
            if sf_search(f, limit):
                break
            limit *= 2
        else:
            pytest.fail(f"no prime admitted a root of {f} below 10^5")


def test_primes_up_to_matches_trial_division():
    sieved = primes_up_to(500)
    assert sieved == [n for n in range(501) if brute_is_prime(n)]
    assert primes_up_to(1) == []


def test_primes_up_to_matches_a_plain_sieve_at_every_limit():
    composite = bytearray(3001)
    plain = []
    for limit in range(3001):
        if limit >= 2 and not composite[limit]:
            plain.append(limit)
            for m in range(limit * limit, 3001, limit):
                composite[m] = 1
        assert primes_up_to(limit) == plain, limit
    assert len(primes_up_to(10**6)) == 78498


# --- Z[W] unit demo ----------------------------------------------------------


def test_zw_unit_demo_small_run_has_no_failures():
    report = zw_unit_demo(500, seed=99)
    assert report.trials == 500
    assert report.passes == 500
    assert report.all_units
    assert report.seed == 99


def test_zw_unit_demo_is_deterministic_per_seed():
    assert zw_unit_demo(50, seed=7) == zw_unit_demo(50, seed=7)


def test_zw_unit_demo_rejects_nonpositive_trials():
    with pytest.raises(ValueError):
        zw_unit_demo(0)


def test_zw_unit_demo_stores_plain_ints():
    report = zw_unit_demo(True, True)
    assert type(report.trials) is int and type(report.seed) is int
    assert report == zw_unit_demo(1, 1)


def test_cheb_certify_stores_plain_ints():
    report = cheb_certify(True)
    assert type(report.n) is int
    assert report == cheb_certify(1)


def test_eval_divisibility_stores_plain_int_points():
    f, g = Poly((1, 1, 1)), Poly((1, 1))
    report = eval_divisibility(f, g, [True, 2])
    assert report.failures == ((1, 2, 3), (2, 3, 7))
    assert [type(k) for k, _, _ in report.failures] == [int, int]
    assert report == eval_divisibility(f, g, [1, 2])
    # over Z[w] an int point stays an int, and an element stays an element
    ring = QuadRing(-1)
    i = ring.element(0, 1)
    report = eval_divisibility(Poly((1, 1, 1), ring), Poly((1, 1), ring), [True, i])
    assert [type(k) for k, _, _ in report.failures] == [int, type(i)]


def test_zw_unit_demo_refuses_a_float_seed():
    with pytest.raises(TypeError, match="exact integer required, got float"):
        zw_unit_demo(3, seed=1.5)


# --- Chebyshev pairs ----------------------------------------------------------


def test_cheb_generate_first_pairs():
    pairs = cheb_generate(4)
    assert pairs[0].p == Poly((1,))
    assert pairs[0].q == Poly(())
    assert pairs[1].p == Poly((0, 1))
    assert pairs[1].q == Poly((1,))
    assert pairs[4].p == Poly((1, 0, -8, 0, 8))
    assert pairs[4].q == Poly((0, -4, 0, 8))


def test_cheb_generate_satisfies_the_recurrences():
    pairs = cheb_generate(60)
    two_x = Poly((0, 2))
    for n in range(1, 60):
        assert pairs[n + 1].p == two_x * pairs[n].p + pairs[n - 1].p * -1
        assert pairs[n + 1].q == two_x * pairs[n].q + pairs[n - 1].q * -1


def test_cheb_generate_matches_the_recurrence_up_to_400():
    for pair, reference in zip(cheb_generate(400), cheb_pairs_reference(400), strict=True):
        assert pair.n == reference.n
        assert pair.p.coeffs == reference.p.coeffs
        assert pair.q.coeffs == reference.q.coeffs


@pytest.mark.parametrize("n", [1, 2, 17, 160, 999, 1000])
def test_cheb_pair_matches_sympy(n):
    sympy = pytest.importorskip("sympy")
    pair = lab._cheb_pair(n)
    t = sympy.chebyshevt_poly(n, polys=True).all_coeffs()
    u = sympy.chebyshevu_poly(n - 1, polys=True).all_coeffs()
    assert pair.p.coeffs == tuple(int(c) for c in reversed(t))
    assert pair.q.coeffs == tuple(int(c) for c in reversed(u))


def test_cheb_generate_rejects_negative_index():
    with pytest.raises(ValueError):
        cheb_generate(-1)


def test_cheb_p_polynomials_have_unit_content_up_to_64():
    from dringkit import content

    pairs = cheb_generate(64)
    for pair in pairs[1:]:
        assert content(pair.p) == 1


def test_cheb_certify_small_indices():
    report = cheb_certify(1, range(-10, 11))
    assert report.passed
    assert report.certificate.quotient == Poly((2,))

    report = cheb_certify(3, range(-10, 11))
    assert report.passed
    # q_6 / p_3 = 8x^2 - 2, checked by expansion
    assert report.certificate.quotient == Poly((-2, 0, 8))

    report = cheb_certify(4, range(-10, 11))
    assert report.passed
    assert report.evaluation.verdict == "ALL_DIVIDE"
    assert report.certificate.verdict == "DIVIDES"


def test_cheb_certify_rejects_index_zero():
    with pytest.raises(ValueError):
        cheb_certify(0)


def test_cheb_certify_refuses_a_float_next_to_an_equal_int():
    with pytest.raises(TypeError, match="exact integer required, got float"):
        cheb_certify(3, [1, 1.0])


def test_cheb_certificate_matches_the_certified_long_division():
    # The slow path: exact_divide of q_2n by p_n, re-expanded, in
    # certify_divisibility, on pairs built by the coupled recurrences.
    pairs = list(cheb_pairs_reference(160))
    for n in range(1, 81):
        certificate = cheb_certify(n, range(-2, 3)).certificate
        assert certificate == certify_divisibility(pairs[2 * n].q, pairs[n].p), n


def test_a_wrong_named_quotient_fails_re_expansion(monkeypatch):
    built = lab._cheb_pair

    def off_by_one(n):
        pair = built(n)
        return ChebPair(n, pair.p, pair.q + Poly((1,)))

    monkeypatch.setattr(lab, "_cheb_pair", off_by_one)
    with pytest.raises(VerificationError, match="certified quotient failed re-expansion"):
        cheb_certify(5)


def test_cheb_certify_holds_only_the_pairs_it_uses():
    # Keeping every pair up to 2n took 6.7 MB at n = 200 (about n^3 growth)
    tracemalloc.start()
    try:
        report = cheb_certify(200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 2_000_000, f"peak {peak} bytes"


@pytest.mark.parametrize("run, degrees", [
    (lambda: cheb_generate(7), [1, 2, 3, 4, 5, 6, 7]),
    # only p_5 is built, and checked once: the certificate's quotient is named
    (lambda: cheb_certify(5, range(-3, 4)), [5]),
], ids=["cheb_generate", "cheb_certify"])
def test_every_p_n_is_checked_for_primitivity(monkeypatch, run, degrees):
    original = lab.is_primitive
    seen = []

    def recording(p):
        seen.append(p.degree())
        return original(p)

    monkeypatch.setattr(lab, "is_primitive", recording)
    run()
    assert seen == degrees


def test_a_p_n_that_lost_primitivity_is_reported(monkeypatch):
    monkeypatch.setattr(lab, "is_primitive", lambda p: p.degree() != 3)
    with pytest.raises(VerificationError, match="p_3 lost primitivity"):
        cheb_certify(3)
    with pytest.raises(VerificationError, match="p_3 lost primitivity"):
        cheb_generate(5)


@pytest.mark.parametrize("run", [
    lambda: cheb_generate(2.0),
    lambda: cheb_certify(2.0),
    lambda: certify_divisibility(parse_poly("x^2 - 1"), parse_poly("x - 1"), search_bound=2.5),
    lambda: certify_divisibility(parse_poly("x^2"), parse_poly("x - 1"), search_bound=2.5),
    lambda: sf_search(parse_poly("x^2 + 1"), 10.5),
    lambda: zw_unit_demo(2.0),
], ids=["cheb_generate", "cheb_certify", "certify-divides", "certify-not-divides", "sf_search",
        "zw_unit_demo"])
def test_lab_entry_points_refuse_a_float_before_any_work(monkeypatch, run):
    for name in ("_cheb_pair", "_cheb_u", "exact_divide", "primes_up_to", "WRational"):
        monkeypatch.setattr(lab, name, None)  # must not be reached
    with pytest.raises(TypeError, match="exact integer required, got float"):
        run()


# --- self-checks ----------------------------------------------------------------
#
# Each answer is re-verified by a check that raises VerificationError, so the
# check also runs under `python -O`, which strips assert statements.


def test_sf_search_rejects_a_root_that_fails_the_exact_recheck(monkeypatch):
    monkeypatch.setattr(lab, "_least_roots_by_scan", lambda coeffs, primes: {p: 1 for p in primes})
    with pytest.raises(VerificationError, match="exact recheck"):
        sf_search(parse_poly("x^2 + 1"), 7)


def test_sf_search_rechecks_the_roots_found_one_prime_at_a_time(monkeypatch):
    # 16411 is the least prime above the scan's threshold of 2^14
    monkeypatch.setattr(lab, "_least_root_mod", lambda coeffs, p: 1)
    with pytest.raises(VerificationError, match="exact recheck at p = 16411"):
        sf_search(parse_poly("x^2 + 1"), 16411)


def test_sf_search_scans_only_the_primes_up_to_the_threshold(monkeypatch):
    # The scan's cost is quadratic in its largest prime, so the primes above
    # 2^14 must go one at a time through F_p[x], up to any limit.
    scanned, one_at_a_time = [], []
    scan, least_root_mod = lab._least_roots_by_scan, lab._least_root_mod

    def spy_scan(coeffs, primes):
        scanned.extend(primes)
        return scan(coeffs, primes)

    def spy_least_root_mod(coeffs, p):
        one_at_a_time.append(p)
        return least_root_mod(coeffs, p)

    monkeypatch.setattr(lab, "_least_roots_by_scan", spy_scan)
    monkeypatch.setattr(lab, "_least_root_mod", spy_least_root_mod)
    sf_search(parse_poly("x^2 + 1"), 20000)
    primes = primes_up_to(20000)
    assert scanned == [p for p in primes if p <= 2**14]
    assert one_at_a_time == [p for p in primes if p > 2**14]


def test_certify_rejects_a_quotient_that_fails_re_expansion(monkeypatch):
    monkeypatch.setattr(lab, "exact_divide", lambda f, g: f)
    with pytest.raises(VerificationError, match="re-expansion"):
        certify_divisibility(parse_poly("x^2 - 1"), parse_poly("x - 1"))


def test_certify_rejects_a_quotient_that_fails_re_expansion_over_z_w(monkeypatch):
    # A quotient off by one in the w-part of one coefficient must fail the
    # coordinate re-expansion, not be certified.
    ring = QuadRing(-1)
    g = Poly((ring.element(0, -1), 1), ring)  # x - w
    q = Poly((2, ring.element(3, 1), 1), ring)
    wrong = Poly((2, ring.element(3, 2), 1), ring)
    assert certify_divisibility(g * q, g).quotient == q
    monkeypatch.setattr(lab, "exact_divide", lambda f, g: wrong)
    with pytest.raises(VerificationError, match="re-expansion"):
        certify_divisibility(g * q, g)


def test_the_root_recheck_survives_python_dash_o():
    code = (
        "import dringkit.lab as lab\n"
        "from dringkit import VerificationError, parse_poly\n"
        "assert False, 'assert statements must be stripped here'\n"
        "lab._least_roots_by_scan = lambda coeffs, primes: {p: 1 for p in primes}\n"
        "try:\n"
        "    lab.sf_search(parse_poly('x^2 + 1'), 7)\n"
        "except VerificationError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    assert subprocess.run([sys.executable, "-O", "-c", code]).returncode == 0
