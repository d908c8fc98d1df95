"""Full verification gates for the toolkit, one test per gate.

Each gate prints a PASS/FAIL line (visible with pytest -s); the randomized
gates run on fixed seeds with zero tolerance unless the gate itself states a
probabilistic threshold. Reference coefficient tables are frozen here and
cross-checked against independent, brute-force oracles computed in this file.
"""

import math
import random
import time
from contextlib import contextmanager

import pytest

from dringkit import (
    NORM_EUCLIDEAN_D,
    NotPrimitiveError,
    Poly,
    QuadRing,
    UnsupportedRingError,
    ZZ,
    certify_divisibility,
    cheb_certify,
    cheb_generate,
    content,
    eval_divisibility,
    exact_divide,
    field_divide,
    is_primitive,
    norm_poly,
    norm_transfer_check,
    parse_poly,
    pseudo_divide,
    quad_gcd,
    sf_search,
    zw_unit_demo,
)
from helpers import TEST_QUAD_DS, brute_is_prime, rand_poly, rand_primitive

# Quadratic rings for the round-trip and witness gates: two imaginary, two real.
GATE_QUAD_DS = (-1, -3, 2, 5)


@contextmanager
def gate(number: int, label: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[gate {number:02d}] FAIL {label}")
        raise
    elapsed = time.perf_counter() - started
    print(f"[gate {number:02d}] PASS {label} ({elapsed:.2f}s)")


# Coupled-recurrence pairs for n = 0..8, frozen coefficient-for-coefficient
# (ascending powers), and re-derivable by hand from
# p_{n+1} = 2x p_n - p_{n-1}, q_{n+1} = 2x q_n - q_{n-1}.
REFERENCE_PAIRS = {
    0: ((1,), ()),
    1: ((0, 1), (1,)),
    2: ((-1, 0, 2), (0, 2)),
    3: ((0, -3, 0, 4), (-1, 0, 4)),
    4: ((1, 0, -8, 0, 8), (0, -4, 0, 8)),
    5: ((0, 5, 0, -20, 0, 16), (1, 0, -12, 0, 16)),
    6: ((-1, 0, 18, 0, -48, 0, 32), (0, 6, 0, -32, 0, 32)),
    7: ((0, -7, 0, 56, 0, -112, 0, 64), (-1, 0, 24, 0, -80, 0, 64)),
    8: ((1, 0, -32, 0, 160, 0, -256, 0, 128), (0, -8, 0, 80, 0, -192, 0, 128)),
}


def test_gate_01_recurrence_table_reproduction():
    with gate(1, "recurrence pairs n = 0..8 match the frozen table"):
        started = time.perf_counter()
        pairs = cheb_generate(8)
        for n, (p_coeffs, q_coeffs) in REFERENCE_PAIRS.items():
            assert pairs[n].p == Poly(p_coeffs), f"p_{n} mismatch"
            assert pairs[n].q == Poly(q_coeffs), f"q_{n} mismatch"
        assert time.perf_counter() - started < 1.0


def test_gate_02_certified_divisibility_of_the_pair_family():
    with gate(2, "p_4 | q_8 certified; p_n | q_2n certified for n = 1..64"):
        started = time.perf_counter()
        p4 = Poly(REFERENCE_PAIRS[4][0])
        q8 = Poly(REFERENCE_PAIRS[8][1])
        cert = certify_divisibility(q8, p4)
        assert cert.verdict == "DIVIDES"
        assert cert.quotient * p4 == q8
        for n in range(1, 65):
            report = cheb_certify(n)
            assert report.passed, f"certification failed at n = {n}"
            assert report.certificate.quotient is not None
        assert time.perf_counter() - started < 10.0


def test_gate_03_evaluation_congruence_window():
    with gate(3, "p_n(a) | q_2n(a) for n = 1..20, a in [-50, 50]"):
        started = time.perf_counter()
        for n in range(1, 21):
            pairs = cheb_generate(2 * n)
            report = eval_divisibility(pairs[2 * n].q, pairs[n].p, range(-50, 51))
            assert report.verdict == "ALL_DIVIDE", f"failures at n = {n}: {report.failures}"
        assert time.perf_counter() - started < 10.0


def test_gate_04_fermat_non_example():
    with gate(4, "x^5 - x vs 5: pointwise divisible, not in Z[x], in Q[x]"):
        f = parse_poly("x^5 - x")
        g = parse_poly("5")
        report = eval_divisibility(f, g, range(-100, 101))
        assert report.verdict == "ALL_DIVIDE"
        assert not report.failures
        assert exact_divide(f, g) is None
        assert field_divide(f, g) == (5, f)


def test_gate_05_gauss_lemma_bulk():
    with gate(5, "products of primitive pairs stay primitive (1000 per ring)"):
        for ring in (ZZ,) + tuple(QuadRing(d) for d in TEST_QUAD_DS):
            rng = random.Random(50_001)
            for _ in range(1000):
                p = rand_primitive(rng, ring, min_deg=1, max_deg=12, bound=50)
                q = rand_primitive(rng, ring, min_deg=1, max_deg=12, bound=50)
                assert is_primitive(p * q)


def test_gate_06_pseudo_division_identity_bulk():
    with gate(6, "lc(g)^s * f == g*q + r with deg r < deg g (1000 per ring)"):
        for ring in (ZZ,) + tuple(QuadRing(d) for d in TEST_QUAD_DS):
            rng = random.Random(60_001)
            for _ in range(1000):
                f = rand_poly(rng, ring, min_deg=0, max_deg=12, bound=50)
                g = rand_poly(rng, ring, min_deg=0, max_deg=8, bound=50)
                result = pseudo_divide(f, g)
                assert f * result.multiplier == g * result.quotient + result.remainder
                assert not result.remainder or result.remainder.degree() < g.degree()
                expected_s = max((f.degree() if f else -1) - g.degree() + 1, 0)
                assert result.s == expected_s


def test_gate_07_norm_polynomial_bulk():
    with gate(7, "norm polynomials: degree, integrality, evaluation, products"):
        for d in TEST_QUAD_DS:
            ring = QuadRing(d)
            rng = random.Random(70_001 + d)
            for _ in range(1000):
                p = rand_poly(rng, ring, min_deg=1, max_deg=8, bound=50)
                norm = norm_poly(p)  # raises on any non-integral coefficient
                assert norm.degree() == 2 * p.degree()
                assert all(isinstance(c, int) for c in norm.coeffs)
                a = rng.randint(-50, 50)
                assert norm.evaluate(a) == p.evaluate(a).norm()
                q = rand_poly(rng, ring, min_deg=0, max_deg=4, bound=20)
                assert norm_poly(p * q) == norm * norm_poly(q)


def test_gate_08_prime_solvability_of_x_squared_plus_one():
    with gate(8, "primes <= 1000 with a root of x^2 + 1 are exactly 2 and 1 mod 4"):
        started = time.perf_counter()
        records = sf_search(parse_poly("x^2 + 1"), 1000)
        found = [(r.prime, r.root) for r in records]

        # independent oracle: trial-division primality, full residue scan
        oracle = []
        for p in range(2, 1001):
            if not brute_is_prime(p):
                continue
            for k in range(p):
                if (k * k + 1) % p == 0:
                    oracle.append((p, k))
                    break
        assert found == oracle

        closed_form = [p for p in range(2, 1001)
                       if brute_is_prime(p) and (p == 2 or p % 4 == 1)]
        assert [p for p, _ in found] == closed_form
        assert time.perf_counter() - started < 5.0


def test_gate_09_zw_unit_demo_bulk():
    with gate(9, "x^2 + 1 is a unit at 10^4 seeded points of Z[W]"):
        report = zw_unit_demo(10_000)
        assert report.trials == 10_000
        assert report.all_units
        assert report.passes == report.trials == 10_000


def test_gate_10_round_trip_certification_bulk():
    with gate(10, "certify recovers the exact quotient on 1000 built multiples"):
        rng = random.Random(100_001)
        for _ in range(1000):
            g = rand_primitive(rng, ZZ, min_deg=1, max_deg=6, bound=50)
            q = rand_poly(rng, ZZ, min_deg=0, max_deg=6, bound=50)
            cert = certify_divisibility(g * q, g)
            assert cert.verdict == "DIVIDES"
            assert cert.quotient == q


def test_gate_11_witness_search_hit_rate():
    with gate(11, "witnesses within |k| <= 1000 on >= 99% of 500 non-multiples"):
        rng = random.Random(110_001)
        instances = 0
        missing = []
        while instances < 500:
            g = rand_primitive(rng, ZZ, min_deg=1, max_deg=6, bound=50)
            f = rand_poly(rng, ZZ, min_deg=0, max_deg=12, bound=50)
            if exact_divide(f, g) is not None:
                continue
            instances += 1
            cert = certify_divisibility(f, g, search_bound=1000)
            assert cert.verdict == "NOT_DIVIDES"
            if cert.witness is None:
                missing.append((f, g))
        for f, g in missing:
            # reported, not failed: a witness exists in Z but beyond the bound
            print(f"no witness within 1000 for f = {f}, g = {g}")
        assert len(missing) <= 5, f"hit rate below 99%: {500 - len(missing)}/500"


def test_gate_10_round_trip_certification_over_quadratic_rings():
    with gate(10, "certify recovers the exact quotient on 200 built multiples per d"):
        for d in GATE_QUAD_DS:
            ring = QuadRing(d)
            rng = random.Random(100_001 + d)
            for _ in range(200):
                g = rand_primitive(rng, ring, min_deg=1, max_deg=6, bound=50)
                q = rand_poly(rng, ring, min_deg=0, max_deg=6, bound=50)
                cert = certify_divisibility(g * q, g)
                assert cert.verdict == "DIVIDES", f"d = {d}"
                assert cert.quotient == q, f"d = {d}"


def test_gate_11_witness_search_hit_rate_over_quadratic_rings():
    with gate(11, "witnesses within |k| <= 200 on >= 99% of 200 non-multiples per d"):
        for d in GATE_QUAD_DS:
            ring = QuadRing(d)
            rng = random.Random(110_001 + d)
            instances = 0
            missing = []
            while instances < 200:
                g = rand_primitive(rng, ring, min_deg=1, max_deg=6, bound=50)
                f = rand_poly(rng, ring, min_deg=0, max_deg=12, bound=50)
                if exact_divide(f, g) is not None:
                    continue
                instances += 1
                cert = certify_divisibility(f, g, search_bound=200)
                assert cert.verdict == "NOT_DIVIDES", f"d = {d}"
                if cert.witness is None:
                    missing.append((f, g))
            for f, g in missing:
                print(f"d = {d}: no witness within 200 for f = {f}, g = {g}")
            assert len(missing) <= 2, f"d = {d}: hit rate below 99%: {200 - len(missing)}/200"


# Rings of integers that are not UFDs, each with a non-principal prime
# P = (2, beta) of norm 2 and P^2 = (2), and the modulus m | d by which no
# element has norm 2 (or -2 for real d): N(a + b*w) = a^2 - d*b^2 = a^2 mod m.
NON_UFD_CASES = ((-5, (1, 1), 5), (-6, (0, 1), 3), (10, (0, 1), 5))
# Whitelisted rings where the same divisor 2x + beta has content beta.
UFD_CONTRASTS = ((-1, (1, 1)), (-2, (0, 1)), (2, (0, 1)), (3, (1, 1)))


def test_gate_12_pointwise_divisibility_without_unique_factorization():
    with gate(12, "Z[sqrt -5], Z[sqrt -6], Z[sqrt 10]: g(k) | f(k) everywhere, g not | f in D[x]"):
        for d, (a, b), m in NON_UFD_CASES:
            ring = QuadRing(d)  # parse_ring refuses these d
            two, beta = ring.element(2), ring.element(a, b)
            # D/P = F_2, so k^2 - k lies in P for every k in D, and
            # alpha = beta/2 in P^-1 maps it into D: f = g * alpha * (x^2 - x),
            # where g * alpha = beta*x + beta^2/2.
            half_square = two.divides(beta * beta)
            assert half_square is not None and two.divides(beta) is None
            g = Poly((beta, two), ring)
            x2_minus_x = Poly((0, -1, 1), ring)
            f = Poly((half_square, beta), ring) * x2_minus_x
            assert f * 2 == g * Poly.constant(beta, ring) * x2_minus_x
            if d == -5:
                assert (str(g), str(f)) == ("[2]x + [1+1w]", "[1+1w]x^3 - [3]x^2 + [2-1w]x")

            box = [ring.element(i, j) for i in range(-10, 11) for j in range(-10, 11)]
            for k in box:
                gk = g.evaluate(k)
                assert gk and gk.divides(f.evaluate(k)) is not None, f"d = {d}, k = {k}"
            report = eval_divisibility(f, g, range(-50, 51))
            assert report.verdict == "ALL_DIVIDE" and report.divisible == 101
            assert norm_transfer_check(f, g, range(-5, 6)).verdict == "CONSISTENT"

            # f/g = alpha (x^2 - x) lies in K[x] but not in D[x].
            assert exact_divide(f, g) is None
            den, q = field_divide(f, g)  # re-checks den * f == g*q + 0 on coordinates
            assert Poly.constant(den, ring) * f == g * q
            assert q * 2 == Poly.constant(den * beta, ring) * x2_minus_x

            # g is primitive in the gcd sense, yet its content ideal is P: a
            # common non-unit divisor of 2 and beta would have norm +-2.
            assert math.gcd(two.norm(), beta.norm()) == 2
            squares = {i * i % m for i in range(m)}
            assert all(ring.element(i, j).norm() % m == i * i % m
                       for i in range(m) for j in range(m))
            for norm in (2,) if d < 0 else (2, -2):
                assert norm % m not in squares, f"d = {d}: norm {norm} is a square mod {m}"
            with pytest.raises(UnsupportedRingError):
                is_primitive(g)
            with pytest.raises(UnsupportedRingError):
                certify_divisibility(f, g)

        # On the whitelist the same divisor is not primitive, and the
        # certifier's precondition refuses it.
        for d, (a, b) in UFD_CONTRASTS:
            ring = QuadRing(d)
            beta = ring.element(a, b)
            g = Poly((beta, ring.element(2)), ring)
            assert abs(beta.norm()) == 2
            c = content(g)
            assert c.divides(beta) is not None and beta.divides(c) is not None, f"d = {d}"
            assert not is_primitive(g)
            with pytest.raises(NotPrimitiveError):
                certify_divisibility(g * Poly.x(ring), g)


def test_gate_13_pointwise_divisibility_needs_a_primitive_divisor_over_z():
    with gate(13, "2x + 2 vs x^3 + 2x^2 + x: g(k) | f(k) everywhere, g not | f in Z[x]"):
        # f/g = x(x + 1)/2, and 2 is a fixed divisor of x^2 + x: k(k + 1) is
        # even at every integer k, so the content 2 of g hides the failure.
        g = Poly((2, 2))
        f = Poly((0, 1, 2, 1))
        report = eval_divisibility(f, g, range(-1000, 1001))
        assert report.verdict == "ALL_DIVIDE"
        assert (report.checked, report.vacuous) == (2001, 1)  # g(-1) = 0
        assert exact_divide(f, g) is None
        assert field_divide(f, g) == (2, Poly((0, 1, 1)))
        assert content(g) == 2 and not is_primitive(g)
        with pytest.raises(NotPrimitiveError):
            certify_divisibility(f, g)


def test_gate_14_prime_divisors_of_values_through_norm_polynomials():
    with gate(14, "p | N(g(k)) from sf on norm_poly(g): gcd(g(k), p) is a non-unit, 21 fields"):
        # norm_poly(g)(k) = N(g(k)), so a record (p, k) of sf on it says
        # p | N(g(k)). Then h = gcd(g(k), p) is a non-unit with p | N(h),
        # whether p is inert, split or ramified: a prime of Z[w] above p
        # divides the value g(k).
        rng = random.Random(7)
        checked = 0
        for d in sorted(NORM_EUCLIDEAN_D):
            ring = QuadRing(d)
            for _ in range(5):
                g = rand_poly(rng, ring, min_deg=1, max_deg=4)
                records = sf_search(norm_poly(g), 2000)
                assert records, f"d = {d}: no prime divides a value of {g}"
                for record in records:
                    h = quad_gcd(g.evaluate(record.root), ring.element(record.prime))
                    assert not h.is_unit() and h.norm() % record.prime == 0, (d, str(g), record)
                checked += len(records)
        print(f"{checked} records checked")
