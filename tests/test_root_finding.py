"""The two root finders behind sf_search: one gcd scan of f(0), f(1), ...
for the primes up to 2^14, and F_p[x] for each prime above.

Records from both paths are checked against the exhaustive residue scan kept
in helpers, the scan against the F_p[x] finder and against the unbatched
scan kept in helpers, the scan's values against Horner's rule, the F_p[x]
least roots against sympy's polynomial congruence solver, and three searches
that straddle the threshold against digests of the residue scan's output.
"""

import hashlib
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dringkit import Poly, parse_poly, primes_up_to, sf_search
from dringkit.lab import _DIFFERENCE_CHUNK, _least_root_mod, _least_roots_by_scan, _values
from helpers import evaluate_reference, least_roots_by_scan_reference, sf_search_scan

COEFF_BOUND = 10**6


@st.composite
def int_polys(draw):
    degree = draw(st.integers(min_value=1, max_value=12))
    coeff = st.integers(min_value=-COEFF_BOUND, max_value=COEFF_BOUND)
    coeffs = draw(st.lists(coeff, min_size=degree, max_size=degree))
    lead = draw(coeff.filter(bool))
    return Poly(coeffs + [lead])


@settings(max_examples=200, deadline=None)
@given(f=int_polys(), limit=st.integers(min_value=2, max_value=600))
def test_records_match_the_residue_scan(f, limit):
    assert sf_search(f, limit) == sf_search_scan(f, limit)


@pytest.mark.parametrize(
    "text, p, expected",
    [
        ("6x + 3", 3, 0),                   # p divides every coefficient
        ("3x^2 + x + 1", 3, 2),             # p divides only the leading one
        ("5x + 1", 5, None),                # ... leaving a nonzero constant
        ("x^3 + 5x^2 + 10", 5, 0),          # f(0) = 0 mod p
        ("x^3 - 5x^2 + 7x - 3", 7, 1),      # (x - 1)^2 (x - 3)
        ("x^3 - 5x^2 + 7x - 3", 2, 1),      # (x + 1)^3 mod 2
        ("x^7 - x", 7, 0),                  # splits fully, 0 among the roots
        ("x^6 - 1", 7, 1),                  # splits fully, 0 not a root
        ("x^3 - 14x^2 + 63x - 90", 7, 3),   # (x - 3)(x - 5)(x - 6)
        ("x^5 + x + 1", 3, 1),              # p <= deg f
        ("x^4 + x^3 + x^2 + x + 1", 3, None),
        ("x^2 + x + 1", 2, None),           # p = 2
        ("x^2 + 1", 2, 1),
        ("x^2 + x", 2, 0),
        ("3x + 1", 2, 1),
    ],
)
def test_edge_cases(text, p, expected):
    f = parse_poly(text)
    assert _least_root_mod(f.coeffs, p) == expected
    assert sf_search(f, p) == sf_search_scan(f, p)


@settings(max_examples=200, deadline=None)
@given(f=int_polys(), limit=st.integers(min_value=2, max_value=2000))
def test_the_scan_matches_the_root_finder_prime_by_prime(f, limit):
    primes = primes_up_to(limit)
    expected = {p: _least_root_mod(f.coeffs, p) for p in primes}
    assert _least_roots_by_scan(f.coeffs, primes) == {
        p: k for p, k in expected.items() if k is not None
    }


@pytest.mark.parametrize(
    "text, limit, expected",
    [
        # an integer root: f(2) = 0 hits every prime still unresolved at once
        ("x^2 - 5x + 6", 30, {2: 0, 3: 0, 5: 2, 7: 2, 11: 2, 13: 2, 17: 2,
                              19: 2, 23: 2, 29: 2}),
        # two primes share a least root: f(9) = 731 = 17 * 43
        ("x^3 + 2", 43, {2: 0, 3: 1, 5: 2, 11: 4, 17: 9, 23: 7, 29: 3, 31: 11,
                         41: 36, 43: 9}),
        ("6x + 3", 7, {3: 0, 5: 2, 7: 3}),     # 3 divides every coefficient
        ("3x^2 + x + 1", 5, {3: 2, 5: 1}),     # 3 divides only the leading one
        ("x", 11, {2: 0, 3: 0, 5: 0, 7: 0, 11: 0}),
        ("x^2 + 1", 2, {2: 1}),                # limit 2
        ("x^2 + x + 1", 2, {}),
    ],
)
def test_scan_edge_cases(text, limit, expected):
    coeffs = parse_poly(text).coeffs
    assert _least_roots_by_scan(coeffs, primes_up_to(limit)) == expected


@st.composite
def scan_coeffs(draw, min_degree=0, max_degree=12):
    # Coefficients up to 10^30 make single values longer than the pending
    # product of the primes up to a small limit.
    bound = draw(st.sampled_from([10, 10**6, 10**30]))
    degree = draw(st.integers(min_value=min_degree, max_value=max_degree))
    coeff = st.integers(min_value=-bound, max_value=bound)
    coeffs = draw(st.lists(coeff, min_size=degree, max_size=degree))
    return coeffs + [draw(coeff.filter(bool))]


@settings(max_examples=60, deadline=None)
@given(
    coeffs=scan_coeffs(),
    limit=st.one_of(st.integers(min_value=2, max_value=1000),
                    st.integers(min_value=2, max_value=2**14)),
)
# x - 40: f(40) = 0 inside a run hits every prime still pending at once,
# so the least roots are {p: 40 % p}
@example(coeffs=[-40, 1], limit=100)
# 17 and 43 share the least root 9 of x^3 + 2
@example(coeffs=[2, 0, 0, 1], limit=43)
@example(coeffs=[6, -5, 1], limit=2)
def test_the_scan_matches_the_unbatched_scan(coeffs, limit):
    primes = primes_up_to(limit)
    assert _least_roots_by_scan(coeffs, primes) == least_roots_by_scan_reference(coeffs, primes)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), limit=st.integers(min_value=2, max_value=60))
def test_the_scan_matches_the_unbatched_scan_above_every_prime(data, limit):
    # deg f above the largest prime: every value comes by Horner's rule
    coeffs = data.draw(scan_coeffs(min_degree=limit + 1, max_degree=limit + 40))
    primes = primes_up_to(limit)
    assert _least_roots_by_scan(coeffs, primes) == least_roots_by_scan_reference(coeffs, primes)


@settings(max_examples=60, deadline=None)
@given(coeffs=scan_coeffs(), data=st.data())
def test_the_values_match_horner_across_chunk_boundaries(coeffs, data):
    # Ends just before, at and after a chunk boundary of the differences,
    # and short enough for Horner's rule alone
    head = len(coeffs)
    chunks = data.draw(st.integers(min_value=0, max_value=3))
    stop = data.draw(st.integers(min_value=0, max_value=head + 1)
                     | st.integers(min_value=-1, max_value=1).map(
                         lambda d: head + chunks * _DIFFERENCE_CHUNK + d))
    f = Poly(coeffs)
    assert list(_values(coeffs, stop)) == [evaluate_reference(f, k) for k in range(stop)]


def test_least_roots_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.ntheory.residue_ntheory import polynomial_congruence

    x = sympy.Symbol("x")
    rng = random.Random(4211)
    primes = primes_up_to(5000)
    for _ in range(40):
        degree = rng.randint(1, 12)
        coeffs = [rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in range(degree)]
        coeffs.append(rng.choice([-1, 1]) * rng.randint(1, COEFF_BOUND))
        expr = sum(c * x**i for i, c in enumerate(coeffs))
        for p in rng.sample(primes, 3):
            roots = polynomial_congruence(expr, p)
            expected = min(roots) if roots else None
            assert _least_root_mod(coeffs, p) == expected, (coeffs, p)


def test_products_of_many_linear_factors_at_a_large_prime():
    # deg h is 10, so equal-degree splitting has to recurse several levels
    rng = random.Random(77)
    p = 4999
    for _ in range(20):
        roots = rng.sample(range(1, p), 10)
        f = Poly([1])
        for r in roots:
            f = f * Poly([-r, 1])
        assert _least_root_mod(f.coeffs, p) == min(roots)


@pytest.mark.parametrize(
    "text, count, digest",
    [
        ("x^2+1", 1126,
         "7ba39b79711692fc363e2609dccb5943c6d731bbe05f7d4f3b8eeb75d16e0f0f"),
        ("3*x^6 - 7*x^5 + x^3 + 11*x - 5", 1405,
         "b3ec1c98ef018563ffe6808590e09d0c538c35bb0cce9fb2650a6aadd3788aea"),
        ("x^4 - 10*x^2 + 1", 551,
         "92fd6f62e25bdf690bcf4406ac9e60084bedb5eff6fbe3c6b76bd11442c0b9d0"),
    ],
)
def test_records_up_to_20000_match_the_residue_scan_digests(text, count, digest):
    # Digests of json.dumps([[prime, root], ...]) as the residue scan produced it
    records = sf_search(parse_poly(text), 20000)
    pairs = [[r.prime, r.root] for r in records]
    assert len(pairs) == count
    assert hashlib.sha256(json.dumps(pairs).encode()).hexdigest() == digest
