"""The F_p[x] root finder behind sf_search.

Records are checked against the exhaustive residue scan kept in helpers, the
least roots against sympy's polynomial congruence solver, and three long
searches against digests of the scan's output.
"""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dringkit import Poly, parse_poly, primes_up_to, sf_search
from dringkit.lab import _least_root_mod
from helpers import sf_search_scan

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
