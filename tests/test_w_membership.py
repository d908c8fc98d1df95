"""Z[W] membership by early-exit trial division, against factorisation oracles.

`rings._first_non_w_prime` decides both the denominator check of `WRational`
and `WRational.is_unit`. The slow path it replaced, `factorize`, is the
first oracle; sympy's `factorint` is the second.
"""

import hashlib
import math
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dringkit import DenominatorNotInW, WRational, factorize, rings, zw_unit_demo
from dringkit.rings import _W_TABLE_LIMIT, _first_non_w_prime, _odd_prime_table

CAP = 10**12


def least_non_w_prime(n):
    """The slow path: factorise n and pick the least prime factor 3 mod 4."""
    return min((p for p in factorize(n) if p % 4 == 3), default=None)


def membership_outcome(n):
    """'ok' when 1/n is in Z[W], else the DenominatorNotInW message."""
    try:
        WRational(1, n)
    except DenominatorNotInW as exc:
        return str(exc)
    return "ok"


def expected_outcome(n):
    p = least_non_w_prime(n)
    return "ok" if p is None else f"prime {p} divides the denominator but is 3 mod 4"


products_of_primes_and_more = st.lists(
    st.integers(min_value=2, max_value=10**6), min_size=1, max_size=4
).map(math.prod).filter(lambda n: n <= CAP)
up_to_cap = st.one_of(st.integers(min_value=1, max_value=CAP), products_of_primes_and_more)


@settings(max_examples=150, deadline=None)
@given(n=up_to_cap)
def test_is_unit_matches_factorize(n):
    assert WRational(n).is_unit() == (least_non_w_prime(n) is None)
    assert WRational(-n).is_unit() == WRational(n).is_unit()


@settings(max_examples=150, deadline=None)
@given(n=up_to_cap)
def test_denominator_check_matches_factorize(n):
    assert membership_outcome(n) == expected_outcome(n)


def test_small_range_matches_factorize_exhaustively():
    for n in range(1, 20_000):
        assert _first_non_w_prime(n) == least_non_w_prime(n), n


LARGEST_TABLE_PRIME = 65521
# 65539 and 65543 are both 3 mod 4 and the first such primes past the table.
EDGE_CASES = [
    (1, None),
    (2, None),
    (2**39, None),
    (9, 3),
    (49, 7),
    (3 * 5**4, 3),
    (5**3 * 7**2 * 13, 7),
    (LARGEST_TABLE_PRIME, None),
    (LARGEST_TABLE_PRIME**2, None),
    (65537, None),
    (65539, 65539),
    (2**5 * 65537, None),
    (65539 * 65543, 65539),
    (65519 * 65539, 65519),
    (5**17, None),
    (999_983, 999_983),  # the largest prime below 10^6, 3 mod 4
    (999_983**2, 999_983),
]


@pytest.mark.parametrize("n, expected", EDGE_CASES)
def test_edge_cases(n, expected):
    assert least_non_w_prime(n) == expected
    assert _first_non_w_prime(n) == expected
    assert WRational(n).is_unit() == (expected is None)
    assert membership_outcome(n) == expected_outcome(n)


def test_table_ends_at_the_largest_prime_below_its_limit():
    table = _odd_prime_table()
    assert table[0] == 3 and table[-1] == LARGEST_TABLE_PRIME < _W_TABLE_LIMIT
    assert factorize(LARGEST_TABLE_PRIME) == {LARGEST_TABLE_PRIME: 1}
    assert factorize(65539) == {65539: 1} and factorize(65543) == {65543: 1}


def test_matches_sympy_factorint():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20260)
    values = [rng.randrange(1, 10**k) for k in range(2, 13) for _ in range(40)]
    values += [p * q for p, q in zip(sympy.primerange(65_500, 66_000), sympy.primerange(70_000, 71_000))]
    for n in values:
        expected = min((p for p in sympy.factorint(n) if p % 4 == 3), default=None)
        assert _first_non_w_prime(n) == expected, n


def test_is_unit_rejects_a_numerator_over_the_cap_before_trial_division(monkeypatch):
    assert WRational(CAP).is_unit()  # 2^12 * 5^12, exactly at the cap
    big_prime = WRational(2**127 - 1)  # 39 digits; trial division would not end
    just_over = WRational(-(CAP + 1))

    def no_trial_division(n):
        raise AssertionError(f"trial division of {n} past the cap")

    monkeypatch.setattr(rings, "_first_non_w_prime", no_trial_division)
    with pytest.raises(ValueError, match="numerator exceeds"):
        big_prime.is_unit()
    with pytest.raises(ValueError, match="numerator exceeds"):
        just_over.is_unit()


def test_the_prime_table_is_not_built_at_import():
    code = (
        "import dringkit, dringkit.cli\n"
        "from dringkit.rings import _odd_prime_table\n"
        "assert _odd_prime_table.cache_info().currsize == 0\n"
        "dringkit.WRational(1, 5)\n"
        "assert _odd_prime_table.cache_info().currsize == 1\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


# Digests of "value:is_unit()" for every value the demo tested, and the
# reports, as computed by the factorize-based implementation this replaced.
DEMO_GOLDEN = {1729: "5a2c0fc7ad5abe31", 1: "5602676d8316e497", 2: "3f78176269027779"}


@pytest.mark.parametrize("seed", sorted(DEMO_GOLDEN))
def test_zw_unit_demo_matches_the_factorize_implementation(seed, monkeypatch):
    original = WRational.is_unit
    seen = []

    def recording(self):
        verdict = original(self)
        seen.append(f"{self}:{verdict}")
        return verdict

    monkeypatch.setattr(WRational, "is_unit", recording)
    report = zw_unit_demo(3000, seed)
    assert (report.trials, report.seed, report.failures) == (3000, seed, ())
    assert len(seen) == 3000
    assert hashlib.sha256("\n".join(seen).encode()).hexdigest()[:16] == DEMO_GOLDEN[seed]
