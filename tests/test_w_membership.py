"""Trial division against factorisation oracles: Z[W] membership, factorize
and is_squarefree.

`rings._prime_factors` is the one trial-division loop. Through
`_first_non_w_prime` it decides the denominator check of `WRational`, and it
is `factorize` and `is_squarefree`. The 6k±1 wheel that `factorize` used
before, kept as `helpers.factorize_reference`, is the first oracle of all
three; sympy's `factorint` is the second. The membership check is in turn the
oracle of the proof `zw_unit_demo` makes instead: each value's numerator is
proved to have only W primes by a square root of -1.

`_first_non_w_prime` is cached. Its answers, on a miss and on a hit, are
compared with its uncached body `__wrapped__` and with the wheel; raises are
not cached, the cache stays within its maxsize, and the demo trial-divides
each of its at most 91 denominators once.

The `WRational` constructor is compared with its former body, kept as
`helpers.wrational_reference`. For the reduced argument a/b, `zw_unit_demo`
certifies the numerator n = a^2 + b^2 of the value (a^2 + b^2)/b^2. Each n,
and the root of -1 that certifies it, is compared with draws made by
`Random.randint` and `Random.choice`, in `helpers.zw_trials_reference`,
whose value text n/b^2 is in turn compared with the former loop, which
squared the argument and added 1, kept in `fractions.Fraction` as
`helpers.zw_values_reference`. A negative seed draws the trials of its
absolute value.
"""

import hashlib
import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dringkit import (
    DenominatorNotInW,
    WRational,
    factorize,
    is_squarefree,
    is_w_prime,
    lab,
    primes_up_to,
    rings,
    zw_unit_demo,
)
from dringkit.rings import _first_non_w_prime

from helpers import (
    brute_is_prime,
    factorize_reference,
    wrational_reference,
    zw_trials_reference,
    zw_values_reference,
)

CAP = 10**12
W_PRIMES_UNDER_1000 = [p for p in primes_up_to(1000) if is_w_prime(p)]


def least_non_w_prime(n):
    """Factorise n with the reference wheel and pick the least prime factor 3 mod 4."""
    return min((p for p in factorize_reference(n) if p % 4 == 3), default=None)


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


def assert_factorisation_matches_the_wheel(n):
    expected = factorize_reference(n)
    # the same dict, with its keys in the same, ascending, order
    assert list(factorize(n).items()) == list(expected.items()), n
    squarefree = all(e == 1 for e in expected.values())
    assert is_squarefree(n) is squarefree and is_squarefree(-n) is squarefree, n


@settings(max_examples=150, deadline=None)
@given(n=up_to_cap)
@example(n=CAP)
@example(n=999_999_999_989)  # the largest prime below 10^12
@example(n=999_983**2)
def test_denominator_check_matches_factorize(n):
    assert membership_outcome(n) == expected_outcome(n)
    assert_factorisation_matches_the_wheel(n)


def test_small_range_matches_factorize_exhaustively():
    # Each n is asked twice, so the second answer is read from the cache;
    # both match the uncached body.
    for n in range(1, 20_001):
        expected = least_non_w_prime(n)
        assert _first_non_w_prime(n) == _first_non_w_prime(n) == expected, n
        assert _first_non_w_prime.__wrapped__(n) == expected, n
        assert_factorisation_matches_the_wheel(n)


# 65521 is the largest prime below 2^16; 65539 and 65543 are the first primes
# 3 mod 4 above it, and 65537 = 2^16 + 1 is a prime 1 mod 4.
EDGE_CASES = [
    (1, None),
    (2, None),
    (2**39, None),
    (9, 3),
    (49, 7),
    (3 * 5**4, 3),
    (5**3 * 7**2 * 13, 7),
    (65521, None),
    (65521**2, None),
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
    assert factorize(n) == factorize_reference(n)
    assert _first_non_w_prime(n) == expected
    assert _first_non_w_prime(n) == _first_non_w_prime.__wrapped__(n) == expected
    assert membership_outcome(n) == expected_outcome(n)


def test_a_rejected_denominator_raises_the_same_message_each_time():
    messages = set()
    for _ in range(3):
        with pytest.raises(DenominatorNotInW) as caught:
            WRational(1, 21)
        messages.add(str(caught.value))
    assert messages == {"prime 3 divides the denominator but is 3 mod 4"}


def test_a_denominator_over_the_cap_is_refused_before_the_lookup():
    before = _first_non_w_prime.cache_info()
    for _ in range(2):
        with pytest.raises(ValueError, match=f"reduced denominator exceeds {CAP}"):
            WRational(1, CAP + 1)
    assert _first_non_w_prime.cache_info() == before


def test_the_cache_stays_within_its_maxsize():
    # 1,000 distinct denominators, each a product of two W primes below 1000.
    dens = sorted({p * q for p in W_PRIMES_UNDER_1000 for q in W_PRIMES_UNDER_1000})[:1000]
    assert len(dens) == 1000
    for den in dens:
        assert WRational(1, den).den == den
    info = _first_non_w_prime.cache_info()
    assert info.maxsize == 128
    assert info.currsize <= info.maxsize


def test_matches_sympy_factorint():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20260)
    values = [rng.randrange(1, 10**k) for k in range(2, 13) for _ in range(40)]
    values += [p * q for p, q in zip(sympy.primerange(65_500, 66_000), sympy.primerange(70_000, 71_000))]
    for n in values:
        factors = sympy.factorint(n)
        expected = min((p for p in factors if p % 4 == 3), default=None)
        assert _first_non_w_prime(n) == expected, n
        assert factorize(n) == factors, n
        assert is_squarefree(n) is all(e == 1 for e in factors.values()), n


# Digests of "value:verdict" for every value the demo decided, and the
# reports, as computed by the factorize-based implementation this replaced.
# The demo hands only (n, root) to the certificate, so once every pair
# matches the reference, the value text digested is the reference's n/b^2.
DEMO_GOLDEN = {1729: "5a2c0fc7ad5abe31", 1: "5602676d8316e497", 2: "3f78176269027779"}


@pytest.mark.parametrize("seed", sorted(DEMO_GOLDEN))
def test_zw_unit_demo_matches_the_factorize_implementation(seed, monkeypatch):
    original = lab._certifies_unit
    seen = []

    def recording(n, root):
        certified = original(n, root)
        seen.append((n, root, certified))
        return certified

    monkeypatch.setattr(lab, "_certifies_unit", recording)
    report = zw_unit_demo(3000, seed)
    assert (report.trials, report.seed) == (3000, seed)
    assert (report.passes, report.all_units) == (3000, True)
    expected = zw_trials_reference(3000, seed)
    assert [(n, root) for n, root, _ in seen] == [(n, root) for n, root, _ in expected]
    lines = [f"{value}:{certified}" for (_, _, certified), (_, _, value) in zip(seen, expected)]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == DEMO_GOLDEN[seed]


def recorded_trials(trials, seed):
    """(n, root) of each trial zw_unit_demo(trials, seed) hands to
    _certifies_unit."""
    original = lab._certifies_unit
    seen = []

    def recording(n, root):
        seen.append((n, root))
        return original(n, root)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lab, "_certifies_unit", recording)
        zw_unit_demo(trials, seed)
    return seen


@pytest.mark.parametrize("seed", [0, 3, 99, 2**31 - 1])
def test_zw_unit_demo_values_match_the_arithmetic_loop(seed):
    # Seeds outside DEMO_GOLDEN: the closed form against x * x + 1. The
    # library's numerators and the reference's whole values both match it.
    assert seed not in DEMO_GOLDEN
    values = zw_values_reference(3000, seed)
    numerators = [int(value.partition("/")[0]) for value in values]
    assert [n for n, _ in recorded_trials(3000, seed)] == numerators
    assert [value for _, _, value in zw_trials_reference(3000, seed)] == values


@settings(max_examples=60, deadline=None)
@given(seed=st.just(0) | st.integers(max_value=-1) | st.integers(min_value=2**64),
       trials=st.integers(min_value=1, max_value=300))
@example(seed=0, trials=1)
@example(seed=-1, trials=300)
@example(seed=2**64, trials=300)
def test_zw_unit_demo_draws_the_randint_and_choice_arguments(seed, trials):
    # n is even in the argument's numerator, so only the root sees its sign:
    # both are compared with draws made by randint and choice.
    expected = [(n, root) for n, root, _ in zw_trials_reference(trials, seed)]
    assert recorded_trials(trials, seed) == expected


@pytest.mark.parametrize("seed", [1, 7, 1729, 2**64 + 1])
def test_a_negative_seed_repeats_the_trials_of_its_absolute_value(seed):
    # random.Random seeds from |seed|, so -seed draws the same arguments.
    assert recorded_trials(500, -seed) == recorded_trials(500, seed)


def test_w_primes_under_100_are_the_primes_2_or_1_mod_4():
    # So the demo's denominators 1, p and p*q are at most 1 + 12 + 78 = 91.
    expected = tuple(p for p in range(100) if brute_is_prime(p) and (p == 2 or p % 4 == 1))
    assert lab.W_PRIMES_UNDER_100 == expected
    assert len(expected) == 12


def test_zw_unit_demo_validates_and_certifies_every_trial(monkeypatch):
    # One validating construction (one membership lookup) and one
    # certificate per trial: the count rings.WRational.constructed reads
    # when traced.
    calls = {"lookup": 0, "certificate": 0}

    def counting(name, original):
        def spy(*args):
            calls[name] += 1
            return original(*args)
        return spy

    monkeypatch.setattr(rings, "_first_non_w_prime", counting("lookup", rings._first_non_w_prime))
    monkeypatch.setattr(lab, "_certifies_unit", counting("certificate", lab._certifies_unit))
    assert zw_unit_demo(200, 11).all_units
    assert calls == {"lookup": 200, "certificate": 200}


@pytest.mark.parametrize("seed", sorted(DEMO_GOLDEN))
def test_zw_unit_demo_trial_divides_each_denominator_once(seed, monkeypatch):
    # From a cleared cache, a trial division runs once per distinct reduced
    # denominator b, read back from the reference's value text n/b^2.
    original = rings._prime_factors
    divisions = []

    def counting(n):
        divisions.append(n)
        return original(n)

    monkeypatch.setattr(rings, "_prime_factors", counting)
    _first_non_w_prime.cache_clear()
    zw_unit_demo(3000, seed)
    dens = {math.isqrt(int(value.partition("/")[2])) for _, _, value in zw_trials_reference(3000, seed)}
    assert sorted(divisions) == sorted(dens)
    assert len(divisions) <= 91
    assert _first_non_w_prime.cache_info().misses == len(divisions)


@settings(max_examples=300, deadline=None)
@given(a=st.integers(min_value=-10**6, max_value=10**6),
       b=st.lists(st.sampled_from(W_PRIMES_UNDER_1000), max_size=2).map(math.prod))
@example(a=0, b=1)  # the value 1
@example(a=1, b=1)  # numerator 2, odd part 1
@example(a=-1, b=2)  # 5/4
@example(a=999_999, b=997**2)  # odd part near the cap
def test_unit_verdict_matches_trial_division(a, b):
    # For coprime a and b, b is prime to n = a^2 + b^2, so u = a/b mod n
    # squares to -1 mod n; every odd prime of n is then 1 mod 4.
    assume(math.gcd(a, b) == 1)
    n = a * a + b * b
    m = n >> ((n & -n).bit_length() - 1)
    assume(m <= CAP)
    u = a * pow(b, -1, n)
    assert (u * u + 1) % m == 0
    assert _first_non_w_prime(m) is None
    assert lab._certifies_unit(n, u)


constructor_ints = st.one_of(
    st.integers(min_value=-10**15, max_value=10**15),
    st.integers(min_value=-CAP, max_value=CAP),
    st.sampled_from((0, 1, -1)),
    st.booleans(),
)
# Denominators over the cap, and ones with a prime 3 mod 4 or only W primes.
constructor_dens = st.one_of(
    constructor_ints,
    st.integers(min_value=CAP + 1, max_value=10**15),
    st.lists(st.sampled_from((2, 3, 5, 7, 11, 13, 19, 97)), max_size=8).map(math.prod),
    st.tuples(st.integers(min_value=1, max_value=10**4), st.sampled_from((3, 7, 11, 999_983))).map(math.prod),
)


@settings(max_examples=300, deadline=None)
@given(
    num=constructor_ints | st.floats(min_value=-1e15, max_value=1e15),
    den=constructor_dens.flatmap(lambda d: st.sampled_from((d, -d))) | st.floats(min_value=-1e15, max_value=1e15),
)
@example(num=1, den=0)
@example(num=2, den=-30)
@example(num=1, den=3 * 5**17)
@example(num=5**20, den=5**30)
@example(num=True, den=True)
@example(num=1.5, den=2)
@example(num=3, den=2.0)
def test_constructor_matches_its_former_body(num, den):
    def constructed(num, den):
        x = WRational(num, den)
        return x.num, x.den

    def pair_or_error(build):
        try:
            pair = build(num, den)
        except (ValueError, ZeroDivisionError, TypeError, DenominatorNotInW) as exc:
            return type(exc), str(exc)
        assert type(pair[0]) is int and type(pair[1]) is int
        return pair

    assert pair_or_error(constructed) == pair_or_error(wrational_reference)


def test_the_constructor_checks_the_cap_before_the_denominator():
    # 3 * 5**17 is over the cap and has the prime 3: the cap is reported.
    with pytest.raises(ValueError, match=f"reduced denominator exceeds {CAP}"):
        WRational(1, 3 * 5**17)
    with pytest.raises(DenominatorNotInW, match="prime 3 divides"):
        WRational(2, -6 * 5)
