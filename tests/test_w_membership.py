"""Trial division against factorisation oracles: Z[W] membership, factorize
and is_squarefree.

`rings._prime_factors` is the one trial-division loop. Through
`_first_non_w_prime` it decides the denominator check of `WRational`, and it
is `factorize` and `is_squarefree`. The 6k±1 wheel that `factorize` used
before, kept as `helpers.factorize_reference`, is the first oracle of all
three; sympy's `factorint` is the second. The membership check is in turn the
oracle of the two paths that skip it: the values of `zw_unit_demo`, each
proved a unit by a square root of -1, and `WRational` arithmetic, which
builds its results without re-checking their denominators.

The `WRational` constructor is compared with its former body, kept as
`helpers.wrational_reference`. The values `zw_unit_demo` builds from the
closed form (a^2 + b^2)/b^2 are compared with its former loop, which squared
the argument and added 1 by `WRational` arithmetic, kept as
`helpers.zw_values_reference`. The arguments it draws from `getrandbits`,
and the root of -1 that certifies each value, are compared with draws made by
`Random.randint` and `Random.choice`, in `helpers.zw_trials_reference`.
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
    factorize_reference,
    wrational_reference,
    zw_trials_reference,
    zw_values_reference,
)

CAP = 10**12


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
    for n in range(1, 20_001):
        assert _first_non_w_prime(n) == least_non_w_prime(n), n
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
    assert membership_outcome(n) == expected_outcome(n)


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
DEMO_GOLDEN = {1729: "5a2c0fc7ad5abe31", 1: "5602676d8316e497", 2: "3f78176269027779"}


@pytest.mark.parametrize("seed", sorted(DEMO_GOLDEN))
def test_zw_unit_demo_matches_the_factorize_implementation(seed, monkeypatch):
    original = lab._certifies_unit
    seen = []

    def recording(value, root):
        certified = original(value, root)
        seen.append(f"{value}:{certified}")
        return certified

    monkeypatch.setattr(lab, "_certifies_unit", recording)
    report = zw_unit_demo(3000, seed)
    assert (report.trials, report.seed, report.certified) == (3000, seed, 3000)
    assert len(seen) == 3000
    assert hashlib.sha256("\n".join(seen).encode()).hexdigest()[:16] == DEMO_GOLDEN[seed]


def recorded_demo_values(trials, seed, monkeypatch):
    """str of each value zw_unit_demo(trials, seed) hands to _certifies_unit."""
    original = lab._certifies_unit
    seen = []

    def recording(value, root):
        seen.append(str(value))
        return original(value, root)

    monkeypatch.setattr(lab, "_certifies_unit", recording)
    zw_unit_demo(trials, seed)
    return seen


@pytest.mark.parametrize("seed", [0, 3, 99, 2**31 - 1])
def test_zw_unit_demo_values_match_the_arithmetic_loop(seed, monkeypatch):
    # Seeds outside DEMO_GOLDEN: the closed form against x * x + 1.
    assert seed not in DEMO_GOLDEN
    assert recorded_demo_values(3000, seed, monkeypatch) == zw_values_reference(3000, seed)


@settings(max_examples=60, deadline=None)
@given(seed=st.just(0) | st.integers(max_value=-1) | st.integers(min_value=2**64),
       trials=st.integers(min_value=1, max_value=300))
@example(seed=0, trials=1)
@example(seed=-1, trials=300)
@example(seed=2**64, trials=300)
def test_zw_unit_demo_draws_the_randint_and_choice_arguments(seed, trials):
    # The value is even in the argument's numerator, so only the root sees
    # its sign: both are compared with draws made by randint and choice.
    original = lab._certifies_unit
    seen = []

    def recording(value, root):
        seen.append((str(value), root))
        return original(value, root)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lab, "_certifies_unit", recording)
        zw_unit_demo(trials, seed)
    assert seen == zw_trials_reference(trials, seed)


def test_zw_unit_demo_validates_and_certifies_every_trial(monkeypatch):
    # One validating construction (one trial division) and one certificate
    # per trial: the count rings.WRational.constructed reads when traced.
    calls = {"trial division": 0, "certificate": 0}

    def counting(name, original):
        def spy(*args):
            calls[name] += 1
            return original(*args)
        return spy

    monkeypatch.setattr(rings, "_first_non_w_prime", counting("trial division", rings._first_non_w_prime))
    monkeypatch.setattr(lab, "_certifies_unit", counting("certificate", lab._certifies_unit))
    assert zw_unit_demo(200, 11).all_units
    assert calls == {"trial division": 200, "certificate": 200}


W_PRIMES_UNDER_1000 = [p for p in primes_up_to(1000) if is_w_prime(p)]


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
    argument = WRational(a, b)
    assert lab._certifies_unit(argument * argument + 1, u)


w_denominators = st.lists(st.sampled_from((2, 5, 13, 17, 29, 37, 41)), max_size=5).map(math.prod)
w_rationals = st.builds(WRational, st.integers(min_value=-10**6, max_value=10**6), w_denominators)


def outcome(compute):
    """(num, den) of the result, or the type and message of what it raised."""
    try:
        x = compute()
    except (ValueError, DenominatorNotInW) as exc:
        return type(exc), str(exc)
    assert type(x.num) is int and type(x.den) is int
    return x.num, x.den


@settings(max_examples=300, deadline=None)
@given(x=w_rationals, y=w_rationals)
def test_arithmetic_matches_the_validating_constructor(x, y):
    cases = [
        (lambda: x * y, (x.num * y.num, x.den * y.den)),
        (lambda: x + y, (x.num * y.den + y.num * x.den, x.den * y.den)),
        (lambda: x - y, (x.num * y.den - y.num * x.den, x.den * y.den)),
        (lambda: -x, (-x.num, x.den)),
    ]
    for compute, (num, den) in cases:
        assert outcome(compute) == outcome(lambda: WRational(num, den))


@settings(max_examples=300, deadline=None)
@given(x=w_rationals, n=st.integers(min_value=-10**6, max_value=10**6) | st.booleans())
def test_int_operands_match_the_validating_constructor(x, n):
    # An int operand enters as n/1 through WRational._trusted, which does not
    # trial-divide; the constructor is the oracle.
    cases = [
        (lambda: x + n, (x.num + n * x.den, x.den)),
        (lambda: x - n, (x.num - n * x.den, x.den)),
        (lambda: n - x, (n * x.den - x.num, x.den)),
        (lambda: n * x, (n * x.num, x.den)),
    ]
    for compute, (num, den) in cases:
        assert outcome(compute) == outcome(lambda: WRational(num, den))


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


def test_arithmetic_past_the_denominator_cap_raises():
    message = f"reduced denominator exceeds {CAP}"
    for compute in (
        lambda: WRational(1, 5**17) * WRational(1, 5),
        lambda: WRational(1, 2**39) + WRational(1, 5**17),
        lambda: WRational(1, 2**39) - WRational(3, 5**17),
    ):
        with pytest.raises(ValueError, match=message):
            compute()


def test_arithmetic_does_not_trial_divide(monkeypatch):
    x, y = WRational(-7, 2 * 5 * 13), WRational(3, 17**2)

    def no_trial_division(n):
        raise AssertionError(f"trial division of {n} in arithmetic")

    monkeypatch.setattr(rings, "_first_non_w_prime", no_trial_division)
    assert str(x * y) == "-21/37570"
    assert str(x + y) == "-1633/37570"
    assert str(x - y) == "-2413/37570"
    assert str(-x) == "7/130"
    assert str(x * x - x * x) == "0/1"
    assert str(x + 3) == "383/130"
    assert str(x - 3) == "-397/130"
    assert str(3 - x) == "397/130"
    assert str(-2 * x) == "7/65"
    assert str(True * y) == "3/289"
