"""Executable divisibility experiments: pointwise checks, certification,
prime searches, the Chebyshev pairs and the unit demo.

The statements behind these procedures quantify over all but finitely many
integers; the procedures substitute finite, reproducible sample windows and
say so in their reports.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import (
    ConstantDivisorError,
    ConstantPolynomialError,
    EmptySampleSetError,
    NotPrimitiveError,
    SearchCapExceededError,
    SearchPreconditionError,
    UnsupportedRingError,
    VerificationError,
    ZeroInputError,
)
from .polynomials import Poly, exact_divide, is_primitive
from .rings import ZZ, WRational, primes_up_to

DEFAULT_WINDOW = 20
GROWTH_SCAN_CAP = 10**6
# sf_search finds the least roots of every prime up to here in one scan.
_SCAN_PRIMES_UP_TO = 2**14
DEFAULT_DEMO_SEED = 1729
W_PRIMES_UNDER_100 = (2, 5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97)

SAMPLE_WINDOW_NOTE = (
    "pointwise divisibility was checked on a finite sample window; the "
    "underlying statements quantify over all but finitely many integers"
)


def default_samples() -> list[int]:
    """The symmetric integer window used when callers do not supply samples."""
    return list(range(-DEFAULT_WINDOW, DEFAULT_WINDOW + 1))


@dataclass(frozen=True)
class EvalDivReport:
    """Tally of the pointwise checks g(k) | f(k) over a sample list.

    Failures hold (point, divisor value, dividend value) triples; vacuous
    counts the samples where the divisor vanished.
    """

    checked: int
    vacuous: int
    failures: tuple
    verdict: str

    @property
    def divisible(self) -> int:
        return self.checked - self.vacuous - len(self.failures)


def eval_divisibility(f: Poly, g: Poly, samples: Iterable) -> EvalDivReport:
    """Check g(k) | f(k) at every sample, skipping (and counting) zeros of g."""
    f._check_ring(g)
    if not g:
        raise ZeroDivisionError("the divisor polynomial is zero")
    points = list(samples)
    if not points:
        raise EmptySampleSetError("need at least one sample point")
    vacuous = 0
    failures = []
    for k in points:
        gval = g.evaluate(k)
        if not gval:
            vacuous += 1
            continue
        fval = f.evaluate(k)
        if f.ring.divides(gval, fval) is None:
            failures.append((k, gval, fval))
    verdict = "ALL_DIVIDE" if not failures else "FAILED"
    return EvalDivReport(len(points), vacuous, tuple(failures), verdict)


@dataclass(frozen=True)
class DivisibilityCertificate:
    """Verdict on g | f in R[x], with a verified quotient or a witness point.

    The quotient is present exactly when the verdict is DIVIDES. A witness is
    a point k with g(k) != 0 and g(k) not dividing f(k); it may be absent on
    NOT_DIVIDES when the bounded scan found none.
    """

    verdict: str
    quotient: Poly | None
    witness: int | None


def witness_scan_order(bound: int) -> Iterator[int]:
    """0, 1, -1, 2, -2, ...: small witnesses first, so reports stay readable."""
    yield 0
    for k in range(1, bound + 1):
        yield k
        yield -k


def certify_divisibility(f: Poly, g: Poly, search_bound: int = 1000) -> DivisibilityCertificate:
    """Decide g | f in R[x] for primitive nonconstant g over Z (or a
    norm-Euclidean quadratic ring).

    On success the quotient is re-verified by multiplication. On failure the
    integers 0, 1, -1, 2, -2, ... with |k| <= search_bound are scanned for a
    witness with g(k) != 0 and g(k) not dividing f(k). For such a divisor,
    pointwise divisibility at every integer forces polynomial divisibility,
    so a witness always exists somewhere in Z, though not necessarily within
    the bound. A negative search_bound raises ValueError, and one that is not
    an int, such as a float, raises TypeError.
    """
    if ZZ.coerce(search_bound) < 0:
        raise ValueError("the witness search bound must not be negative")
    f._check_ring(g)
    if not g:
        raise ZeroDivisionError("the divisor polynomial is zero")
    if g.degree() == 0:
        raise ConstantDivisorError("the divisor must be nonconstant")
    if not is_primitive(g):
        raise NotPrimitiveError("the divisor must be primitive (unit content)")
    quotient = exact_divide(f, g)
    if quotient is not None:
        if g * quotient != f:
            raise VerificationError("certified quotient failed re-expansion")
        return DivisibilityCertificate("DIVIDES", quotient, None)
    for k in witness_scan_order(search_bound):
        gval = g.evaluate(k)
        if gval and f.ring.divides(gval, f.evaluate(k)) is None:
            return DivisibilityCertificate("NOT_DIVIDES", None, k)
    return DivisibilityCertificate("NOT_DIVIDES", None, None)


def degree_dichotomy_check(f: Poly, g: Poly, samples: Iterable) -> str:
    """Pointwise divisibility on the samples should force f == 0 or
    deg g <= deg f.

    Returns CONSISTENT when that holds, REFUTES_SAMPLES when divisibility
    already fails on the samples, and VIOLATION when the samples pass yet the
    degree comparison fails; no integer instance can produce a VIOLATION, so
    one would mean an arithmetic bug.
    """
    report = eval_divisibility(f, g, samples)
    if report.verdict == "FAILED":
        return "REFUTES_SAMPLES"
    if not f or f.degree() >= g.degree():
        return "CONSISTENT"
    return "VIOLATION"


def growth_witness(f: Poly, g: Poly) -> int:
    """Least k >= 1 with g(k) != 0 and |g(k)| > |f(k)| > 0, given f != 0 and
    deg g > deg f.

    Strict growth separation at k forces g(k) to not divide f(k). Scans
    upward from 1; raises SearchCapExceededError when no k <= GROWTH_SCAN_CAP
    separates the two, that is, when at every scanned point f vanishes or
    |g(k)| <= |f(k)|. Such a k always exists, since deg g > deg f, but with
    large coefficients in f it can lie past the cap: for f = 10**13 and
    g = x**2 it is 3162278.
    """
    if f.ring != ZZ or g.ring != ZZ:
        raise UnsupportedRingError("growth comparison needs integer coefficients")
    if not f:
        raise SearchPreconditionError("the dividend must be nonzero")
    if not g or g.degree() <= f.degree():
        raise SearchPreconditionError("the divisor's degree must exceed the dividend's")
    for k in range(1, GROWTH_SCAN_CAP + 1):
        gval = g.evaluate(k)
        if gval != 0 and abs(gval) > abs(f.evaluate(k)) > 0:
            return k
    raise SearchCapExceededError(
        f"no point below {GROWTH_SCAN_CAP} separated the growth of the two polynomials"
    )


@dataclass(frozen=True)
class PrimeSolvabilityRecord:
    """A prime p together with the least root of f in [0, p) modulo p."""

    prime: int
    root: int


def sf_search(f: Poly, prime_limit: int) -> list[PrimeSolvabilityRecord]:
    """All primes p <= prime_limit at which f has a root mod p, with the least
    root each, in ascending prime order.

    The primes up to _SCAN_PRIMES_UP_TO (2^14) are found together by one scan
    of f(0), f(1), ... against the product of the primes still unresolved
    (_least_roots_by_scan): at most p_max gcds against a product of at most
    about 1.44 * p_max bits, so the cost grows with the square of the largest
    prime scanned, with no polynomial arithmetic per prime.

    Each prime above the threshold is handled alone in F_p[x]: f mod p is
    made monic, x^p mod f is found by square-and-multiply, and
    h = gcd(f, x^p - x) is the product of the distinct linear factors of f.
    If deg h >= 1, h is split by equal-degree factorisation with
    gcd(h, (x + a)^((p-1)/2) - 1) for the fixed shifts a = 1, 2, 3, ...
    (mod p), so no randomness is involved, and the least of its roots is
    reported. That costs about deg^2 * log p operations mod p per prime,
    linear in pi(L) for L = prime_limit. The threshold lies below the
    measured crossover of the two paths, and it keeps the quadratic scan
    away from large limits (the CLI allows up to 10^6), where it would
    dominate the cost.

    Every root, from either path, is re-verified in full precision before
    being recorded.
    """
    if f.ring != ZZ:
        raise UnsupportedRingError("the prime search runs over integer polynomials")
    if not f or f.degree() < 1:
        raise ConstantPolynomialError("the prime search needs a nonconstant polynomial")
    if ZZ.coerce(prime_limit) < 2:
        raise ValueError("prime_limit must be at least 2")
    primes = primes_up_to(prime_limit)
    scanned = _least_roots_by_scan(f.coeffs, [p for p in primes if p <= _SCAN_PRIMES_UP_TO])
    records = []
    for p in primes:
        k = scanned.get(p) if p <= _SCAN_PRIMES_UP_TO else _least_root_mod(f.coeffs, p)
        if k is not None:
            if f.evaluate(k) % p:
                raise VerificationError(
                    f"modular root {k} of {f} failed the exact recheck at p = {p}"
                )
            records.append(PrimeSolvabilityRecord(p, k))
    return records


def _least_roots_by_scan(coeffs: Sequence[int], primes: Sequence[int]) -> dict[int, int]:
    """Least root in [0, p) of the integer polynomial with these ascending
    coefficients modulo each of the primes that has one.

    Evaluates f(k) exactly at k = 0, 1, 2, ... and takes gcd(f(k), pending),
    where pending is the product of the primes neither hit nor passed yet.
    If p divides f(k) for some k >= p, it divides f(k mod p), so a prime's
    first hit is its least root, and a prime that k reaches unhit has no root
    and leaves pending. A gcd that is not prime (f(k) == 0, or two primes
    sharing a least root) is split over the primes; every prime it holds is
    still pending, so greater than k.
    """
    roots = {}
    pending = math.prod(primes)
    unresolved = set(primes)
    descending = coeffs[::-1]
    k = 0
    while pending > 1:
        value = 0
        for c in descending:
            value = value * k + c
        g = math.gcd(value, pending)
        if g > 1:
            pending //= g
            for p in [g] if g in unresolved else [p for p in unresolved if not g % p]:
                roots[p] = k
                unresolved.remove(p)
        k += 1
        if k in unresolved:
            pending //= k
            unresolved.remove(k)
    return roots


# --- F_p[x] on ascending int lists, for sf_search ---------------------------
#
# Coefficients of a result lie in [0, p) and trailing zeros are stripped, so
# [] is the zero polynomial. Divisors are monic.


def _least_root_mod(coeffs: Sequence[int], p: int) -> int | None:
    """Least root in [0, p) of the integer polynomial with these ascending
    coefficients modulo the prime p, or None."""
    f = _fp_strip([c % p for c in coeffs])
    if not f or not f[0]:
        return 0
    if len(f) == 1:
        return None
    f = _fp_monic(f, p)
    if len(f) > 2:
        f = _fp_gcd(f, _fp_sub_x_power(_fp_pow_linear(0, p, f, p), 1, p), p)
        if len(f) == 1:
            return None
    # f now splits into distinct linear factors, none of them x. Then f has
    # at most p - 1 roots, so for p = 2 the loop below never splits.
    roots = []
    pending = [f]
    shift = 1
    while pending:
        h = pending.pop()
        if len(h) == 2:
            roots.append(-h[0] % p)
            continue
        while True:
            t = _fp_pow_linear(shift % p, (p - 1) // 2, h, p)
            shift += 1
            g = _fp_gcd(h, _fp_sub_x_power(t, 0, p), p)
            if 1 < len(g) < len(h):
                pending += [g, _fp_exact_quo(h, g, p)]
                break
    return min(roots)


def _fp_strip(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _fp_monic(a: list[int], p: int) -> list[int]:
    inverse = pow(a[-1], -1, p)
    return [c * inverse % p for c in a]


def _fp_sub_x_power(a: list[int], k: int, p: int) -> list[int]:
    """a - x^k."""
    a = a + [0] * (k + 1 - len(a))
    a[k] = (a[k] - 1) % p
    return _fp_strip(a)


def _fp_rem(a: list[int], m: list[int], p: int) -> list[int]:
    """Remainder of a (coefficients any integers) by the monic m. The list a
    is overwritten."""
    n = len(m) - 1
    for i in range(len(a) - 1, n - 1, -1):
        c = a[i] % p
        if c:
            k = i - n
            for j in range(n):
                a[k + j] -= c * m[j]
    return _fp_strip([c % p for c in a[:n]])


def _fp_exact_quo(a: list[int], m: list[int], p: int) -> list[int]:
    """Quotient of a by the monic m, which divides it."""
    n = len(m) - 1
    a = list(a)
    q = [0] * (len(a) - n)
    for i in range(len(a) - 1, n - 1, -1):
        c = q[i - n] = a[i] % p
        for j in range(n):
            a[i - n + j] -= c * m[j]
    return q


def _fp_sqrmod(a: list[int], m: list[int], p: int) -> list[int]:
    """a^2 mod m, each cross term computed once."""
    product = [0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        if x:
            product[2 * i] += x * x
            x2 = 2 * x
            for j in range(i + 1, len(a)):
                product[i + j] += x2 * a[j]
    return _fp_rem(product, m, p)


def _fp_pow_linear(a: int, e: int, m: list[int], p: int) -> list[int]:
    """(x + a)^e mod m by square-and-multiply. Each multiplication by x + a
    is a shift plus one reduction step, not a full product."""
    r = [1]
    for bit in bin(e)[2:]:
        r = _fp_sqrmod(r, m, p)
        if bit == "1":
            shifted = [0] + r
            for i, c in enumerate(r):
                shifted[i] += a * c
            r = _fp_rem(shifted, m, p)
    return r


def _fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd of the monic a and any b."""
    a = list(a)
    while b:
        b = _fp_monic(b, p)
        a, b = b, _fp_rem(a, b, p)
    return a


def sf_difference_growth(
    f: Poly, c: int, limits: Sequence[int]
) -> list[tuple[int, int]]:
    """Sizes of {p prime: f has a root mod p, p does not divide c} below each
    limit, ascending.

    The underlying set is infinite for nonconstant f and nonzero c, but no
    finite computation decides that; this reports the monotone counts instead
    of a verdict. A c or a limit that is not an int, such as a float, raises
    TypeError.
    """
    if ZZ.coerce(c) == 0:
        raise ZeroInputError("c must be nonzero")
    bounds = sorted(ZZ.coerce(limit) for limit in limits)
    if not bounds:
        raise ValueError("need at least one limit")
    found = [r.prime for r in sf_search(f, bounds[-1]) if c % r.prime != 0]
    return [(bound, sum(1 for p in found if p <= bound)) for bound in bounds]


@dataclass(frozen=True)
class ZWUnitReport:
    """Outcome of evaluating x**2 + 1 at seeded random points of Z[W].

    Any entry in failures would be a genuine counterexample to the unit claim
    and must be surfaced loudly by callers; none exists. certified counts the
    verdicts proved by a square root of -1, trial_division those that fell
    back to WRational.is_unit.
    """

    trials: int
    seed: int
    failures: tuple
    certified: int = 0
    trial_division: int = 0

    @property
    def passes(self) -> int:
        return self.trials - len(self.failures)

    @property
    def all_units(self) -> bool:
        return not self.failures


def _unit_verdict(value: WRational, root: int) -> tuple[bool, bool]:
    """Whether the nonzero value is a unit of Z[W], and whether that was
    certified without trial division.

    Let m be the odd part of value's numerator. When m == 1 or root**2 = -1
    (mod m), -1 is a square modulo every prime p | m, so p = 1 mod 4 by
    Euler's criterion; with 2 a W prime, value is a unit. Otherwise
    value.is_unit() decides by trial division.
    """
    n = abs(value.num)
    m = n >> ((n & -n).bit_length() - 1)
    if m == 1 or pow(root, 2, m) == m - 1:
        return True, True
    return value.is_unit(), False


def zw_unit_demo(trials: int, seed: int = DEFAULT_DEMO_SEED) -> ZWUnitReport:
    """Evaluate x**2 + 1 at seeded random elements of Z[W] and test every value
    for unit-ness.

    Arguments are a/b with |a| <= 10**4 and b a product of at most two of the
    allowed primes below 100. For the reduced argument a/b the value is
    (a**2 + b**2)/b**2, and since b is prime to a**2 + b**2, a * b**-1 is a
    square root of -1 modulo it. That root certifies each verdict (see
    _unit_verdict); a value it failed to certify would go to trial division,
    and none does.
    """
    trials = ZZ.coerce(trials)
    if trials < 1:
        raise ValueError("trials must be positive")
    seed = ZZ.coerce(seed)
    rng = random.Random(seed)
    failures = []
    certified = 0
    for _ in range(trials):
        a = rng.randint(-10_000, 10_000)
        b = math.prod(
            rng.choice(W_PRIMES_UNDER_100) for _ in range(rng.randint(0, 2))
        )
        argument = WRational(a, b)
        value = argument * argument + 1
        root = argument.num * pow(argument.den, -1, value.num)
        unit, proved = _unit_verdict(value, root)
        certified += proved
        if not unit:
            failures.append((argument, value))
    return ZWUnitReport(trials, seed, tuple(failures), certified, trials - certified)


@dataclass(frozen=True)
class ChebPair:
    """Index n with p_n = T_n and q_n = U_{n-1}, the Chebyshev polynomials of
    the coupled recurrences p_{n+1} = 2x*p_n - p_{n-1} (p_0 = 1, p_1 = x) and
    likewise for q (q_0 = 0, q_1 = 1)."""

    n: int
    p: Poly
    q: Poly


def cheb_generate(n_max: int) -> list[ChebPair]:
    """Pairs for n = 0..n_max with exact integer coefficients; each p_n with
    n >= 1 is checked to be primitive."""
    if ZZ.coerce(n_max) < 0:
        raise ValueError("n_max must be nonnegative")
    return [_cheb_pair(n) for n in range(n_max + 1)]


def _cheb_u(m: int) -> list[int]:
    """Ascending coefficients of U_m, [] for m = -1. The coefficient of
    x^(m-2k) is (-1)^k C(m-k, k) 2^(m-2k) (DLMF 18.5.11), each an exact
    integer ratio of the one before."""
    if m < 0:
        return []
    coeffs = [0] * (m + 1)
    c = coeffs[m] = 2**m
    for k in range(1, m // 2 + 1):
        j = m - 2 * k
        c = -c * (j + 2) * (j + 1) // (4 * k * (m - k + 1))
        coeffs[j] = c
    return coeffs


def _cheb_pair(n: int) -> ChebPair:
    """The pair of index n, from T_n = U_n - x*U_{n-1}."""
    u, q = _cheb_u(n), _cheb_u(n - 1)
    for i, c in enumerate(q):
        u[i + 1] -= c
    p = Poly._trusted(u, ZZ)
    if n >= 1 and not is_primitive(p):
        raise VerificationError(f"p_{n} lost primitivity")
    return ChebPair(n, p, Poly._trusted(q, ZZ))


@dataclass(frozen=True)
class ChebCertifyReport:
    """Both halves of the p_n | q_{2n} check: pointwise evaluation and the
    polynomial certificate."""

    n: int
    evaluation: EvalDivReport
    certificate: DivisibilityCertificate
    passed: bool


def cheb_certify(n: int, eval_range: Iterable[int] | None = None) -> ChebCertifyReport:
    """Check p_n | q_{2n} twice: pointwise on the sample range (skipping zeros
    of p_n) and as polynomials with a multiplication-verified quotient."""
    if ZZ.coerce(n) < 1:
        raise ValueError("n must be at least 1")
    divisor = _cheb_pair(n).p
    dividend = Poly._trusted(_cheb_u(2 * n - 1), ZZ)
    samples = list(eval_range) if eval_range is not None else default_samples()
    evaluation = eval_divisibility(dividend, divisor, samples)
    certificate = certify_divisibility(dividend, divisor)
    passed = evaluation.verdict == "ALL_DIVIDE" and certificate.verdict == "DIVIDES"
    return ChebCertifyReport(n, evaluation, certificate, passed)
