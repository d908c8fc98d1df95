"""Executable divisibility experiments: pointwise checks, certification,
prime searches, the Chebyshev pairs and the unit demo.

The statements behind these procedures quantify over all but finitely many
integers; the procedures substitute finite, reproducible sample windows and
say so in their reports.
"""

from __future__ import annotations

import math
import operator
import random
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from itertools import accumulate, chain, islice

from .errors import (
    ConstantDivisorError,
    ConstantPolynomialError,
    EmptySampleSetError,
    NotPrimitiveError,
    UnsupportedRingError,
    VerificationError,
)
from .polynomials import Poly, _identity_holds, exact_divide, is_primitive
from .rings import ZZ, Record, WRational, primes_up_to

DEFAULT_WINDOW = 20
# sf_search finds the least roots of every prime up to here in one scan.
_SCAN_PRIMES_UP_TO = 2**14
# The scan takes one gcd against its pending product per run of at most
# _RUN_VALUES consecutive values of at most _RUN_BITS bits together.
_RUN_VALUES = 64
_RUN_BITS = 2048
# It makes its values by differences, _DIFFERENCE_CHUNK at a time, when it
# scans at least _DIFFERENCE_SPAN points per coefficient of f.
_DIFFERENCE_SPAN = 64
_DIFFERENCE_CHUNK = 512
DEFAULT_DEMO_SEED = 1729
W_PRIMES_UNDER_100 = (2, 5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97)

SAMPLE_WINDOW_NOTE = (
    "pointwise divisibility was checked on a finite sample window; the "
    "underlying statements quantify over all but finitely many integers"
)


class EvalDivReport(Record):
    """Tally of the pointwise checks g(k) | f(k) over a sample list.

    Failures hold (point, divisor value, dividend value) triples; vacuous
    counts the samples where the divisor vanished.
    """

    __slots__ = ("checked", "vacuous", "failures", "verdict")

    @property
    def divisible(self) -> int:
        return self.checked - self.vacuous - len(self.failures)


def eval_divisibility(f: Poly, g: Poly, samples: Iterable) -> EvalDivReport:
    """Check g(k) | f(k) at every sample, skipping (and counting) zeros of g.

    g's values come from one Poly.values call over the samples, and f's from
    one over the samples where g does not vanish; the samples are then
    walked in their given order, duplicates included.
    """
    f._check_ring(g)
    if not g:
        raise ZeroDivisionError("the divisor polynomial is zero")
    points = list(samples)
    if not points:
        raise EmptySampleSetError("need at least one sample point")
    gvals = g.values(points)
    fvals = f.values([k for k, gval in gvals.items() if gval])
    vacuous = 0
    failures = []
    for k in points:
        gval = gvals[k]
        if not gval:
            vacuous += 1
            continue
        fval = fvals[k]
        if f.ring.divides(gval, fval) is None:
            failures.append((int(k) if isinstance(k, int) else k, gval, fval))
    verdict = "ALL_DIVIDE" if not failures else "FAILED"
    return EvalDivReport(len(points), vacuous, tuple(failures), verdict)


class DivisibilityCertificate(Record):
    """Verdict on g | f in R[x], with a verified quotient or a witness point.

    The quotient is present exactly when the verdict is DIVIDES. A witness is
    a point k with g(k) != 0 and g(k) not dividing f(k); it may be absent on
    NOT_DIVIDES when the bounded scan found none.
    """

    __slots__ = ("verdict", "quotient", "witness")


def witness_scan_order(bound: int) -> Iterator[int]:
    """0, 1, -1, 2, -2, ...: small witnesses first, so reports stay readable."""
    yield 0
    for k in range(1, bound + 1):
        yield k
        yield -k


def certify_divisibility(f: Poly, g: Poly, search_bound: int = 1000) -> DivisibilityCertificate:
    """Decide g | f in R[x] for primitive nonconstant g over Z (or a
    norm-Euclidean quadratic ring).

    The scan's first point, k = 0, costs no evaluation: g(0) and f(0) are
    the constant terms, so when g(0) != 0 does not divide f(0) the answer is
    NOT_DIVIDES with witness 0 and no division runs. Otherwise g is divided
    into f, and a quotient is re-verified by multiplication. On failure the
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
    g0 = g.coeffs[0]
    if f and g0 and f.ring.divides(g0, f.coeffs[0]) is None:
        return DivisibilityCertificate("NOT_DIVIDES", None, 0)
    quotient = exact_divide(f, g)
    if quotient is not None:
        if not _identity_holds(f, g, quotient):
            raise VerificationError("certified quotient failed re-expansion")
        return DivisibilityCertificate("DIVIDES", quotient, None)
    for k in witness_scan_order(search_bound):
        gval = g.evaluate(k)
        if gval and f.ring.divides(gval, f.evaluate(k)) is None:
            return DivisibilityCertificate("NOT_DIVIDES", None, k)
    return DivisibilityCertificate("NOT_DIVIDES", None, None)


class PrimeSolvabilityRecord(Record):
    """A prime p together with the least root of f in [0, p) modulo p."""

    __slots__ = ("prime", "root")

    def __init__(self, prime: int, root: int) -> None:
        set_prime, set_root = self._setters  # Record.__init__ unrolled, for speed
        set_prime(self, prime)
        set_root(self, root)


def sf_search(f: Poly, prime_limit: int) -> list[PrimeSolvabilityRecord]:
    """All primes p <= prime_limit at which f has a root mod p, with the least
    root each, in ascending prime order.

    The primes up to _SCAN_PRIMES_UP_TO (2^14) are found together by one scan
    of f(0), f(1), ... against the product of the primes still unresolved
    (_least_roots_by_scan), with no polynomial arithmetic per prime. The
    values are taken in runs of consecutive points. Each run takes one gcd
    of its values' product against that product, and only a run whose gcd
    exceeds 1 is walked, value by value, against that small gcd; taken in
    order, a prime's first hit is its least root. The scan still makes up
    to p_max values against a product of about 1.44 * p_max bits, so its
    cost grows with the square of the largest prime scanned.

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
    coefficients modulo each of the ascending primes that has one.

    Walks k = 0, 1, 2, ... against pending, the product of the primes neither
    hit nor passed yet. If p divides f(k) for some k >= p, it divides
    f(k mod p), and k mod p < k; so, taking the points in order, a prime's
    first hit is its least root, and a prime that k reaches unhit has no root
    and leaves pending. That holds for f(k) == 0 too, which hits every
    pending prime at once.

    The points come in runs of consecutive values, at most _RUN_VALUES of
    them and, as far as a bound on |f(k)| tells, at most _RUN_BITS bits
    together. One g = gcd(prod(run), pending) per run finds every pending
    prime that divides a value of the run. Only if g > 1 is the run walked in
    order, each value against the small g, until g is used up: the primes of
    gcd(f(k), g) are hit at k and leave g. A pending prime can never first
    divide f(k) at k >= p, so leaving a prime inside the run in pending
    changes no root, and the primes the run's end has passed unhit leave
    pending together, once per run. A gcd that is not prime (f(k) == 0, or
    two primes sharing a least root) is split by trial division over the
    primes not yet passed, which hold all of its factors.

    Per value that costs one step of _values, a share of one product and one
    gcd against pending, and one small gcd when its run is walked, in place
    of one gcd against the whole of pending. Values bounded by more than
    _RUN_BITS / 2 bits run alone: one gcd against pending each, as without
    runs.
    """
    roots = {}
    pending = math.prod(primes)
    values = _values(coeffs, primes[-1] if primes else 0)
    degree = len(coeffs) - 1
    # |f(k)| <= sum |c_i| * k^degree for k >= 1
    size = sum(map(abs, coeffs)).bit_length()
    k = 0
    passed = 0  # primes[:passed] are the primes <= k
    while pending > 1:
        bits = size + degree * (k + _RUN_VALUES).bit_length()
        run = list(islice(values, max(1, min(_RUN_VALUES, _RUN_BITS // bits))))
        g = math.gcd(math.prod(run), pending)
        if g > 1:
            pending //= g
            for j, value in enumerate(run, k):
                h = math.gcd(value, g)
                if h > 1:
                    g //= h
                    for p in _squarefree_factors(h, primes, passed):
                        roots[p] = j
                    if g == 1:
                        break
        k += len(run)
        end = bisect_right(primes, k, passed)
        pending //= math.prod([p for p in primes[passed:end] if p not in roots])
        passed = end
    return roots


def _squarefree_factors(h: int, primes: Sequence[int], start: int) -> Iterator[int]:
    """The prime factors of the squarefree h > 1, each of which is in the
    ascending primes[start:], by trial division."""
    for i in range(start, len(primes)):
        p = primes[i]
        if p * p > h:
            break
        if not h % p:
            yield p
            h //= p
    if h > 1:
        yield h


def _values(coeffs: Sequence[int], stop: int) -> Iterator[int]:
    """f(0), f(1), ..., f(stop - 1) for the integer polynomial f with these
    ascending coefficients.

    Each value costs deg f steps either way. If stop is at least
    _DIFFERENCE_SPAN times deg f + 1, the points f(0), ..., f(deg f) come by
    Horner's rule and the rest by f's backward differences, deg f additions
    a value (Knuth, TAOCP vol. 2, 4.6.4); otherwise every value comes by
    Horner's rule, one at a time as the scan asks for it.
    """
    degree = len(coeffs) - 1
    descending = coeffs[::-1]

    def horner(k: int) -> int:
        value = 0
        for c in descending:
            value = value * k + c
        return value

    if (degree + 1) * _DIFFERENCE_SPAN > stop:
        return map(horner, range(stop))
    head = [horner(k) for k in range(degree + 1)]
    return chain(head, chain.from_iterable(_difference_chunks(head, stop)))


def _difference_chunks(head: list[int], stop: int) -> Iterator[list[int]]:
    """f(len(head)), ..., f(stop - 1), _DIFFERENCE_CHUNK values at a time,
    from head = [f(0), ..., f(deg f)].

    The state is the backward differences D_j = nabla^j f(k) at the last
    point k, for j < deg f; D_deg f = (deg f)! * lc(f) is constant. A chunk
    of n further values is one itertools.accumulate pass per order, from the
    highest down: order j at the new points is D_j plus the running sum of
    order j + 1 there.
    """
    state = []
    row = head
    while row:
        state.append(row[-1])
        row = list(map(operator.sub, islice(row, 1, None), row))
    top = state.pop()
    state.reverse()
    for start in range(len(head), stop, _DIFFERENCE_CHUNK):
        row = [top] * min(_DIFFERENCE_CHUNK, stop - start)
        for j, last in enumerate(state):
            row[0] += last
            row = list(accumulate(row))
            state[j] = row[-1]
        yield row


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


class ZWUnitReport(Record):
    """Outcome of evaluating x**2 + 1 at seeded random points of Z[W]: the
    number of trials and the seed. Every value was proved a unit, since one
    that is not certified raises instead. passes (trials) and all_units
    (True) remain for the benchmark's worker and checker, which read them.
    """

    __slots__ = ("trials", "seed")

    @property
    def passes(self) -> int:
        return self.trials

    @property
    def all_units(self) -> bool:
        return True


def _certifies_unit(n: int, root: int) -> bool:
    """Whether root**2 = -1 modulo n >= 1, which proves every element of Z[W]
    with numerator n a unit: -1 is then a square modulo every odd prime
    p | n, so p = 1 mod 4 by Euler's criterion, and 2 is a W prime."""
    return pow(root, 2, n) == n - 1


def zw_unit_demo(trials: int, seed: int = DEFAULT_DEMO_SEED) -> ZWUnitReport:
    """Evaluate x**2 + 1 at seeded random elements of Z[W] and prove every
    value a unit.

    Arguments are a/b with |a| <= 10**4 and b a product of at most two of the
    allowed primes below 100, each validated by the WRational constructor:
    one membership lookup per trial, and one trial division per distinct
    denominator, of which there are at most 1 + 12 + 78 = 91.
    Each number is drawn from getrandbits by rejection, as Random._randbelow
    draws it: a from 15 bits, the count of primes from 2 and each prime's
    index from 4, redrawn while out of range. The stream is the one that
    randint(-10**4, 10**4), randint(0, 2) and choice(W_PRIMES_UNDER_100)
    give, so a seed names the same arguments as through those calls.
    random.Random seeds from |seed|, so -seed draws the trials of seed.
    For the reduced argument a/b the value is n/b**2 with n = a**2 + b**2,
    in lowest terms since b is prime to n, and only n needs a proof (b was
    validated): a * b**-1 is a square root of -1 modulo n, which certifies
    the value (see _certifies_unit). A value it fails to certify would be an
    arithmetic bug and raises VerificationError.
    """
    trials = ZZ.coerce(trials)
    if trials < 1:
        raise ValueError("trials must be positive")
    seed = ZZ.coerce(seed)
    draw = random.Random(seed).getrandbits
    primes = W_PRIMES_UNDER_100
    for _ in range(trials):
        a = draw(15)
        while a > 20_000:
            a = draw(15)
        count = draw(2)
        while count > 2:
            count = draw(2)
        b = 1
        for _ in range(count):
            i = draw(4)
            while i >= 12:
                i = draw(4)
            b *= primes[i]
        argument = WRational(a - 10_000, b)
        a, b = argument.num, argument.den
        n = a * a + b * b
        root = a * pow(b, -1, n)
        if not _certifies_unit(n, root):
            raise VerificationError(f"({argument})^2 + 1 = {n}/{b * b} was not certified a unit")
    return ZWUnitReport(trials, seed)


class ChebPair(Record):
    """Index n with p_n = T_n and q_n = U_{n-1}, the Chebyshev polynomials of
    the coupled recurrences p_{n+1} = 2x*p_n - p_{n-1} (p_0 = 1, p_1 = x) and
    likewise for q (q_0 = 0, q_1 = 1)."""

    __slots__ = ("n", "p", "q")


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


class ChebCertifyReport(Record):
    """Both halves of the p_n | q_{2n} check: pointwise evaluation and the
    polynomial certificate."""

    __slots__ = ("n", "evaluation", "certificate", "passed")


def cheb_certify(n: int, eval_range: Iterable[int] | None = None) -> ChebCertifyReport:
    """Check p_n | q_{2n} twice: pointwise on the sample range (skipping zeros
    of p_n) and as polynomials with a multiplication-verified quotient.

    The quotient is the one the identity U_{2n-1} = 2 T_n U_{n-1} names,
    2 * q_n from the pair already built; p_n * (2 * q_n) == q_{2n} is
    re-expanded by _identity_holds, as every certified quotient is, so no
    long division runs. p_n's primitivity is checked once, by _cheb_pair.
    """
    n = ZZ.coerce(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    pair = _cheb_pair(n)
    divisor = pair.p
    dividend = Poly._trusted(_cheb_u(2 * n - 1), ZZ)
    if eval_range is None:
        eval_range = range(-DEFAULT_WINDOW, DEFAULT_WINDOW + 1)
    evaluation = eval_divisibility(dividend, divisor, eval_range)
    quotient = pair.q * 2
    if not _identity_holds(dividend, divisor, quotient):
        raise VerificationError("certified quotient failed re-expansion")
    certificate = DivisibilityCertificate("DIVIDES", quotient, None)
    return ChebCertifyReport(n, evaluation, certificate, evaluation.verdict == "ALL_DIVIDE")
