"""Shared generators for randomized tests.

Random polynomials use coefficients uniform in [-50, 50] and degrees uniform
in [1, 12] unless stated otherwise, always from an explicitly seeded RNG so
every run sees the same instances.
"""

import math
import random
from dataclasses import dataclass
from typing import Sequence

from dringkit import (
    ChebPair,
    DenominatorNotInW,
    EmptySampleSetError,
    EvalDivReport,
    NORM_EUCLIDEAN_D,
    Poly,
    PolyParseError,
    PrimeSolvabilityRecord,
    QuadInt,
    QuadRing,
    RingMismatchError,
    UnsupportedRingError,
    VerificationError,
    WRational,
    ZeroInputError,
    ZZ,
    is_primitive,
    primes_up_to,
    primitive_part,
)
from dringkit.lab import W_PRIMES_UNDER_100
from dringkit.parsing import MAX_EXPONENT, MAX_LITERAL_DIGITS
from dringkit.polynomials import PseudoDivResult, _int_product
from dringkit.rings import _TRIAL_DIVISION_CAP, _first_non_w_prime, _round_half_to_zero


def rand_coeff(rng: random.Random, ring, bound: int = 50):
    if ring == ZZ:
        return rng.randint(-bound, bound)
    return ring.element(rng.randint(-bound, bound), rng.randint(-bound, bound))


def rand_nonzero_coeff(rng: random.Random, ring, bound: int = 50):
    while True:
        c = rand_coeff(rng, ring, bound)
        if c:
            return c


def rand_poly(rng: random.Random, ring=ZZ, min_deg: int = 1, max_deg: int = 12,
              bound: int = 50) -> Poly:
    degree = rng.randint(min_deg, max_deg)
    coeffs = [rand_coeff(rng, ring, bound) for _ in range(degree)]
    coeffs.append(rand_nonzero_coeff(rng, ring, bound))
    return Poly(coeffs, ring)


def rand_primitive(rng: random.Random, ring=ZZ, min_deg: int = 1, max_deg: int = 12,
                   bound: int = 50) -> Poly:
    """A random primitive polynomial, obtained by stripping the content."""
    _, prim = primitive_part(rand_poly(rng, ring, min_deg, max_deg, bound))
    return prim


def brute_is_prime(n: int) -> bool:
    """Trial-division primality check, independent of the library sieve."""
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1
    return True


TEST_QUAD_DS = (-1, -3, 5)

# Eight norm-Euclidean fields, imaginary and real, with t = 0 and t = 1, and
# two rings without a gcd: -5 and 999997 = 757 * 1321 = 1 (mod 4).
KERNEL_QUAD_DS = (-1, -3, -7, -11, 2, 3, 5, 73, -5, 999_997)


# --- reference division loops ---------------------------------------------
#
# Division written with whole-Poly arithmetic, one monomial step at a time,
# independently of the in-place list kernel in dringkit.polynomials. The
# kernel must reproduce their answers exactly.


def oracle_pseudo_divide(f: Poly, g: Poly) -> PseudoDivResult:
    ring = f.ring
    n = g.degree()
    if not f or f.degree() < n:
        return PseudoDivResult(ring.one, Poly.zero(ring), f, 0)
    s = f.degree() - n + 1
    lead = g.leading_coefficient()
    q = Poly.zero(ring)
    r = f
    steps = 0
    while r and r.degree() >= n:
        t = Poly.monomial(r.leading_coefficient(), r.degree() - n, ring)
        q = q * lead + t
        r = r * lead - t * g
        steps += 1
    if steps != s:
        pad = lead ** (s - steps)
        q = q * pad
        r = r * pad
    return PseudoDivResult(lead**s, q, r, s)


def oracle_exact_divide(f: Poly, g: Poly) -> Poly | None:
    ring = f.ring
    if not f:
        return Poly.zero(ring)
    n = g.degree()
    if f.degree() < n:
        return None
    lead = g.leading_coefficient()
    q = Poly.zero(ring)
    r = f
    while r and r.degree() >= n:
        if ring == ZZ:
            c, rem = divmod(r.leading_coefficient(), lead)
            if rem:
                return None
        else:
            c = lead.divides(r.leading_coefficient())
            if c is None:
                return None
        t = Poly.monomial(c, r.degree() - n, ring)
        q = q + t
        r = r - t * g
    return q if not r else None


# --- reference prime search ---------------------------------------------------
#
# The exhaustive residue scan that sf_search replaced: Horner evaluation of
# every residue of every prime, O(sum of p * deg). Both of sf_search's root
# finders, the gcd scan of f(0), f(1), ... up to 2^14 and F_p[x] above it,
# must reproduce its records exactly.


def sf_search_scan(f: Poly, prime_limit: int) -> list[PrimeSolvabilityRecord]:
    records = []
    for p in primes_up_to(prime_limit):
        reduced = [c % p for c in f.coeffs]
        for k in range(p):
            acc = 0
            for c in reversed(reduced):
                acc = (acc * k + c) % p
            if acc == 0:
                records.append(PrimeSolvabilityRecord(p, k))
                break
    return records


# --- reference gcd scan -------------------------------------------------------
#
# The scan that lab._least_roots_by_scan batched: one Horner evaluation and one
# gcd against the whole pending product at every point k. The batched scan
# must return exactly its roots.


def least_roots_by_scan_reference(coeffs: Sequence[int], primes: Sequence[int]) -> dict[int, int]:
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


# --- reference factorisation -------------------------------------------------
#
# The 6k±1 wheel that rings.factorize used before it shared the library's
# trial-division generator: the oracle of factorize, is_squarefree and Z[W]
# membership.


def factorize_reference(n: int) -> dict[int, int]:
    """Factor n >= 1 by trial division, returning {prime: exponent}."""
    n = ZZ.coerce(n)
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    q = 5
    while q * q <= n:
        for p in (q, q + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        q += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# The WRational constructor as it was before it shared rings._reduce with
# _trusted: it built a temporary through _trusted, whose reduction and cap are
# inlined here, and read the reduced pair back from it.


def wrational_reference(num, den) -> tuple[int, int]:
    """The reduced (num, den) that WRational(num, den) stores, or what it raises."""
    if den == 0:
        raise ZeroDivisionError("denominator must be nonzero")
    if den < 0:
        num, den = -num, -den
    g = math.gcd(num, den)  # a TypeError for a float
    num //= g  # a plain int also for a bool
    den //= g
    if den > _TRIAL_DIVISION_CAP:
        raise ValueError(f"reduced denominator exceeds {_TRIAL_DIVISION_CAP}")
    p = _first_non_w_prime(den)
    if p is not None:
        raise DenominatorNotInW(f"prime {p} divides the denominator but is 3 mod 4")
    return num, den


# The per-trial loop of lab.zw_unit_demo before it built each value from the
# closed form (a^2 + b^2)/b^2: the value came from WRational arithmetic.


def zw_values_reference(trials: int, seed: int) -> list[str]:
    """str of each value x**2 + 1 that zw_unit_demo(trials, seed) certifies."""
    rng = random.Random(seed)
    values = []
    for _ in range(trials):
        a = rng.randint(-10_000, 10_000)
        b = math.prod(
            rng.choice(W_PRIMES_UNDER_100) for _ in range(rng.randint(0, 2))
        )
        argument = WRational(a, b)
        value = argument * argument + 1
        values.append(str(value))
    return values


# The draws of lab.zw_unit_demo as Random.randint and Random.choice make them,
# with each argument reduced by gcd and its value and root written out.


def zw_trials_reference(trials: int, seed: int) -> list[tuple[str, int]]:
    """(str(value), root) of each trial that zw_unit_demo(trials, seed)
    certifies: for the reduced argument a/b, the value (a^2 + b^2)/b^2 and
    root = a * b^-1 mod n, with n = a^2 + b^2."""
    rng = random.Random(seed)
    trials_seen = []
    for _ in range(trials):
        a = rng.randint(-10_000, 10_000)
        b = 1
        for _ in range(rng.randint(0, 2)):
            b *= rng.choice(W_PRIMES_UNDER_100)
        g = math.gcd(a, b)
        a, b = a // g, b // g
        n = a * a + b * b
        trials_seen.append((f"{n}/{b * b}", a * pow(b, -1, n)))
    return trials_seen


# --- reference parser ---------------------------------------------------------
#
# The character-by-character tokenizer and recursive-descent parser that the
# one-regex parser in dringkit.parsing replaced. The library must accept the
# same texts, build the same polynomials and reject the rest with the same
# message at the same position. (The tokenizer reads digits with str.isdigit,
# so it is only a reference on ASCII text.)


@dataclass(frozen=True)
class _Token:
    kind: str
    value: int | None
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            if j - i > MAX_LITERAL_DIGITS:
                raise PolyParseError(f"integer literal over {MAX_LITERAL_DIGITS} digits", i)
            value = int(text[i:j])
            if tokens and tokens[-1].kind == "^" and value > MAX_EXPONENT:
                raise PolyParseError(f"exponent above the cap of {MAX_EXPONENT}", i)
            tokens.append(_Token("int", value, i))
            i = j
            continue
        if c in "+-*^[]xw":
            tokens.append(_Token(c, None, i))
            i += 1
            continue
        raise PolyParseError(f"unexpected character {c!r}", i)
    tokens.append(_Token("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        token = self.tokens[self.i]
        self.i += 1
        return token

    def expect(self, kind: str, what: str) -> _Token:
        token = self.take()
        if token.kind != kind:
            raise PolyParseError(f"expected {what}", token.pos)
        return token


def parse_poly_reference(text: str, ring=ZZ) -> Poly:
    """Parse polynomial text over the given coefficient ring."""
    parser = _Parser(_tokenize(text))
    quad = isinstance(ring, QuadRing)
    terms: dict[int, object] = {}
    first = True
    while True:
        token = parser.peek()
        if token.kind == "end":
            if first:
                raise PolyParseError("empty polynomial", token.pos)
            break
        sign = 1
        if token.kind in "+-":
            parser.take()
            sign = -1 if token.kind == "-" else 1
        elif not first:
            raise PolyParseError("expected '+' or '-' between terms", token.pos)
        coeff, power = _parse_term(parser, ring, quad)
        current = terms.get(power, ring.zero)
        terms[power] = current + coeff * sign
        first = False
    size = max(terms) + 1
    return Poly([terms.get(i, ring.zero) for i in range(size)], ring)


def _parse_term(parser: _Parser, ring, quad: bool):
    token = parser.peek()
    if token.kind == "[":
        if not quad:
            raise PolyParseError("bracketed coefficients need a quadratic ring", token.pos)
        coeff = _parse_bracket(parser, ring)
        has_coeff = True
    elif token.kind == "int":
        parser.take()
        coeff = ring.coerce(token.value)
        has_coeff = True
    elif token.kind == "x":
        coeff = ring.one
        has_coeff = False
    else:
        raise PolyParseError("expected a term", token.pos)
    if has_coeff and parser.peek().kind == "*":
        parser.take()
        if parser.peek().kind != "x":
            raise PolyParseError("expected 'x' after '*'", parser.peek().pos)
    power = 0
    if parser.peek().kind == "x":
        parser.take()
        power = 1
        if parser.peek().kind == "^":
            parser.take()
            power = parser.expect("int", "a nonnegative integer exponent").value
    return coeff, power


def _parse_bracket(parser: _Parser, ring: QuadRing):
    parser.expect("[", "'['")
    sign = 1
    a = 0
    b = 0
    token = parser.peek()
    if token.kind in "+-":
        parser.take()
        sign = -1 if token.kind == "-" else 1
        token = parser.peek()
    if token.kind == "int":
        parser.take()
        if parser.peek().kind == "w":
            parser.take()
            b = sign * token.value
        else:
            a = sign * token.value
            nxt = parser.peek()
            if nxt.kind in "+-":
                parser.take()
                wsign = -1 if nxt.kind == "-" else 1
                part = parser.peek()
                if part.kind == "int":
                    parser.take()
                    parser.expect("w", "'w'")
                    b = wsign * part.value
                elif part.kind == "w":
                    parser.take()
                    b = wsign
                else:
                    raise PolyParseError("expected the w-part of the coefficient", part.pos)
    elif token.kind == "w":
        parser.take()
        b = sign
    else:
        raise PolyParseError("expected a quadratic coefficient", token.pos)
    parser.expect("]", "']'")
    return ring.element(a, b)


# --- reference evaluation -----------------------------------------------------
#
# Horner's rule on whole ring elements, the point coerced into the ring: the
# path Poly.evaluate keeps for every point but a plain int over Z[w].


def evaluate_reference(p: Poly, point):
    point = p.ring.coerce(point)
    acc = p.ring.zero
    for c in reversed(p.coeffs):
        acc = acc * point + c
    return acc


# --- reference pointwise divisibility -------------------------------------------
#
# The per-point loop that eval_divisibility replaced: g and then f evaluated
# at each sample in turn, with no pairing of k and -k. The library must build
# the same EvalDivReport, failures and their order included.


def eval_divisibility_reference(f: Poly, g: Poly, samples) -> EvalDivReport:
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


# --- reference Z[w] arithmetic on whole QuadInts --------------------------------
#
# The QuadInt versions of the kernels that now run on integer coordinates:
# the gcd descent, the generic schoolbook product, exact division by
# conjugate and norm, and the two polynomial division loops. The library must
# return the same coordinates, that is the same associate, not just an
# associate. QuadInt arithmetic itself goes through QuadRing.matrix, so the
# pair product below, written from w**2 = t*w + m alone, is its oracle.


def pair_product_reference(a: int, b: int, c: int, e: int, t: int, m: int) -> tuple[int, int]:
    """Coordinates of (a + b*w)(c + e*w) when w**2 = t*w + m."""
    be = b * e
    return a * c + m * be, a * e + b * c + t * be


def reduction_step_reference(x: QuadInt, y: QuadInt) -> QuadInt:
    """One division step: a remainder r = x - q*y with |norm(r)| < |norm(y)|."""
    n = y.norm()
    num = x * y.conjugate()
    q = QuadInt(_round_half_to_zero(num.a, n), _round_half_to_zero(num.b, n), x.ring)
    r = x - q * y
    bound = abs(n)
    if abs(r.norm()) < bound:
        return r
    radius = 1
    while True:
        best = None
        best_norm = bound
        for da in range(-radius, radius + 1):
            for db in range(-radius, radius + 1):
                cand = x - (q + QuadInt(da, db, x.ring)) * y
                cand_norm = abs(cand.norm())
                if cand_norm < best_norm:
                    best, best_norm = cand, cand_norm
        if best is not None:
            return best
        radius *= 2


def quad_gcd_reference(x: QuadInt, y: QuadInt) -> QuadInt:
    if not isinstance(x, QuadInt) or not isinstance(y, QuadInt):
        raise TypeError("quad_gcd expects quadratic integers")
    if x.ring != y.ring:
        raise RingMismatchError(
            f"cannot take a gcd across {x.ring} and {y.ring}"
        )
    if x.ring.d not in NORM_EUCLIDEAN_D:
        raise UnsupportedRingError(
            f"gcd needs a norm-Euclidean ring; d = {x.ring.d} is not whitelisted"
        )
    if not x and not y:
        raise ZeroInputError("gcd(0, 0) is undefined")
    while y:
        x, y = y, reduction_step_reference(x, y)
    return x


def product_reference(f: Poly, g: Poly) -> Poly:
    """Schoolbook product on whole ring elements, over any coefficient ring."""
    if not f.coeffs or not g.coeffs:
        return Poly._trusted([], f.ring)
    out = [f.ring.zero] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, c in enumerate(f.coeffs):
        if not c:
            continue
        for j, d in enumerate(g.coeffs, i):
            out[j] = out[j] + c * d
    return Poly._trusted(out, f.ring)


def quad_product_reference(f: Poly, g: Poly) -> Poly:
    """The Z[w][x] product as four integer schoolbook products on the
    coordinates, with t and n read directly instead of through
    QuadRing.matrix."""
    ring = f.ring
    f, g = f.coeffs, g.coeffs
    # (A + B*w)(C + E*w) = AC + n*BE + (AE + BC + t*BE)*w, as w**2 = t*w + n.
    a, b = [x.a for x in f], [x.b for x in f]
    c, e = [x.a for x in g], [x.b for x in g]
    t, n = ring.t, ring.n
    out = [
        QuadInt(ac + n * be, ae + bc + t * be, ring)
        for ac, ae, bc, be in zip(
            _int_product(a, c), _int_product(a, e),
            _int_product(b, c), _int_product(b, e),
        )
    ]
    return Poly._trusted(out, ring)


def divides_reference(x: QuadInt, other) -> QuadInt | None:
    """q with other == x * q, as other * conjugate(x) / norm(x), else None."""
    if not x:
        raise ZeroDivisionError("zero divides only zero")
    other = x.ring.coerce(other)
    n = x.norm()
    num = other * x.conjugate()
    if num.a % n or num.b % n:
        return None
    return QuadInt(num.a // n, num.b // n, x.ring)


def pseudo_divide_reference(f: Poly, g: Poly) -> PseudoDivResult:
    """Algorithm R on one list of whole ring elements, with deferred powers."""
    f._check_ring(g)
    if not g:
        raise ZeroDivisionError("pseudo-division by the zero polynomial")
    ring = f.ring
    n = g.degree()
    s = max(len(f.coeffs) - n, 0)
    lead = g.coeffs[n]
    low = g.coeffs[:n]
    powers = [ring.one]
    for _ in range(s):
        powers.append(powers[-1] * lead)
    u = list(f.coeffs)
    q = [ring.zero] * s
    for k in range(s - 1, -1, -1):
        u[k] = u[k] * powers[s - 1 - k]
        c = u[n + k]
        q[k] = c * powers[k]
        for j, d in enumerate(low, k):
            u[j] = lead * u[j] - c * d
    quotient = Poly._trusted(q, ring)
    remainder = Poly._trusted(u[:n], ring)
    multiplier = powers[s]
    if f * multiplier != g * quotient + remainder:
        raise VerificationError("pseudo-division identity failed")
    return PseudoDivResult(multiplier, quotient, remainder, s)


def exact_divide_reference(f: Poly, g: Poly) -> Poly | None:
    """Leading-coefficient elimination on one list of whole ring elements."""
    f._check_ring(g)
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    ring = f.ring
    n = g.degree()
    lead = g.coeffs[n]
    divides = ring.divides
    terms = [(i, d) for i, d in enumerate(g.coeffs[:n]) if d]
    r = list(f.coeffs)
    q = [ring.zero] * (len(r) - n)
    for k in range(len(q) - 1, -1, -1):
        c = r[n + k]
        if not c:
            continue
        c = divides(lead, c)
        if c is None:
            return None
        q[k] = c
        for i, d in terms:
            r[k + i] = r[k + i] - c * d
    if any(r[:n]):
        return None
    return Poly._trusted(q, ring)


def cheb_pairs_reference(n_max: int):
    """Chebyshev pairs for n = 0..n_max by the coupled recurrences, one at a
    time, holding only the last two."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    p_prev, p = Poly.one(ZZ), Poly.x(ZZ)
    q_prev, q = Poly.zero(ZZ), Poly.one(ZZ)
    yield ChebPair(0, p_prev, q_prev)
    for n in range(1, n_max + 1):
        if n > 1:
            p_prev, p = p, _two_x_times_minus(p, p_prev)
            q_prev, q = q, _two_x_times_minus(q, q_prev)
        if not is_primitive(p):
            raise VerificationError(f"p_{n} lost primitivity")
        yield ChebPair(n, p, q)


def _two_x_times_minus(a: Poly, b: Poly) -> Poly:
    """2x*a - b over Z in one pass over the coefficients."""
    out = [0]
    out.extend(2 * c for c in a.coeffs)
    out.extend([0] * (len(b.coeffs) - len(out)))
    for i, c in enumerate(b.coeffs):
        out[i] -= c
    return Poly._trusted(out, ZZ)
