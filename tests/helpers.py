"""Shared generators for randomized tests.

Random polynomials use coefficients uniform in [-50, 50] and degrees uniform
in [1, 12] unless stated otherwise, always from an explicitly seeded RNG so
every run sees the same instances.
"""

import random

from dringkit import (
    Poly,
    PrimeSolvabilityRecord,
    QuadRing,
    ZZ,
    primes_up_to,
    primitive_part,
)
from dringkit.polynomials import PseudoDivResult


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
# every residue of every prime, O(sum of p * deg). The F_p[x] root finder must
# reproduce its records exactly.


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
