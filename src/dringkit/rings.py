"""Exact arithmetic in Z, quadratic integer rings Z[w], and the localization Z[W].

Everything here is built on Python's arbitrary-precision integers; no value
ever passes through floating point. Division-like operations are exactness
checked: a quotient is returned only when it exists in the ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import chain, count

from .errors import (
    DenominatorNotInW,
    RingMismatchError,
    UnsupportedRingError,
    ZeroInputError,
)

# Quadratic fields whose ring of integers is norm-Euclidean, so gcd by
# nearest-quotient descent is available and unique factorization holds.
NORM_EUCLIDEAN_D = frozenset(
    {-11, -7, -3, -2, -1, 2, 3, 5, 6, 7, 11, 13, 17, 19, 21, 29, 33, 37, 41, 57, 73}
)

_MAX_ABS_D = 10**6
_MAX_W_DENOMINATOR = 10**12


def _decimal(n: int) -> str:
    """str(n), also for integers past the interpreter's int-to-str digit limit.

    The limit is left alone (sys.set_int_max_str_digits is process-wide);
    longer values are split at a power of ten and each half converted.
    """
    try:
        return str(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + _decimal(-n)
    half = n.bit_length() * 3 // 20  # about half the digits: log10(2) > 0.3
    high, low = divmod(n, 10**half)
    return _decimal(high) + _decimal(low).zfill(half)


def is_squarefree(n: int) -> bool:
    """True when no prime square divides n (n must be nonzero)."""
    n = abs(ZZ.coerce(n))
    if n == 0:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return False
        p += 1 if p == 2 else 2
    return True


def factorize(n: int) -> dict[int, int]:
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


def is_w_prime(p: int) -> bool:
    """The primes whose reciprocals are adjoined to form Z[W]: 2 and p = 1 mod 4."""
    return p == 2 or p % 4 == 1


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit by a sieve of Eratosthenes."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i, flag in enumerate(flags) if flag]


# Trial divisors for Z[W] membership: the odd primes below 2^16, sieved on
# first use rather than at import.
_W_TABLE_LIMIT = 2**16


@cache
def _odd_prime_table() -> tuple[int, ...]:
    return tuple(primes_up_to(_W_TABLE_LIMIT)[1:])


def _first_non_w_prime(n: int) -> int | None:
    """The least prime factor of n >= 1 that is 3 mod 4, or None when every
    prime factor is 2 or 1 mod 4.

    Trial division that returns at the first factor 3 mod 4 and divides out
    each factor 1 mod 4. Once p * p exceeds the cofactor m, m is 1 or a prime
    larger than every divisor tried. Past the prime table the odd numbers
    serve as candidates, so the cost is O(sqrt n) divisions at worst.
    """
    m = n >> ((n & -n).bit_length() - 1)
    for p in chain(_odd_prime_table(), count(_W_TABLE_LIMIT + 1, 2)):
        if p * p > m:
            break
        if not m % p:
            if not is_w_prime(p):
                return p
            m //= p
            while not m % p:
                m //= p
    return None if is_w_prime(m) else m


class IntegerRing:
    """The rational integers, used as a polynomial coefficient ring."""

    zero = 0
    one = 1

    def divides(self, a: int, b: int) -> int | None:
        """b / a when a divides b, else None."""
        q, r = divmod(b, a)
        return None if r else q

    def gcd(self, *values: int) -> int:
        return math.gcd(*values)

    def is_unit(self, c: int) -> bool:
        return c == 1 or c == -1

    def format(self, c: int) -> str:
        return _decimal(c)

    def coerce(self, value) -> int:
        if isinstance(value, QuadInt):
            raise RingMismatchError(
                "quadratic integer used where a rational integer is required"
            )
        if not isinstance(value, int):
            raise TypeError(f"exact integer required, got {type(value).__name__}")
        return int(value)  # a bool becomes the plain int it equals

    def __eq__(self, other) -> bool:
        return isinstance(other, IntegerRing)

    def __hash__(self) -> int:
        return hash(IntegerRing)

    def __str__(self) -> str:
        return "Z"

    def __repr__(self) -> str:
        return "ZZ"


ZZ = IntegerRing()


@dataclass(frozen=True)
class QuadRing:
    """The ring of integers Z[w] of Q(sqrt d) for square-free d.

    w = sqrt(d) when d = 2, 3 (mod 4) and (1 + sqrt(d))/2 when d = 1 (mod 4),
    so w**2 = t*w + n with (t, n) = (0, d) or (1, (d - 1)/4); t and n are set
    once, outside the fields. Elements are a + b*w with integer a, b.
    """

    d: int

    def __post_init__(self) -> None:
        ZZ.coerce(self.d)
        if self.d in (0, 1):
            raise ValueError("d must differ from 0 and 1")
        if abs(self.d) > _MAX_ABS_D:
            raise ValueError(f"|d| is capped at {_MAX_ABS_D}")
        if not is_squarefree(self.d):
            raise ValueError(f"d = {self.d} is not square-free")
        t = 1 if self.d % 4 == 1 else 0
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "n", (self.d - 1) // 4 if t else self.d)

    @property
    def zero(self) -> "QuadInt":
        return QuadInt(0, 0, self)

    @property
    def one(self) -> "QuadInt":
        return QuadInt(1, 0, self)

    @property
    def omega(self) -> "QuadInt":
        return QuadInt(0, 1, self)

    def element(self, a: int, b: int = 0) -> "QuadInt":
        return QuadInt(ZZ.coerce(a), ZZ.coerce(b), self)

    def coerce(self, value) -> "QuadInt":
        if isinstance(value, QuadInt):
            if value.ring != self:
                raise RingMismatchError(
                    f"element of {value.ring} used where {self} is required"
                )
            return value
        if isinstance(value, int):
            return QuadInt(int(value), 0, self)
        raise TypeError(f"cannot interpret {type(value).__name__} in {self}")

    def divides(self, a: "QuadInt", b: "QuadInt") -> "QuadInt | None":
        """b / a when a divides b in Z[w], else None."""
        return a.divides(b)

    def gcd(self, *values: "QuadInt") -> "QuadInt":
        """A gcd by norm-Euclidean descent over the nonzero values, left to right."""
        g = self.zero
        for c in values:
            if c:
                g = c if not g else quad_gcd(g, c)
        return g

    def is_unit(self, c: "QuadInt") -> bool:
        return c.is_unit()

    def format(self, c: "QuadInt") -> str:
        return f"[{c}]"

    def __str__(self) -> str:
        return f"Q(sqrt {self.d})"


@dataclass(frozen=True, eq=False)
class QuadInt:
    """Element a + b*w of a quadratic integer ring.

    The constructor is trusted, like Poly._trusted: the kernels build many
    elements per request from coordinates that are ints by construction, so
    it checks nothing. Values from outside enter through QuadRing.element or
    QuadRing.coerce, which reject floats.
    """

    a: int
    b: int
    ring: QuadRing

    def _coerce(self, other):
        if isinstance(other, QuadInt):
            if other.ring != self.ring:
                raise RingMismatchError(
                    f"cannot combine elements of {self.ring} and {other.ring}"
                )
            return other
        if isinstance(other, int):
            return QuadInt(other, 0, self.ring)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QuadInt(self.a + other.a, self.b + other.b, self.ring)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QuadInt(self.a - other.a, self.b - other.b, self.ring)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return QuadInt(-self.a, -self.b, self.ring)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ring = self.ring
        a, b, c, e = self.a, self.b, other.a, other.b
        be = b * e  # times w**2 = t*w + n
        return QuadInt(a * c + ring.n * be, a * e + b * c + ring.t * be, ring)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QuadInt":
        if n < 0:
            raise ValueError("negative powers leave the ring")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def __eq__(self, other) -> bool:
        if isinstance(other, QuadInt):
            if self.b == 0 and other.b == 0:
                return self.a == other.a
            return (
                self.ring == other.ring and self.a == other.a and self.b == other.b
            )
        if isinstance(other, int):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.ring.d))

    def conjugate(self) -> "QuadInt":
        """The image under the field automorphism w -> t - w; fixes exactly Z."""
        return QuadInt(self.a + self.ring.t * self.b, -self.b, self.ring)

    def norm(self) -> int:
        """The rational integer self * conjugate(self)."""
        a, b, ring = self.a, self.b, self.ring
        return a * a + ring.t * a * b - ring.n * b * b

    def is_unit(self) -> bool:
        return self.norm() in (1, -1)

    def divides(self, other) -> "QuadInt | None":
        """Return q with other == self * q, or None when no such q is in the ring.

        Computed as other * conjugate(self) / norm(self) on the coordinates,
        with both checked for exact divisibility.
        """
        if not self:
            raise ZeroDivisionError("zero divides only zero")
        ring = self.ring
        other = ring.coerce(other)
        t, n = ring.t, ring.n
        c, e = self.a + t * self.b, -self.b  # conjugate(self) = c + e*w
        a, b = other.a, other.b
        be = b * e
        norm = self.a * c + n * self.b * e
        qa, ra = divmod(a * c + n * be, norm)
        if ra:
            return None
        qb, rb = divmod(a * e + b * c + t * be, norm)
        if rb:
            return None
        return QuadInt(qa, qb, ring)

    def __str__(self) -> str:
        if self.b == 0:
            return _decimal(self.a)
        sign = "-" if self.b < 0 else "+"
        return f"{_decimal(self.a)}{sign}{_decimal(abs(self.b))}w"

    def __repr__(self) -> str:
        return f"QuadInt({self.a}, {self.b}, d={self.ring.d})"


def _round_half_to_zero(num: int, den: int) -> int:
    """Nearest integer to num/den with ties rounded toward zero (den nonzero)."""
    if den < 0:
        num, den = -num, -den
    if num >= 0:
        return (2 * num + den - 1) // (2 * den)
    return -((-2 * num + den - 1) // (2 * den))


def _reduction_step(x: tuple[int, int], y: tuple[int, int], ring: QuadRing) -> tuple[int, int]:
    """One division step on coordinate pairs (a, b) standing for a + b*w:
    a remainder r = x - q*y with |norm(r)| < |norm(y)|."""
    t, n = ring.t, ring.n
    xa, xb = x
    ya, yb = y
    ca, cb = ya + t * yb, -yb  # conjugate(y)
    norm = ya * ca + n * yb * cb
    be = xb * cb  # q = x * conjugate(y) / norm, rounded coordinatewise
    qa = _round_half_to_zero(xa * ca + n * be, norm)
    qb = _round_half_to_zero(xa * cb + xb * ca + t * be, norm)
    be = qb * yb  # r = x - q*y
    ra = xa - qa * ya - n * be
    rb = xb - qa * yb - qb * ya - t * be
    bound = abs(norm)
    if abs(ra * ra + t * ra * rb - n * rb * rb) < bound:
        return ra, rb
    # Coordinatewise nearest rounding is not norm-decreasing for every
    # whitelisted d: in the real fields the |norm| < 1 region is hyperbolic,
    # so the good quotient can sit many lattice steps away. Double the box
    # until it holds one (on the whitelist some quotient always shrinks the
    # norm) and keep its first remainder of least norm. The candidate
    # x - (q + da + db*w)*y is r - (da + db*w)*y. Each box skips the one
    # before it, already found empty; the first skips only r itself.
    radius, inner = 1, 0
    while True:
        best = None
        best_norm = bound
        row = range(-radius, radius + 1)
        outer_row = [*range(-radius, -inner), *range(inner + 1, radius + 1)]
        for da in row:
            sa, sb = ra - da * ya, rb - da * yb
            for db in outer_row if -inner <= da <= inner else row:
                be = db * yb
                pa, pb = sa - n * be, sb - db * ya - t * be
                cand_norm = abs(pa * pa + t * pa * pb - n * pb * pb)
                if cand_norm < best_norm:
                    best, best_norm = (pa, pb), cand_norm
        if best is not None:
            return best
        radius, inner = 2 * radius, radius


def quad_gcd(x: QuadInt, y: QuadInt) -> QuadInt:
    """A greatest common divisor (unique up to units) by norm-Euclidean descent.

    Requires the ring's d to lie on the norm-Euclidean whitelist; raises
    UnsupportedRingError otherwise and ZeroInputError when both arguments
    vanish. The descent runs on coordinate pairs; one QuadInt is built for
    the result.
    """
    if not isinstance(x, QuadInt) or not isinstance(y, QuadInt):
        raise TypeError("quad_gcd expects quadratic integers")
    if x.ring != y.ring:
        raise RingMismatchError(
            f"cannot take a gcd across {x.ring} and {y.ring}"
        )
    ring = x.ring
    if ring.d not in NORM_EUCLIDEAN_D:
        raise UnsupportedRingError(
            f"gcd needs a norm-Euclidean ring; d = {ring.d} is not whitelisted"
        )
    if not x and not y:
        raise ZeroInputError("gcd(0, 0) is undefined")
    u, v = (x.a, x.b), (y.a, y.b)
    while v[0] or v[1]:
        u, v = v, _reduction_step(u, v, ring)
    return QuadInt(u[0], u[1], ring)


@dataclass(frozen=True)
class WRational:
    """Reduced fraction whose denominator factors over {2} and primes = 1 mod 4.

    Construction normalizes the sign into the numerator, divides out the gcd,
    and trial-divides the reduced denominator to validate membership.

    Arithmetic does not re-check: the denominator of a sum, difference or
    product divides the product of two valid denominators, so every prime
    factor of it is already 2 or 1 mod 4. Results are built by _trusted, which
    keeps the gcd reduction and the cap and skips the trial division.
    """

    num: int
    den: int = 1

    def __post_init__(self) -> None:
        num, den = self.num, self.den
        if den == 0:
            raise ZeroDivisionError("denominator must be nonzero")
        if den < 0:
            num, den = -num, -den
        g = math.gcd(num, den)  # a TypeError for a float
        num //= g  # a plain int also for a bool
        den //= g
        if den > _MAX_W_DENOMINATOR:
            raise ValueError(f"reduced denominator exceeds {_MAX_W_DENOMINATOR}")
        p = _first_non_w_prime(den)
        if p is not None:
            raise DenominatorNotInW(f"prime {p} divides the denominator but is 3 mod 4")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _trusted(cls, num: int, den: int) -> "WRational":
        """num/den in lowest terms, for ints num and den > 0 where every prime
        factor of den is already known to be 2 or 1 mod 4.

        Skips the trial division of `__post_init__`; the gcd reduction and the
        cap on the reduced denominator stay.
        """
        g = math.gcd(num, den)
        num //= g
        den //= g
        if den > _MAX_W_DENOMINATOR:
            raise ValueError(f"reduced denominator exceeds {_MAX_W_DENOMINATOR}")
        x = object.__new__(cls)
        object.__setattr__(x, "num", num)
        object.__setattr__(x, "den", den)
        return x

    def _coerce(self, other):
        if isinstance(other, WRational):
            return other
        if isinstance(other, int):
            return WRational(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return WRational._trusted(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return WRational._trusted(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return WRational._trusted(-self.num, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return WRational._trusted(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return self.num != 0

    def is_unit(self) -> bool:
        """True when the inverse also lies in the ring, i.e. every prime factor
        of the reduced numerator is 2 or 1 mod 4. The numerator is capped like
        the denominator, which bounds the trial division."""
        if self.num == 0:
            raise ZeroInputError("zero is not a unit candidate")
        n = abs(self.num)
        if n > _MAX_W_DENOMINATOR:
            raise ValueError(f"reduced numerator exceeds {_MAX_W_DENOMINATOR}")
        return _first_non_w_prime(n) is None

    def __str__(self) -> str:
        return f"{_decimal(self.num)}/{_decimal(self.den)}"
