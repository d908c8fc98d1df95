"""Exact arithmetic in Z and quadratic integer rings Z[w], and membership in
the localization Z[W].

Everything here is built on Python's arbitrary-precision integers; no value
ever passes through floating point. Division-like operations are exactness
checked: a quotient is returned only when it exists in the ring.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

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
# The bound of trial division, and so of every Z[W] denominator it checks.
_TRIAL_DIVISION_CAP = 10**12


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


def _prime_factors(n: int):
    """Yield (p, e) for each prime power p**e exactly dividing 1 <= n <= 10**12,
    in ascending order of p.

    Trial division: the factors of 2 are shifted out, then odd candidates
    are tried until p * p exceeds the cofactor, which is then 1 or a prime.
    A caller that stops early stops the division, and the bound caps the
    work at about 5 * 10^5 divisions.
    """
    if n > _TRIAL_DIVISION_CAP:
        raise ValueError(f"trial division is capped at n <= {_TRIAL_DIVISION_CAP}")
    twos = (n & -n).bit_length() - 1
    if twos:
        yield 2, twos
        n >>= twos
    p = 3
    while p * p <= n:
        if not n % p:
            e = 0
            while not n % p:
                n //= p
                e += 1
            yield p, e
        p += 2
    if n > 1:
        yield n, 1


def is_squarefree(n: int) -> bool:
    """True when no prime square divides n, for |n| <= 10**12; False for 0."""
    n = abs(ZZ.coerce(n))
    return n != 0 and all(e == 1 for _, e in _prime_factors(n))


def factorize(n: int) -> dict[int, int]:
    """Factor 1 <= n <= 10**12 by trial division, returning {prime: exponent}."""
    n = ZZ.coerce(n)
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    return dict(_prime_factors(n))


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
    return list(itertools.compress(range(limit + 1), flags))


@functools.lru_cache
def _first_non_w_prime(n: int) -> int | None:
    """The least prime factor of 1 <= n <= 10**12 that is 3 mod 4, or None
    when every prime factor is 2 or 1 mod 4.

    Cached, as a pure function of n: each distinct n is trial-divided once
    per process, and the default maxsize of 128 holds the 91 denominators
    zw_unit_demo draws. A raise is not cached; __wrapped__ is the uncached
    body.
    """
    for p, _ in _prime_factors(n):
        if not is_w_prime(p):
            return p
    return None


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


ZZ = IntegerRing()


class Record:
    """Base of the immutable value and report types. A subclass names its
    attributes in __slots__, and its value is the tuple of its _fields (all
    of __slots__ unless it names fewer), written only while it is built.
    Equality (within one class), hash and repr go by the value; copy and
    pickle call the class on it."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = vars(cls).get("_fields", cls.__slots__)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)
        get = operator.attrgetter(*cls._fields)
        # An attrgetter is no descriptor, so self._get_values(self) calls it;
        # one field gives a bare value, so that case is wrapped in a 1-tuple.
        cls._get_values = get if len(cls._fields) > 1 else staticmethod(lambda self: (get(self),))

    def __init__(self, *values) -> None:
        if len(values) != len(self._setters):
            raise TypeError(f"{type(self).__name__} takes {len(self._setters)} fields, not {len(values)}")
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or self._get_values(self) == self._get_values(other)

    def __hash__(self) -> int:
        return hash(self._get_values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._get_values(self)


class QuadRing(Record):
    """The ring of integers Z[w] of Q(sqrt d) for square-free d.

    w = sqrt(d) when d = 2, 3 (mod 4) and (1 + sqrt(d))/2 when d = 1 (mod 4),
    so w**2 = t*w + n with (t, n) = (0, d) or (1, (d - 1)/4); t and n are set
    once, outside the fields. Elements are a + b*w with integer a, b. Element
    and polynomial products read t and n only through `matrix`; the other
    readers are the inline norm of `_reduction_step`'s box candidates and
    `norms._conjugate_pairs`, which reads t.
    """

    __slots__ = ("d", "t", "n")
    _fields = ("d",)

    def __init__(self, d: int) -> None:
        ZZ.coerce(d)
        if d in (0, 1):
            raise ValueError("d must differ from 0 and 1")
        if abs(d) > _MAX_ABS_D:
            raise ValueError(f"|d| is capped at {_MAX_ABS_D}")
        if not is_squarefree(d):
            raise ValueError(f"d = {d} is not square-free")
        Record.__init__(self, d)
        t = 1 if d % 4 == 1 else 0
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "n", (d - 1) // 4 if t else d)

    @property
    def zero(self) -> "QuadInt":
        return QuadInt(0, 0, self)

    @property
    def one(self) -> "QuadInt":
        return QuadInt(1, 0, self)

    @property
    def omega(self) -> "QuadInt":
        return QuadInt(0, 1, self)

    def matrix(self, a: int, b: int) -> tuple[int, int, int, int]:
        """Multiplication by a + b*w as the integer matrix (p, q, r, s), with
        (a + b*w)(x + y*w) = (p*x + q*y) + (r*x + s*y)*w as w**2 = t*w + n.
        The columns are a + b*w and (a + b*w)*w, the determinant p*s - q*r is
        the norm, and the adjugate (s, -q, -r, p) multiplies by the conjugate.
        """
        return a, self.n * b, b, a + self.t * b

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


class QuadInt(Record):
    """Element a + b*w of a quadratic integer ring.

    The constructor is trusted, like Poly._trusted: the kernels build many
    elements per request from coordinates that are ints by construction, so
    it checks nothing. Values from outside enter through QuadRing.element or
    QuadRing.coerce, which reject floats.
    """

    __slots__ = ("a", "b", "ring")

    def __init__(self, a: int, b: int, ring: QuadRing) -> None:
        set_a, set_b, set_ring = self._setters  # Record.__init__ unrolled, for speed
        set_a(self, a)
        set_b(self, b)
        set_ring(self, ring)

    def _coerce(self, other):
        if isinstance(other, (QuadInt, int)):
            return self.ring.coerce(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QuadInt(self.a + other.a, self.b + other.b, self.ring)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p, q, r, s = self.ring.matrix(self.a, self.b)
        x, y = other.a, other.b
        return QuadInt(p * x + q * y, r * x + s * y, self.ring)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QuadInt":
        if n < 0:
            raise ValueError("negative powers leave the ring")
        result = self.ring.one
        base = self
        while True:
            if n & 1:
                result = result * base
            n >>= 1
            if not n:
                return result
            base = base * base  # not after the last bit: no product reads it

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
        """The image under w -> t - w, fixing exactly Z: the adjugate's first column."""
        p, q, r, s = self.ring.matrix(self.a, self.b)
        return QuadInt(s, -r, self.ring)

    def norm(self) -> int:
        """The rational integer self * conjugate(self): the matrix's determinant."""
        p, q, r, s = self.ring.matrix(self.a, self.b)
        return p * s - q * r

    def is_unit(self) -> bool:
        return self.norm() in (1, -1)

    def divides(self, other) -> "QuadInt | None":
        """Return q with other == self * q, or None when no such q is in the ring.

        Computed as other * conjugate(self) / norm(self): self's adjugate on
        other's coordinates, each checked for exact division by the determinant.
        """
        if not self:
            raise ZeroDivisionError("zero divides only zero")
        ring = self.ring
        other = ring.coerce(other)
        p, q, r, s = ring.matrix(self.a, self.b)
        x, y = other.a, other.b
        norm = p * s - q * r
        qa, ra = divmod(s * x - q * y, norm)
        if ra:
            return None
        qb, rb = divmod(p * y - r * x, norm)
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
    a remainder r = x - q*y with 171*|norm(r)| <= 170*|norm(y)|, or, when no
    quotient within 64 lattice steps of the rounded one gives that, with
    |norm(r)| < |norm(y)|."""
    t, n = ring.t, ring.n  # for the inline norm form of the candidates
    xa, xb = x
    ya, ym, yb, yt = ring.matrix(*y)  # multiplication by y
    norm = ya * yt - ym * yb
    # q = x * conjugate(y) / norm through the adjugate, rounded coordinatewise
    qa = _round_half_to_zero(yt * xa - ym * xb, norm)
    qb = _round_half_to_zero(ya * xb - yb * xa, norm)
    ra = xa - ya * qa - ym * qb  # r = x - y*q
    rb = xb - yb * qa - yt * qb
    bound = abs(norm)
    # A step must cut the norm to 170/171 or less, so a descent ends within
    # about 171*ln|norm| steps; any decrease alone let real-field descents
    # run for millions. 170/171 is the Euclidean minimum of Q(sqrt 19), the
    # largest on the whitelist in Lemmermeyer's table (Expo. Math. 1995).
    limit = 170 * bound // 171 + 1  # |N| < limit iff 171*|N| <= 170*bound
    if abs(ra * ra + t * ra * rb - n * rb * rb) < limit:
        return ra, rb
    # Coordinatewise nearest rounding is not norm-decreasing for every
    # whitelisted d: in the real fields the |norm| < 1 region is hyperbolic,
    # so the good quotient can sit many lattice steps away. Double the box
    # until it holds one and keep its first remainder of least norm. The
    # candidate x - (q + da + db*w)*y is r - da*y - db*(y*w), the matrix's
    # columns. Each box skips the one before it, already found empty; the
    # first skips only r itself.
    radius, inner = 1, 0
    while True:
        best = None
        best_norm = limit
        row = range(-radius, radius + 1)
        outer_row = [*range(-radius, -inner), *range(inner + 1, radius + 1)]
        for da in row:
            sa, sb = ra - da * ya, rb - da * yb
            for db in outer_row if -inner <= da <= inner else row:
                pa, pb = sa - db * ym, sb - db * yt
                cand_norm = abs(pa * pa + t * pa * pb - n * pb * pb)
                if cand_norm < best_norm:
                    best, best_norm = (pa, pb), cand_norm
        if best is not None:
            return best
        radius, inner = 2 * radius, radius
        if radius == 128:
            # Past 64, any decrease, which the whitelist guarantees; the boxes
            # found empty only under the 170/171 cut are searched again.
            limit, inner = bound, 0


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


class WRational(Record):
    """Reduced fraction whose denominator factors over {2} and primes = 1 mod 4.

    Construction normalizes the sign into the numerator, divides out the gcd,
    caps the reduced denominator at 10**12 and validates its membership by
    one lookup in the cache of _first_non_w_prime, which trial-divides each
    distinct denominator once. zw_unit_demo builds one per trial, for the
    argument.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1) -> None:
        set_num, set_den = self._setters  # Record.__init__ unrolled, for speed
        set_num(self, num)
        set_den(self, den)
        self.__post_init__()

    def __post_init__(self) -> None:
        num, den = self.num, self.den
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
        set_num, set_den = self._setters
        set_num(self, num)
        set_den(self, den)

    def __str__(self) -> str:
        return f"{_decimal(self.num)}/{_decimal(self.den)}"
