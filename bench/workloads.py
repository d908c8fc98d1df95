"""Seeded request streams for the three benchmark mixes.

Nothing here imports dringkit: a request carries the text the library will
parse, plus the coefficient data the independent checker needs.

Every size parameter is drawn uniformly from its stated range, but through
stratified decks: the range is cut into equal strata, and every round of
draws visits each stratum (or each combination of strata, for parameters
drawn jointly) once, in seeded order. The request kinds are dealt the same
way from a fixed block of cards, and each kind's rounds fit a whole number of
times into one block. A run made of whole blocks therefore holds exactly the
stated mix on every seed, which keeps percentiles steady from seed to seed
without narrowing any distribution.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

QUAD_D = (-1, -3, -7, -11, 2, 3, 5, 73)
# Square-free values outside the norm-Euclidean whitelist.
OFF_WHITELIST_D = (-5, -6, 10, 14, 15, 23)
WITNESS_BOUND = 1000  # certify_divisibility's default search bound

# Kind cards dealt per block: they give each mix its proportions, with one
# bad_input card per block (about 2%).
MIXES = {
    "z_division": {"pair": 8, "multiple": 16, "non_multiple": 16, "pseudodiv": 8, "bad_input": 1},
    "quad_ring": {"content": 8, "divides": 16, "normpoly": 8, "transfer": 8, "pseudodiv": 8, "bad_input": 1},
    "prime_scan": {"sf": 40, "zwdemo": 10, "bad_input": 1},
}


@dataclass(frozen=True)
class Request:
    """One request: the library call `op` on parsed `texts` over `ring`.

    `kind` is the mix label, `args` the integer arguments, `d` the quadratic
    field (None over Z), `polys` the coefficient lists behind `texts`
    (ints over Z, (a, b) pairs for a + b*w otherwise), `divides` whether a
    certify request's dividend was built as a multiple of its divisor, and
    `expect` the error class name a bad input must raise.
    """

    kind: str
    op: str
    ring: str
    texts: tuple = ()
    args: tuple = ()
    d: int | None = None
    polys: tuple = ()
    divides: bool | None = None
    expect: str | None = None


class Deck:
    """Deals the given cards in seeded shuffled rounds."""

    def __init__(self, rng: random.Random, cards) -> None:
        self.rng = rng
        self.cards = list(cards)
        self.pile: list = []

    def draw(self):
        if not self.pile:
            self.pile = self.cards[:]
            self.rng.shuffle(self.pile)
        return self.pile.pop()


def in_stratum(rng: random.Random, lo: int, hi: int, strata: int, k: int) -> int:
    """Uniform integer draw from the k-th of `strata` equal slices of [lo, hi]."""
    span = hi - lo + 1
    return rng.randint(lo + span * k // strata, lo + span * (k + 1) // strata - 1)


# ---------------------------------------------------------------- text form


def z_text(coeffs) -> str:
    """Input text for an integer polynomial given in ascending powers."""
    parts = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        body = str(abs(c)) + ("" if power == 0 else f"*x^{power}")
        if parts:
            parts.append(f" {'-' if c < 0 else '+'} {body}")
        else:
            parts.append(("-" if c < 0 else "") + body)
    return "".join(parts) or "0"


def q_text(coeffs) -> str:
    """Input text for a Z[w] polynomial given as ascending (a, b) pairs."""
    parts = []
    for power in range(len(coeffs) - 1, -1, -1):
        a, b = coeffs[power]
        if a == 0 and b == 0:
            continue
        body = f"[{a}{b:+d}w]" + ("" if power == 0 else f"*x^{power}")
        parts.append(body if not parts else f" + {body}")
    return "".join(parts) or "0"


def ring_text(d: int | None) -> str:
    return "Z" if d is None else f"Q(sqrt {d})"


# ------------------------------------------------- coefficient-list helpers


def z_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def q_elt_mul(x, y, d):
    a, b = x
    c, e = y
    if d % 4 == 1:
        return (a * c + b * e * ((d - 1) // 4), a * e + b * c + b * e)
    return (a * c + d * b * e, a * e + b * c)


def q_mul(f, g, d):
    out = [(0, 0)] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            p = q_elt_mul(x, y, d)
            s = out[i + j]
            out[i + j] = (s[0] + p[0], s[1] + p[1])
    return out


def z_add(f, g):
    out = list(f) + [0] * (len(g) - len(f))
    for i, c in enumerate(g):
        out[i] += c
    return out


def q_add(f, g):
    out = list(f) + [(0, 0)] * (len(g) - len(f))
    for i, (a, b) in enumerate(g):
        out[i] = (out[i][0] + a, out[i][1] + b)
    return out


def z_random(rng, degree, bound):
    """Degree-`degree` integer coefficients in [-bound, bound], leading nonzero."""
    coeffs = [rng.randint(-bound, bound) for _ in range(degree)]
    lead = rng.randint(1, bound) * rng.choice((-1, 1))
    return coeffs + [lead]


def q_random(rng, degree, bound):
    """Degree-`degree` Z[w] coefficients with coordinates in [-bound, bound]."""
    coeffs = [(rng.randint(-bound, bound), rng.randint(-bound, bound)) for _ in range(degree)]
    lead = (0, 0)
    while lead == (0, 0):
        lead = (rng.randint(-bound, bound), rng.randint(-bound, bound))
    return coeffs + [lead]


# --------------------------------------------------------------- the mixes


class Mix:
    """An endless seeded request stream for one workload."""

    def __init__(self, workload: str, seed: int) -> None:
        if workload not in MIXES:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = rng = random.Random(f"{workload}:{seed}")
        cards = [kind for kind, n in MIXES[workload].items() for _ in range(n)]
        self.kinds = Deck(rng, cards)
        self.block = len(cards)
        self.decks: dict[str, Deck] = {}

    def _deal(self, name: str, cards):
        if name not in self.decks:
            self.decks[name] = Deck(self.rng, cards)
        return self.decks[name].draw()

    def _grid(self, name: str, *dims) -> list[int]:
        """One value per (lo, hi, strata) dimension; each round of draws
        covers every combination of strata once."""
        cell = self._deal(name, itertools.product(*(range(strata) for _, _, strata in dims)))
        return [in_stratum(self.rng, lo, hi, strata, k) for (lo, hi, strata), k in zip(dims, cell)]

    def _u(self, name: str, lo: int, hi: int, strata: int = 8) -> int:
        """Stratified uniform draw for the parameter `name` on [lo, hi]."""
        return self._grid(name, (lo, hi, min(strata, hi - lo + 1)))[0]

    def __iter__(self):
        return self

    def __next__(self) -> Request:
        kind = self.kinds.draw()
        if kind == "bad_input":
            return self._bad_input()
        return getattr(self, f"_{self.workload}_{kind}")()

    # z_division ----------------------------------------------------------

    def _z_divisor_pair(self, kind):
        # Division costs about deg g * deg q steps, so the two degrees are
        # stratified jointly.
        deg_g, deg_q = self._grid(kind, (4, 24, 8), (8, 48, 8))
        g = z_random(self.rng, deg_g, 2**40)
        c = math.gcd(*g)
        return [x // c for x in g], z_random(self.rng, deg_q, 2**40)

    def _z_division_pair(self):
        n = self._u("pair.n", 32, 160)
        return Request("pair", "cheb", "Z", args=(n,))

    def _z_division_multiple(self):
        g, q = self._z_divisor_pair("multiple")
        f = z_mul(g, q)
        return Request("multiple", "certify", "Z", (z_text(f), z_text(g)), polys=(f, g), divides=True)

    def _z_division_non_multiple(self):
        g, q = self._z_divisor_pair("non_multiple")
        r = [0] * (len(g) - 1)
        while not any(r):
            r = [self.rng.randint(-(2**40), 2**40) for _ in range(len(g) - 1)]
        f = z_add(z_mul(g, q), r)
        return Request("non_multiple", "certify", "Z", (z_text(f), z_text(g)), polys=(f, g), divides=False)

    def _z_division_pseudodiv(self):
        f = z_random(self.rng, self._u("pseudodiv.deg_f", 60, 300), 2**16)
        g = z_random(self.rng, self._u("pseudodiv.deg_g", 20, 100), 2**16)
        return Request("pseudodiv", "pseudodiv", "Z", (z_text(f), z_text(g)), polys=(f, g))

    # quad_ring -----------------------------------------------------------

    def _d(self, kind):
        return self._deal(kind + ".d", QUAD_D)

    def _quad(self, kind, op, d, polys, divides=None):
        texts = tuple(q_text(p) for p in polys)
        return Request(kind, op, ring_text(d), texts, d=d, polys=tuple(polys), divides=divides)

    def _quad_ring_content(self):
        d = self._d("content")
        p = q_random(self.rng, self._u("content.deg", 8, 24), 10**6)
        return self._quad("content", "content", d, [p])

    def _quad_ring_divides(self):
        rng = self.rng
        d = self._d("divides")
        # A unit constant term keeps the divisor primitive by construction.
        g = [(1, 0)] + q_random(rng, self._u("divides.deg_g", 2, 6), 100)[1:]
        q = q_random(rng, self._u("divides.deg_q", 2, 8), 100)
        f = q_mul(g, q, d)
        multiple = self._deal("divides.multiple", (True, False))
        if not multiple:
            r = [(0, 0)]
            while not any(a or b for a, b in r):
                r = [(rng.randint(-100, 100), rng.randint(-100, 100)) for _ in range(len(g) - 1)]
            f = q_add(f, r)
        return self._quad("divides", "certify", d, [f, g], divides=multiple)

    def _quad_ring_normpoly(self):
        d = self._d("normpoly")
        p = q_random(self.rng, self._u("normpoly.deg", 4, 16), 10**4)
        return self._quad("normpoly", "normpoly", d, [p])

    def _quad_ring_transfer(self):
        rng = self.rng
        d = self._d("transfer")
        g = q_random(rng, self._u("transfer.deg_g", 1, 4), 100)
        if self._deal("transfer.multiple", (True, False)):
            f = q_mul(g, q_random(rng, self._u("transfer.deg_q", 1, 4), 100), d)
        else:
            f = q_random(rng, self._u("transfer.deg_f", 2, 8), 100)
        return self._quad("transfer", "transfer", d, [f, g])

    def _quad_ring_pseudodiv(self):
        d = self._d("pseudodiv")
        f = q_random(self.rng, self._u("pseudodiv.deg_f", 10, 40), 100)
        g = q_random(self.rng, self._u("pseudodiv.deg_g", 3, 12), 100)
        return self._quad("pseudodiv", "pseudodiv", d, [f, g])

    # prime_scan ----------------------------------------------------------

    def _prime_scan_sf(self):
        # The cost grows with limit^2 and with the degree, so the two are
        # stratified jointly: each block holds every pairing once.
        limit, degree = self._grid("sf", (500, 4000, 8), (2, 6, 5))
        f = z_random(self.rng, degree, 50)
        return Request("sf", "sf", "Z", (z_text(f),), args=(limit,), polys=(f,))

    def _prime_scan_zwdemo(self):
        trials = self._u("zwdemo.trials", 500, 3000, strata=10)
        return Request("zwdemo", "zwdemo", "Z", args=(trials, self.rng.randrange(2**31)))

    # bad_input -----------------------------------------------------------

    def _bad_input(self):
        """A request that must raise the named DRingKitError subclass."""
        rng = self.rng
        quad = self.workload == "quad_ring"
        d = self._d("bad_input") if quad else None
        ring = ring_text(d)
        sf = self.workload == "prime_scan"
        fault = self._deal("bad_input.fault", ("malformed", "constant", "non_primitive", "off_whitelist"))
        good = q_text(q_random(rng, 3, 100)) if quad else z_text(z_random(rng, 3, 100))
        op = "sf" if sf else "certify"
        args = (rng.randint(500, 4000),) if sf else ()
        k = rng.randint(2, 99)
        if fault == "malformed":
            texts = (good + f" + {k}.5*x",) + (() if sf else (good,))
            expect = "PolyParseError"
        elif fault == "constant" or (sf and fault == "non_primitive"):
            const = f"[{k}+1w]" if quad else str(k)
            texts = (const,) if sf else (good, const)
            expect = "ConstantPolynomialError" if sf else "ConstantDivisorError"
        elif fault == "non_primitive":
            divisor = f"[{2 * k}]*x^2 + [4+2w]*x + [2-{2 * k}w]" if quad else f"{2 * k}*x^2 + 4*x + 2"
            texts = (good, divisor)
            expect = "NotPrimitiveError"
        else:
            ring = ring_text(rng.choice(OFF_WHITELIST_D))
            texts = (good,) if sf else (good, good)
            expect = "UnsupportedRingError"
        return Request("bad_input", op, ring, texts, args=args, d=d, expect=expect)
