"""Independent answer checker for benchmark requests.

This module never imports dringkit. It re-derives every claim in a rendered
answer with its own integer-list arithmetic over Z and (a, b)-pair arithmetic
for a + b*w in Z[w], and parses the library's printed polynomial form itself.
`check` returns None for a correct answer and a one-line reason otherwise.
"""

from __future__ import annotations

import random
import re

from workloads import WITNESS_BOUND, Request, q_add, q_elt_mul, q_mul, z_add, z_mul

_Z_TERM = re.compile(r"(-?)(\d*)(x(?:\^(\d+))?)?")
_Q_TERM = re.compile(r"(-?)\[(-?\d+)(?:([+-]\d+)w)?\](x(?:\^(\d+))?)?")
_Q_ELT = re.compile(r"(-?\d+)(?:([+-]\d+)w)?")


class Unreadable(ValueError):
    """The answer text is not in the library's printed form."""


# ------------------------------------------------------------ printed form


def _collect(text: str, read_term, zero) -> list:
    """Ascending coefficients of a printed polynomial; [] for "0"."""
    if text == "0":
        return []
    terms = {}
    for term in text.replace(" - ", " + -").split(" + "):
        coeff, power = read_term(term)
        if power in terms:
            raise Unreadable(f"power {power} printed twice")
        terms[power] = coeff
    return [terms.get(i, zero) for i in range(max(terms) + 1)]


def _power(var: str | None, digits: str | None) -> int:
    return 0 if not var else int(digits) if digits else 1


def _z_term(term: str):
    m = _Z_TERM.fullmatch(term)
    if not m or not (m.group(2) or m.group(3)):
        raise Unreadable(f"bad integer term {term!r}")
    sign, digits, var, power = m.groups()
    value = int(digits) if digits else 1
    return (-value if sign else value), _power(var, power)


def _q_term(term: str):
    m = _Q_TERM.fullmatch(term)
    if not m:
        raise Unreadable(f"bad quadratic term {term!r}")
    sign, a, b, var, power = m.groups()
    a, b = int(a), int(b or 0)
    return ((-a, -b) if sign else (a, b)), _power(var, power)


def parse_z_poly(text: str) -> list[int]:
    return _collect(text, _z_term, 0)


def parse_q_poly(text: str) -> list[tuple[int, int]]:
    return _collect(text, _q_term, (0, 0))


def parse_elt(text: str, d: int | None):
    """An integer over Z, or an (a, b) pair printed as "a" or "a+bw"."""
    m = _Q_ELT.fullmatch(text)
    if not m or (d is None and m.group(2)):
        raise Unreadable(f"bad element {text!r}")
    return int(m.group(1)) if d is None else (int(m.group(1)), int(m.group(2) or 0))


# -------------------------------------------------------------- arithmetic


class Arith:
    """Coefficient arithmetic over Z (d is None) or Z[w] for the given d."""

    def __init__(self, d: int | None) -> None:
        self.d = d
        self.zero = 0 if d is None else (0, 0)
        self.one = 1 if d is None else (1, 0)

    def parse_poly(self, text):
        return parse_z_poly(text) if self.d is None else parse_q_poly(text)

    def mul(self, x, y):
        return x * y if self.d is None else q_elt_mul(x, y, self.d)

    def add(self, x, y):
        return x + y if self.d is None else (x[0] + y[0], x[1] + y[1])

    def poly_mul(self, f, g):
        if not f or not g:
            return []
        return trim(z_mul(f, g) if self.d is None else q_mul(f, g, self.d), self.zero)

    def poly_add(self, f, g):
        return trim(z_add(f, g) if self.d is None else q_add(f, g), self.zero)

    def scale(self, c, f):
        return trim([self.mul(c, x) for x in f], self.zero)

    def power(self, x, n):
        out = self.one
        for _ in range(n):
            out = self.mul(out, x)
        return out

    def evaluate(self, f, k: int):
        point = k if self.d is None else (k, 0)
        acc = self.zero
        for c in reversed(f):
            acc = self.add(self.mul(acc, point), c)
        return acc

    def divides(self, x, y) -> bool:
        """x | y for nonzero x: y * conj(x) / norm(x) must be integral."""
        if self.d is None:
            return y % x == 0
        n = q_norm(x, self.d)
        a, b = q_elt_mul(y, q_conj(x, self.d), self.d)
        return a % n == 0 and b % n == 0


def trim(f, zero):
    f = list(f)
    while f and f[-1] == zero:
        f.pop()
    return f


def q_conj(x, d):
    a, b = x
    return (a + b, -b) if d % 4 == 1 else (a, -b)


def q_norm(x, d):
    a, b = x
    if d % 4 == 1:
        return a * a + a * b + b * b * (1 - d) // 4
    return a * a - d * b * b


def scan_order(bound: int):
    yield 0
    for k in range(1, bound + 1):
        yield k
        yield -k


def first_witness(f, g, arith: Arith, bound: int = WITNESS_BOUND):
    """First k in 0, 1, -1, ... with g(k) != 0 and g(k) not dividing f(k)."""
    for k in scan_order(bound):
        gval = arith.evaluate(g, k)
        if gval != arith.zero and not arith.divides(gval, arith.evaluate(f, k)):
            return k
    return None


def cheb_q(n: int) -> list[int]:
    """q_n of q_{k+1} = 2x q_k - q_{k-1}, q_0 = 0, q_1 = 1."""
    prev, cur = [], [1]
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, trim(z_add([0] + [2 * c for c in cur], [-c for c in prev]), 0)
    return cur


def primes_to(limit: int) -> list[int]:
    flags = [True] * (limit + 1)
    flags[0:2] = [False, False]
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            for m in range(p * p, limit + 1, p):
                flags[m] = False
    return [p for p, is_prime in enumerate(flags) if is_prime]


def _has_root_below(values: list[int], p: int, end: int) -> bool:
    """Whether f(k) = 0 mod p for some 0 <= k < end, given values[k] = f(k)."""
    return 0 in map(p.__rmod__, values[:end])


# ------------------------------------------------------------------ checks


def _fields(output: str) -> dict[str, str]:
    try:
        return dict(line.split(": ", 1) for line in output.splitlines())
    except ValueError:
        raise Unreadable("answer lines must read 'key: value'") from None


def _check_cheb(req: Request, out: dict) -> str | None:
    if (out["passed"], out["evaluation"], out["verdict"]) != ("True", "ALL_DIVIDE", "DIVIDES"):
        return "recurrence pair not certified"
    expected = [2 * c for c in cheb_q(req.args[0])]
    if parse_z_poly(out["quotient"]) != expected:
        return "quotient differs from 2*q_n"
    return None


def _check_certify(req: Request, out: dict) -> str | None:
    arith = Arith(req.d)
    f, g = req.polys
    if req.divides:
        if out["verdict"] != "DIVIDES" or out["witness"] != "None":
            return f"multiple reported {out['verdict']}"
        if arith.poly_mul(arith.parse_poly(out["quotient"]), g) != trim(f, arith.zero):
            return "quotient * g != f"
        return None
    if out["verdict"] != "NOT_DIVIDES" or out["quotient"] != "None":
        return f"non-multiple reported {out['verdict']}"
    if out["witness"] != str(first_witness(f, g, arith)):
        return "witness is not the first in scan order"
    return None


def _check_pseudodiv(req: Request, out: dict) -> str | None:
    arith = Arith(req.d)
    f, g = (trim(p, arith.zero) for p in req.polys)
    s = max(len(f) - len(g) + 1, 0)
    if out["power"] != str(s):
        return "wrong pseudo-division power"
    multiplier = parse_elt(out["multiplier"], req.d)
    if multiplier != arith.power(g[-1], s):
        return "multiplier is not lc(g)^s"
    q = arith.parse_poly(out["quotient"])
    r = arith.parse_poly(out["remainder"])
    if r and len(r) >= len(g):
        return "remainder degree not below divisor degree"
    if arith.scale(multiplier, f) != arith.poly_add(arith.poly_mul(g, q), r):
        return "multiplier * f != g * q + r"
    return None


def _check_content(req: Request, out: dict) -> str | None:
    arith = Arith(req.d)
    content = parse_elt(out["content"], req.d)
    primitive = arith.parse_poly(out["primitive_part"])
    if content == arith.zero or arith.scale(content, primitive) != trim(req.polys[0], arith.zero):
        return "content * primitive_part != p"
    return None


def _check_normpoly(req: Request, out: dict) -> str | None:
    arith = Arith(req.d)
    p = trim(req.polys[0], arith.zero)
    norm = parse_z_poly(out["norm"])
    z = Arith(None)
    degree = len(p) - 1
    if len(norm) != 2 * degree + 1:
        return "norm polynomial has the wrong degree"
    # 2*deg + 1 agreeing points pin the polynomial down completely.
    for k in range(-degree, degree + 1):
        if z.evaluate(norm, k) != q_norm(arith.evaluate(p, k), req.d):
            return f"norm polynomial disagrees with the elementwise norm at {k}"
    return None


def _check_transfer(req: Request, out: dict) -> str | None:
    return None if out["verdict"] == "CONSISTENT" else f"transfer verdict {out['verdict']}"


def _check_zwdemo(req: Request, out: dict) -> str | None:
    trials = str(req.args[0])
    if (out["trials"], out["passes"], out["all_units"]) != (trials, trials, "True"):
        return "zwdemo did not report all_units"
    return None


def _check_sf(req: Request, output: str) -> str | None:
    f = req.polys[0]
    limit = req.args[0]
    lines = output.splitlines()
    records = [tuple(map(int, line.split())) for line in lines[1:]]
    if lines[0] != f"records: {len(records)}":
        return "record count does not match the records"
    primes = primes_to(limit)
    listed = [p for p, _ in records]
    if listed != sorted(set(listed)) or not set(listed) <= set(primes):
        return "records are not ascending distinct primes within the limit"
    # Exact values f(0), ..., f(limit - 1) serve every prime at once.
    values = [Arith(None).evaluate(f, k) for k in range(limit)]
    for p, root in records:
        if not 0 <= root < p or values[root] % p:
            return f"{root} is not a root mod {p}"
        if _has_root_below(values, p, root):
            return f"{root} is not the least root mod {p}"
    unlisted = sorted(set(primes) - set(listed))
    sample = random.Random(f"{limit}:{f}").sample(unlisted, min(8, len(unlisted)))
    for p in sample:
        if _has_root_below(values, p, p):
            return f"unlisted prime {p} has a root"
    return None


_CHECKS = {
    "cheb": _check_cheb,
    "certify": _check_certify,
    "pseudodiv": _check_pseudodiv,
    "content": _check_content,
    "normpoly": _check_normpoly,
    "transfer": _check_transfer,
    "zwdemo": _check_zwdemo,
}


def check(req: Request, output: str | None, error: str | None) -> str | None:
    """None when the rendered answer (or raised error class) is right for req."""
    if req.expect is not None:
        return None if error == req.expect else f"expected {req.expect}, got {error or 'an answer'}"
    if error is not None:
        return f"raised {error}"
    try:
        if req.op == "sf":
            return _check_sf(req, output)
        return _CHECKS[req.op](req, _fields(output))
    except (Unreadable, KeyError, ValueError) as exc:
        return f"unreadable answer: {exc}"


def check_probe(output: str, exit_code: int) -> str | None:
    """The set-up probe runs `divides x^2+1 x+1`, which must fail at k = 2."""
    k = first_witness([1, 0, 1], [1, 1], Arith(None))
    if exit_code != 1 or "verdict: NOT_DIVIDES" not in output or f"witness: k = {k} " not in output:
        return "set-up probe answer is wrong"
    return None
