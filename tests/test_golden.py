"""Golden digests of the answers that depend on the coefficient ring.

A seeded corpus over Z, over the rings of integers of Q(sqrt d) for
d in {-1, -3, -7, 2, 5, 73}, and over the non-whitelisted Q(sqrt -5) runs
through content, primitive parts, the three divisions, certification,
pointwise checks and conjugation, and through every CLI subcommand in text
and JSON form. The digests were computed with the implementation that chose
between Z and Z[w] at each call site, so a match means that every answer,
every associate and every printed form is unchanged.

Run this file as a script (with `src` and `tests` on the path) to print the
digests of the code it imports.
"""

import contextlib
import hashlib
import io
import random

from dringkit import (
    NORM_EUCLIDEAN_D,
    DRingKitError,
    Poly,
    QuadRing,
    ZZ,
    certify_divisibility,
    conjugate_poly,
    content,
    eval_divisibility,
    exact_divide,
    field_divide,
    is_primitive,
    primitive_part,
    pseudo_divide,
)
from dringkit.cli import main
from helpers import rand_poly, rand_primitive

GOLDEN_DS = (-1, -3, -7, 2, 5, 73)
RINGS = (ZZ,) + tuple(QuadRing(d) for d in GOLDEN_DS)
LIBRARY_RINGS = RINGS + (QuadRing(-5),)  # outside the whitelist: no gcd

GOLDEN = {
    "content": "c0f206ea5f13c623",
    "primitive_part": "ab3b869a84d04aab",
    "is_primitive": "fd6c9f4a86cf0849",
    "pseudo_divide": "ad371c7386c59c38",
    "exact_divide": "b63d5c1d95a9aac4",
    "field_divide": "9457e52e6847302a",
    "certify_divisibility": "06031d95c70c6e38",
    "eval_divisibility": "4394034fcd879287",
    "conjugate_poly": "8327f5e63bc7ebe8",
    # zwdemo --json reports "certified" and no longer "failures" or
    # "trial_division", and its text line no longer "failures: 0"; stripping
    # just those from the corpus of cd33186592ec4d96 gives this digest.
    "cli": "eb6d5bc8e544fd52",
}


def _form(value) -> str:
    """A lossless text form: coefficient types, rings and values."""
    if isinstance(value, Poly):
        return f"Poly[{value.ring}]{value.coeffs!r}"
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_form(v) for v in value) + ")"
    if hasattr(value, "_fields"):
        fields = ",".join(f"{name}={_form(getattr(value, name))}" for name in value._fields)
        return f"{type(value).__name__}({fields})"
    return repr(value)


def _outcome(fn, *args) -> str:
    try:
        return _form(fn(*args))
    except (DRingKitError, ZeroDivisionError) as exc:
        return f"raises {type(exc).__name__}: {exc}"


def _primitive(rng, ring) -> Poly:
    """A primitive divisor; monic where the ring has no gcd to strip content."""
    if ring == ZZ or ring.d in NORM_EUCLIDEAN_D:
        return rand_primitive(rng, ring, min_deg=1, max_deg=3, bound=12)
    g = rand_poly(rng, ring, min_deg=1, max_deg=3, bound=12)
    return Poly(g.coeffs[:-1] + (1,), ring)


def _pairs(ring, seed: int):
    """Random pairs, built multiples with a primitive divisor, and scaled ones."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(8):
        f = rand_poly(rng, ring, min_deg=0, max_deg=6, bound=20)
        g = rand_poly(rng, ring, min_deg=0, max_deg=3, bound=20)
        pairs.append((f, g))
    for _ in range(8):
        g = _primitive(rng, ring)
        q = rand_poly(rng, ring, min_deg=0, max_deg=3, bound=12)
        pairs.append((g * q, g))
        pairs.append((g * q, g * rand_poly(rng, ring, min_deg=0, max_deg=0, bound=6)))
    pairs.append((Poly.zero(ring), pairs[0][1]))
    return pairs


def _library_lines() -> dict[str, list[str]]:
    lines = {name: [] for name in GOLDEN if name != "cli"}
    for index, ring in enumerate(LIBRARY_RINGS):
        samples = list(range(-6, 7))
        if ring != ZZ:
            samples += [ring.omega, ring.element(2, -1)]
        for f, g in _pairs(ring, 8_000 + index):
            lines["content"].append(_outcome(content, f))
            lines["primitive_part"].append(_outcome(primitive_part, f))
            lines["is_primitive"].append(_outcome(is_primitive, f))
            lines["pseudo_divide"].append(_outcome(pseudo_divide, f, g))
            lines["exact_divide"].append(_outcome(exact_divide, f, g))
            lines["field_divide"].append(_outcome(field_divide, f, g))
            lines["certify_divisibility"].append(_outcome(certify_divisibility, f, g, 40))
            lines["eval_divisibility"].append(_outcome(eval_divisibility, f, g, samples))
            lines["conjugate_poly"].append(_outcome(conjugate_poly, f))
    return lines


def _run_cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"{argv!r} -> {code}\n{out.getvalue()}{err.getvalue()}"


def _cli_lines() -> list[str]:
    lines = []
    for index, ring in enumerate(RINGS):
        spec = str(ring)
        for f, g in _pairs(ring, 9_000 + index)[::5]:
            f_text, g_text = str(f), str(g)
            for flags in ([], ["--json"]):
                for command, options, operands in (
                    ("divides", ["--bound", "40"], [f_text, g_text]),
                    ("divides", ["--primitive-part"], [f_text, g_text]),
                    ("pseudodiv", [], [f_text, g_text]),
                    ("content", [], [f_text]),
                    ("normpoly", [], [f_text]),
                    ("evalcheck", ["--from", "-5", "--to", "5"], [f_text, g_text]),
                    ("transfer", ["--from", "-3", "--to", "3"], [f_text, g_text]),
                ):
                    # "--" keeps a leading minus sign from reading as an option
                    argv = [command, "--ring", spec, *options, *flags, "--", *operands]
                    lines.append(_run_cli(argv))
    for flags in ([], ["--json"]):
        for argv in (
            ["sf", "--limit", "300", "x^3 - 2x + 7"],
            ["sf", "--limit", "2", "x^2 + 3"],
            ["cheb", "--n", "9"],
            ["cheb", "--n", "0"],
            ["cheb", "--n", "6", "--certify", "--from", "-4", "--to", "4"],
            ["zwdemo", "--trials", "40", "--seed", "3"],
        ):
            lines.append(_run_cli(argv + flags))
    return lines


def corpus_digests() -> dict[str, str]:
    lines = _library_lines()
    lines["cli"] = _cli_lines()
    return {
        name: hashlib.sha256("\n".join(text).encode()).hexdigest()[:16]
        for name, text in lines.items()
    }


def test_every_answer_matches_the_golden_digests():
    assert corpus_digests() == GOLDEN


if __name__ == "__main__":
    for name, digest in corpus_digests().items():
        print(f'    "{name}": "{digest}",')
