"""Command-line front end: one subcommand per library operation.

All inputs arrive as arguments (stdin is never read). Output is
human-readable text, or a single JSON document with --json; both carry the
same information. In JSON, every integer is a decimal string so that
arbitrary-precision values never pass through floating point, and keys are
emitted sorted. Exit codes: 0 affirmative/success, 1 negative verdict,
2 usage or computation error, including running out of memory or recursion
depth.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import deque
from typing import Sequence

from .errors import ArgumentCapError, DRingKitError, UnsupportedRingError
from .lab import (
    DEFAULT_DEMO_SEED,
    DEFAULT_WINDOW,
    SAMPLE_WINDOW_NOTE,
    _cheb_pairs,
    certify_divisibility,
    cheb_certify,
    eval_divisibility,
    sf_search,
    zw_unit_demo,
)
from .norms import conjugate_poly, norm_poly, norm_transfer_check
from .parsing import parse_poly, parse_ring
from .polynomials import primitive_part, pseudo_divide
from .rings import ZZ, QuadRing, _decimal

SEED_ENV_VAR = "DRINGKIT_SEED"
SF_LIMIT_CAP = 10**6
CHEB_N_CAP = 1000
ZWDEMO_TRIALS_CAP = 500_000
SAMPLE_POINT_CAP = 1000


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


def _check_point_cap(option: str, value: int) -> None:
    if abs(value) > SAMPLE_POINT_CAP:
        raise ArgumentCapError(f"|{option}| must not exceed {SAMPLE_POINT_CAP}")


def _sample_range(args) -> range:
    _check_point_cap("--from", args.lo)
    _check_point_cap("--to", args.hi)
    if args.lo > args.hi:
        raise ValueError("--from must not exceed --to")
    return range(args.lo, args.hi + 1)


def _require_quad(ring) -> QuadRing:
    if not isinstance(ring, QuadRing):
        raise UnsupportedRingError('this subcommand needs --ring "Q(sqrt d)"')
    return ring


def _eval_report_payload(report, ring) -> dict:
    return {
        "checked": _decimal(report.checked),
        "vacuous": _decimal(report.vacuous),
        "divisible": _decimal(report.divisible),
        "failures": [
            {
                "point": _decimal(point),
                "divisor_value": ring.format(gval),
                "dividend_value": ring.format(fval),
            }
            for point, gval, fval in report.failures
        ],
        "verdict": report.verdict,
    }


def _eval_report_lines(report, ring) -> list[str]:
    lines = [
        f"checked: {report.checked}  vacuous: {report.vacuous}  "
        f"divisible: {report.divisible}  failures: {len(report.failures)}",
    ]
    for point, gval, fval in report.failures:
        lines.append(
            f"failure at k = {point}: g(k) = {ring.format(gval)} "
            f"does not divide f(k) = {ring.format(fval)}"
        )
    lines.append(f"verdict: {report.verdict}")
    return lines


def _cmd_divides(args) -> int:
    _check_point_cap("--bound", args.bound)
    ring = parse_ring(args.ring)
    f = parse_poly(args.f, ring)
    g = parse_poly(args.g, ring)
    payload = {
        "command": "divides",
        "ring": str(ring),
        "f": str(f),
        "g": str(g),
        "bound": _decimal(args.bound),
    }
    lines = []
    if args.primitive_part:
        cont, g = primitive_part(g)
        payload["divisor_content"] = ring.format(cont)
        payload["divisor_primitive_part"] = str(g)
        lines.append(
            f"divisor replaced by its primitive part {g} (content {ring.format(cont)})"
        )
    cert = certify_divisibility(f, g, search_bound=args.bound)
    payload["verdict"] = cert.verdict
    payload["quotient"] = str(cert.quotient) if cert.quotient is not None else None
    lines.append(f"verdict: {cert.verdict}")
    if cert.quotient is not None:
        lines.append(f"quotient: {cert.quotient}")
    if cert.witness is not None:
        gval = g.evaluate(cert.witness)
        fval = f.evaluate(cert.witness)
        payload["witness"] = _decimal(cert.witness)
        payload["witness_divisor_value"] = ring.format(gval)
        payload["witness_dividend_value"] = ring.format(fval)
        lines.append(
            f"witness: k = {cert.witness} with g(k) = {ring.format(gval)} "
            f"not dividing f(k) = {ring.format(fval)}"
        )
    else:
        payload["witness"] = None
        if cert.verdict == "NOT_DIVIDES":
            lines.append(
                f"no witness found with |k| <= {args.bound}; one exists somewhere in Z"
            )
    _emit(args, payload, lines)
    return 0 if cert.verdict == "DIVIDES" else 1


def _cmd_pseudodiv(args) -> int:
    ring = parse_ring(args.ring)
    f = parse_poly(args.f, ring)
    g = parse_poly(args.g, ring)
    result = pseudo_divide(f, g)
    payload = {
        "command": "pseudodiv",
        "ring": str(ring),
        "f": str(f),
        "g": str(g),
        "multiplier": ring.format(result.multiplier),
        "power": _decimal(result.s),
        "quotient": str(result.quotient),
        "remainder": str(result.remainder),
    }
    lines = [
        f"multiplier: {ring.format(result.multiplier)} "
        f"(leading coefficient to the power {result.s})",
        f"quotient: {result.quotient}",
        f"remainder: {result.remainder}",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_content(args) -> int:
    ring = parse_ring(args.ring)
    p = parse_poly(args.p, ring)
    cont, prim = primitive_part(p)
    payload = {
        "command": "content",
        "ring": str(ring),
        "p": str(p),
        "content": ring.format(cont),
        "primitive_part": str(prim),
    }
    lines = [f"content: {ring.format(cont)}", f"primitive part: {prim}"]
    _emit(args, payload, lines)
    return 0


def _cmd_normpoly(args) -> int:
    ring = _require_quad(parse_ring(args.ring))
    p = parse_poly(args.p, ring)
    conjugate = conjugate_poly(p)
    norm = norm_poly(p)
    payload = {
        "command": "normpoly",
        "ring": str(ring),
        "p": str(p),
        "conjugate": str(conjugate),
        "norm": str(norm),
    }
    lines = [f"conjugate: {conjugate}", f"norm: {norm}"]
    _emit(args, payload, lines)
    return 0


def _cmd_evalcheck(args) -> int:
    samples = _sample_range(args)
    ring = parse_ring(args.ring)
    f = parse_poly(args.f, ring)
    g = parse_poly(args.g, ring)
    report = eval_divisibility(f, g, samples)
    payload = {
        "command": "evalcheck",
        "ring": str(ring),
        "f": str(f),
        "g": str(g),
        "from": _decimal(args.lo),
        "to": _decimal(args.hi),
        "note": SAMPLE_WINDOW_NOTE,
        **_eval_report_payload(report, ring),
    }
    lines = [f"samples: k = {args.lo}..{args.hi} ({SAMPLE_WINDOW_NOTE})"]
    lines.extend(_eval_report_lines(report, ring))
    _emit(args, payload, lines)
    return 0 if report.verdict == "ALL_DIVIDE" else 1


def _cmd_sf(args) -> int:
    if args.limit > SF_LIMIT_CAP:
        raise ArgumentCapError(f"--limit must not exceed {SF_LIMIT_CAP}")
    f = parse_poly(args.f)
    records = sf_search(f, args.limit)
    payload = {
        "command": "sf",
        "f": str(f),
        "limit": _decimal(args.limit),
        "count": _decimal(len(records)),
        "records": [
            {"prime": _decimal(r.prime), "root": _decimal(r.root)} for r in records
        ],
    }
    lines = [f"primes p <= {args.limit} at which {f} has a root mod p: {len(records)}"]
    for record in records:
        lines.append(f"p = {record.prime}: root {record.root}")
    _emit(args, payload, lines)
    return 0 if records else 1


def _cmd_cheb(args) -> int:
    if args.n > CHEB_N_CAP:
        raise ArgumentCapError(f"--n must not exceed {CHEB_N_CAP}")
    if args.certify:
        if args.n < 1:
            raise ValueError("--certify needs --n at least 1")
        report = cheb_certify(args.n, _sample_range(args))
        cert = report.certificate
        payload = {
            "command": "cheb",
            "n": _decimal(args.n),
            "from": _decimal(args.lo),
            "to": _decimal(args.hi),
            "note": SAMPLE_WINDOW_NOTE,
            "evaluation": _eval_report_payload(report.evaluation, ZZ),
            "certificate": {
                "verdict": cert.verdict,
                "quotient": str(cert.quotient) if cert.quotient is not None else None,
                "witness": _decimal(cert.witness) if cert.witness is not None else None,
            },
            "passed": report.passed,
        }
        lines = [
            f"evaluation phase over k = {args.lo}..{args.hi}:",
            *_eval_report_lines(report.evaluation, ZZ),
            f"polynomial phase: {cert.verdict}",
        ]
        if cert.quotient is not None:
            lines.append(f"quotient: {cert.quotient}")
        lines.append(f"passed: {report.passed}")
        _emit(args, payload, lines)
        return 0 if report.passed else 1
    pair = deque(_cheb_pairs(args.n), maxlen=1).pop()
    payload = {
        "command": "cheb",
        "n": _decimal(args.n),
        "p": str(pair.p),
        "q": str(pair.q),
    }
    lines = [f"p_{args.n} = {pair.p}", f"q_{args.n} = {pair.q}"]
    _emit(args, payload, lines)
    return 0


def _cmd_zwdemo(args) -> int:
    if args.trials > ZWDEMO_TRIALS_CAP:
        raise ArgumentCapError(f"--trials must not exceed {ZWDEMO_TRIALS_CAP}")
    if args.seed is not None:
        seed = args.seed
    elif SEED_ENV_VAR in os.environ:
        seed = int(os.environ[SEED_ENV_VAR])
    else:
        seed = DEFAULT_DEMO_SEED
    report = zw_unit_demo(args.trials, seed)
    payload = {
        "command": "zwdemo",
        "trials": _decimal(report.trials),
        "seed": _decimal(report.seed),
        "passes": _decimal(report.passes),
        "failures": [
            {"argument": str(argument), "value": str(value)}
            for argument, value in report.failures
        ],
    }
    lines = [
        f"trials: {report.trials}  passes: {report.passes}  "
        f"failures: {len(report.failures)}  (seed {report.seed})"
    ]
    for argument, value in report.failures:
        lines.append(
            f"COUNTEREXAMPLE: ({argument})^2 + 1 = {value} is not a unit"
        )
    _emit(args, payload, lines)
    return 0 if report.all_units else 1


def _cmd_transfer(args) -> int:
    samples = _sample_range(args)
    ring = _require_quad(parse_ring(args.ring))
    f = parse_poly(args.f, ring)
    g = parse_poly(args.g, ring)
    report = norm_transfer_check(f, g, samples)
    payload = {
        "command": "transfer",
        "ring": str(ring),
        "f": str(f),
        "g": str(g),
        "from": _decimal(args.lo),
        "to": _decimal(args.hi),
        "note": SAMPLE_WINDOW_NOTE,
        "norm_f": str(report.dividend_norm_poly),
        "norm_g": str(report.divisor_norm_poly),
        "samples": [
            {
                "point": _decimal(s.point),
                "divisor_value": ring.format(s.divisor_value),
                "dividend_value": ring.format(s.dividend_value),
                "divisor_norm": _decimal(s.divisor_norm),
                "dividend_norm": _decimal(s.dividend_norm),
                "element_divides": s.element_divides,
                "norm_divides": s.norm_divides,
                "status": s.status,
            }
            for s in report.samples
        ],
        "verdict": report.verdict,
    }
    lines = [
        f"norm of f: {report.dividend_norm_poly}",
        f"norm of g: {report.divisor_norm_poly}",
        f"samples: b = {args.lo}..{args.hi} ({SAMPLE_WINDOW_NOTE})",
    ]
    for s in report.samples:
        lines.append(
            f"b = {s.point}: g(b) = {ring.format(s.divisor_value)}, "
            f"f(b) = {ring.format(s.dividend_value)}, "
            f"G(b) = {_decimal(s.divisor_norm)}, F(b) = {_decimal(s.dividend_norm)}, "
            f"element divides: {s.element_divides}, norm divides: {s.norm_divides} -> {s.status}"
        )
    lines.append(f"verdict: {report.verdict}")
    _emit(args, payload, lines)
    return 0 if report.verdict == "CONSISTENT" else 1


def _add_window(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--from", dest="lo", type=int, default=-DEFAULT_WINDOW,
                        help=f"first sample point (default %(default)s, at most {SAMPLE_POINT_CAP} in absolute value)")
    parser.add_argument("--to", dest="hi", type=int, default=DEFAULT_WINDOW,
                        help=f"last sample point (default %(default)s, at most {SAMPLE_POINT_CAP} in absolute value)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dringkit",
        description=(
            "Exact divisibility-from-evaluations toolkit for integer and "
            "quadratic-integer polynomials."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a single JSON document instead of text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("divides", parents=[common],
                       help="decide g | f in R[x] for primitive nonconstant g")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--ring", default="Z", help='"Z" or "Q(sqrt d)" (default Z)')
    p.add_argument("--bound", type=int, default=1000,
                   help=f"witness scan bound |k| <= B (default %(default)s, at most {SAMPLE_POINT_CAP})")
    p.add_argument("--primitive-part", dest="primitive_part", action="store_true",
                   help="replace g by its primitive part before certifying")
    p.set_defaults(func=_cmd_divides)

    p = sub.add_parser("pseudodiv", parents=[common],
                       help="fraction-free division with multiplier lc(g)^s")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--ring", default="Z")
    p.set_defaults(func=_cmd_pseudodiv)

    p = sub.add_parser("content", parents=[common],
                       help="content and primitive part of a polynomial")
    p.add_argument("p")
    p.add_argument("--ring", default="Z")
    p.set_defaults(func=_cmd_content)

    p = sub.add_parser("normpoly", parents=[common],
                       help="norm polynomial over Z of a quadratic-coefficient polynomial")
    p.add_argument("p")
    p.add_argument("--ring", required=True, help='must be "Q(sqrt d)"')
    p.set_defaults(func=_cmd_normpoly)

    p = sub.add_parser("evalcheck", parents=[common],
                       help="check g(k) | f(k) over a sample window")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--ring", default="Z")
    _add_window(p)
    p.set_defaults(func=_cmd_evalcheck)

    p = sub.add_parser("sf", parents=[common],
                       help="primes p <= limit at which f has a root mod p")
    p.add_argument("f")
    p.add_argument("--limit", type=int, required=True,
                   help=f"search primes up to L (at most {SF_LIMIT_CAP})")
    p.set_defaults(func=_cmd_sf)

    p = sub.add_parser("cheb", parents=[common],
                       help="recurrence pair p_n, q_n; --certify checks p_n | q_2n")
    p.add_argument("--n", type=int, required=True,
                   help=f"index of the pair (at most {CHEB_N_CAP})")
    p.add_argument("--certify", action="store_true")
    _add_window(p)
    p.set_defaults(func=_cmd_cheb)

    p = sub.add_parser("zwdemo", parents=[common],
                       help="unit values of x^2 + 1 over Z[W], seeded trials")
    p.add_argument("--trials", type=int, default=10_000,
                   help=f"number of seeded trials (default %(default)s, at most {ZWDEMO_TRIALS_CAP})")
    p.add_argument("--seed", type=int, default=None,
                   help=f"RNG seed (default: ${SEED_ENV_VAR} or {DEFAULT_DEMO_SEED})")
    p.set_defaults(func=_cmd_zwdemo)

    p = sub.add_parser("transfer", parents=[common],
                       help="check that elementwise divisibility transfers to norms")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--ring", required=True, help='must be "Q(sqrt d)"')
    _add_window(p)
    p.set_defaults(func=_cmd_transfer)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DRingKitError, ZeroDivisionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, RecursionError) as exc:
        print(f"error: out of resources ({type(exc).__name__})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
