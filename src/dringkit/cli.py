"""Command-line front end: one subcommand per library operation.

All inputs arrive as arguments (stdin is never read). Each subcommand
builds one payload, printed as a single JSON document with --json; its
human-readable text is read from that payload. In JSON, every integer is a
decimal string so that arbitrary-precision values never pass through
floating point, and keys are emitted sorted. Exit codes: 0 affirmative/success, 1 negative verdict,
2 usage or computation error, including running out of memory or recursion
depth and a standard output closed early (as by `| head`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .errors import ArgumentCapError, DRingKitError, UnsupportedRingError
from .lab import (
    DEFAULT_DEMO_SEED,
    DEFAULT_WINDOW,
    SAMPLE_WINDOW_NOTE,
    _cheb_pair,
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

SF_LIMIT_CAP = 10**6
CHEB_N_CAP = 1000
ZWDEMO_TRIALS_CAP = 500_000
SAMPLE_POINT_CAP = 1000


def _check_option(option: str, value: int, least: int, cap: int) -> None:
    """Usage errors, named after the option, for a value outside least..cap."""
    if value > cap:
        raise ArgumentCapError(f"{option} must not exceed {cap}")
    if value < least:
        raise ValueError(f"{option} must be at least {least}")


def _check_point_cap(option: str, value: int) -> None:
    if abs(value) > SAMPLE_POINT_CAP:
        raise ArgumentCapError(f"|{option}| must not exceed {SAMPLE_POINT_CAP}")


def _sample_window(args) -> tuple[range, dict]:
    """The checked sample points and their echo: from, to and the window note."""
    _check_point_cap("--from", args.lo)
    _check_point_cap("--to", args.hi)
    if args.lo > args.hi:
        raise ValueError("--from must not exceed --to")
    echo = {"from": _decimal(args.lo), "to": _decimal(args.hi), "note": SAMPLE_WINDOW_NOTE}
    return range(args.lo, args.hi + 1), echo


def _operands(args, *names: str, quad: bool = False) -> tuple:
    """Parse --ring and the named operands; return the ring, each polynomial,
    and the payload that echoes the command, the ring and the operands."""
    ring = parse_ring(args.ring)
    if quad and not isinstance(ring, QuadRing):
        raise UnsupportedRingError('this subcommand needs --ring "Q(sqrt d)"')
    polys = [parse_poly(getattr(args, name), ring) for name in names]
    payload = {"command": args.command, "ring": str(ring)}
    payload.update(zip(names, map(str, polys)))
    return (ring, *polys, payload)


def _certificate(cert) -> dict:
    return {
        "verdict": cert.verdict,
        "quotient": None if cert.quotient is None else str(cert.quotient),
        "witness": None if cert.witness is None else _decimal(cert.witness),
    }


def _eval_report(report, ring) -> tuple[dict, list[str]]:
    failures = [
        {
            "point": _decimal(point),
            "divisor_value": ring.format(gval),
            "dividend_value": ring.format(fval),
        }
        for point, gval, fval in report.failures
    ]
    payload = {
        "checked": _decimal(report.checked),
        "vacuous": _decimal(report.vacuous),
        "divisible": _decimal(report.divisible),
        "failures": failures,
        "verdict": report.verdict,
    }
    lines = [
        f"checked: {payload['checked']}  vacuous: {payload['vacuous']}  "
        f"divisible: {payload['divisible']}  failures: {len(failures)}",
    ]
    for failure in failures:
        lines.append(
            f"failure at k = {failure['point']}: g(k) = {failure['divisor_value']} "
            f"does not divide f(k) = {failure['dividend_value']}"
        )
    lines.append(f"verdict: {report.verdict}")
    return payload, lines


def _cmd_divides(args) -> tuple[dict, list[str], bool]:
    _check_option("--bound", args.bound, 0, SAMPLE_POINT_CAP)
    ring, f, g, payload = _operands(args, "f", "g")
    payload["bound"] = _decimal(args.bound)
    lines = []
    if args.primitive_part:
        cont, g = primitive_part(g)
        payload["divisor_content"] = ring.format(cont)
        payload["divisor_primitive_part"] = str(g)
        lines.append(
            f"divisor replaced by its primitive part {payload['divisor_primitive_part']} "
            f"(content {payload['divisor_content']})"
        )
    cert = certify_divisibility(f, g, search_bound=args.bound)
    payload.update(_certificate(cert))
    lines.append(f"verdict: {cert.verdict}")
    if payload["quotient"] is not None:
        lines.append(f"quotient: {payload['quotient']}")
    if cert.witness is not None:
        payload["witness_divisor_value"] = ring.format(g.evaluate(cert.witness))
        payload["witness_dividend_value"] = ring.format(f.evaluate(cert.witness))
        lines.append(
            f"witness: k = {payload['witness']} "
            f"with g(k) = {payload['witness_divisor_value']} "
            f"not dividing f(k) = {payload['witness_dividend_value']}"
        )
    elif cert.verdict == "NOT_DIVIDES":
        lines.append(
            f"no witness found with |k| <= {payload['bound']}; one exists somewhere in Z"
        )
    return payload, lines, cert.verdict == "DIVIDES"


def _cmd_pseudodiv(args) -> tuple[dict, list[str], bool]:
    ring, f, g, payload = _operands(args, "f", "g")
    result = pseudo_divide(f, g)
    payload["multiplier"] = ring.format(result.multiplier)
    payload["power"] = _decimal(result.s)
    payload["quotient"] = str(result.quotient)
    payload["remainder"] = str(result.remainder)
    lines = [
        f"multiplier: {payload['multiplier']} "
        f"(leading coefficient to the power {payload['power']})",
        f"quotient: {payload['quotient']}",
        f"remainder: {payload['remainder']}",
    ]
    return payload, lines, True


def _cmd_content(args) -> tuple[dict, list[str], bool]:
    ring, p, payload = _operands(args, "p")
    cont, prim = primitive_part(p)
    payload["content"] = ring.format(cont)
    payload["primitive_part"] = str(prim)
    lines = [f"content: {payload['content']}", f"primitive part: {payload['primitive_part']}"]
    return payload, lines, True


def _cmd_normpoly(args) -> tuple[dict, list[str], bool]:
    _, p, payload = _operands(args, "p", quad=True)
    payload["conjugate"] = str(conjugate_poly(p))
    payload["norm"] = str(norm_poly(p))
    lines = [f"conjugate: {payload['conjugate']}", f"norm: {payload['norm']}"]
    return payload, lines, True


def _cmd_evalcheck(args) -> tuple[dict, list[str], bool]:
    samples, window = _sample_window(args)
    ring, f, g, payload = _operands(args, "f", "g")
    report, report_lines = _eval_report(eval_divisibility(f, g, samples), ring)
    payload.update(window, **report)
    lines = [
        f"samples: k = {window['from']}..{window['to']} ({window['note']})",
        *report_lines,
    ]
    return payload, lines, report["verdict"] == "ALL_DIVIDE"


def _cmd_sf(args) -> tuple[dict, list[str], bool]:
    _check_option("--limit", args.limit, 2, SF_LIMIT_CAP)
    f = parse_poly(args.f)
    records = [
        {"prime": _decimal(r.prime), "root": _decimal(r.root)}
        for r in sf_search(f, args.limit)
    ]
    payload = {
        "command": "sf",
        "f": str(f),
        "limit": _decimal(args.limit),
        "count": _decimal(len(records)),
        "records": records,
    }
    lines = [
        f"primes p <= {payload['limit']} at which {payload['f']} has a root mod p: "
        f"{payload['count']}"
    ]
    for record in records:
        lines.append(f"p = {record['prime']}: root {record['root']}")
    return payload, lines, bool(records)


def _cmd_cheb(args) -> tuple[dict, list[str], bool]:
    _check_option("--n", args.n, 0, CHEB_N_CAP)
    if args.certify and args.n < 1:
        raise ValueError("--certify needs --n at least 1")
    samples, window = _sample_window(args)
    payload = {"command": "cheb", "n": _decimal(args.n)}
    if not args.certify:
        pair = _cheb_pair(args.n)
        payload["p"] = str(pair.p)
        payload["q"] = str(pair.q)
        lines = [f"p_{payload['n']} = {payload['p']}", f"q_{payload['n']} = {payload['q']}"]
        return payload, lines, True
    report = cheb_certify(args.n, samples)
    evaluation, evaluation_lines = _eval_report(report.evaluation, ZZ)
    cert = _certificate(report.certificate)
    payload.update(window, evaluation=evaluation, certificate=cert, passed=report.passed)
    lines = [
        f"evaluation phase over k = {window['from']}..{window['to']}:",
        *evaluation_lines,
        f"polynomial phase: {cert['verdict']}",
    ]
    if cert["quotient"] is not None:
        lines.append(f"quotient: {cert['quotient']}")
    lines.append(f"passed: {report.passed}")
    return payload, lines, report.passed


def _cmd_zwdemo(args) -> tuple[dict, list[str], bool]:
    _check_option("--trials", args.trials, 1, ZWDEMO_TRIALS_CAP)
    report = zw_unit_demo(args.trials, args.seed)
    payload = {
        "command": "zwdemo",
        "trials": _decimal(report.trials),
        "seed": _decimal(report.seed),
        "passes": _decimal(report.passes),
        "certified": _decimal(report.certified),
    }
    lines = [f"trials: {payload['trials']}  passes: {payload['passes']}  (seed {payload['seed']})"]
    return payload, lines, report.all_units


def _cmd_transfer(args) -> tuple[dict, list[str], bool]:
    samples, window = _sample_window(args)
    ring, f, g, payload = _operands(args, "f", "g", quad=True)
    report = norm_transfer_check(f, g, samples)
    rows = [
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
    ]
    payload.update(window, samples=rows, verdict=report.verdict)
    payload["norm_f"] = str(report.dividend_norm_poly)
    payload["norm_g"] = str(report.divisor_norm_poly)
    lines = [
        f"norm of f: {payload['norm_f']}",
        f"norm of g: {payload['norm_g']}",
        f"samples: b = {window['from']}..{window['to']} ({window['note']})",
    ]
    for s in rows:
        lines.append(
            f"b = {s['point']}: g(b) = {s['divisor_value']}, "
            f"f(b) = {s['dividend_value']}, "
            f"G(b) = {s['divisor_norm']}, F(b) = {s['dividend_norm']}, "
            f"element divides: {s['element_divides']}, "
            f"norm divides: {s['norm_divides']} -> {s['status']}"
        )
    lines.append(f"verdict: {report.verdict}")
    return payload, lines, report.verdict == "CONSISTENT"


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
    any_ring = argparse.ArgumentParser(add_help=False)
    any_ring.add_argument("--ring", default="Z", help='"Z" or "Q(sqrt d)" (default Z)')
    quad_ring = argparse.ArgumentParser(add_help=False)
    quad_ring.add_argument("--ring", required=True, help='must be "Q(sqrt d)"')
    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("--from", dest="lo", type=int, default=-DEFAULT_WINDOW,
                        help=f"first sample point (default %(default)s, at most {SAMPLE_POINT_CAP} in absolute value)")
    window.add_argument("--to", dest="hi", type=int, default=DEFAULT_WINDOW,
                        help=f"last sample point (default %(default)s, at most {SAMPLE_POINT_CAP} in absolute value)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, parents, operands, func, summary) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common, *parents], help=summary)
        for operand in operands:
            p.add_argument(operand)
        p.set_defaults(func=func)
        return p

    p = add("divides", [any_ring], ("f", "g"), _cmd_divides,
            "decide g | f in R[x] for primitive nonconstant g")
    p.add_argument("--bound", type=int, default=1000,
                   help=f"witness scan bound |k| <= B (default %(default)s, at most {SAMPLE_POINT_CAP})")
    p.add_argument("--primitive-part", dest="primitive_part", action="store_true",
                   help="replace g by its primitive part before certifying")
    add("pseudodiv", [any_ring], ("f", "g"), _cmd_pseudodiv,
        "fraction-free division with multiplier lc(g)^s")
    add("content", [any_ring], ("p",), _cmd_content,
        "content and primitive part of a polynomial")
    add("normpoly", [quad_ring], ("p",), _cmd_normpoly,
        "norm polynomial over Z of a quadratic-coefficient polynomial")
    add("evalcheck", [any_ring, window], ("f", "g"), _cmd_evalcheck,
        "check g(k) | f(k) over a sample window")
    p = add("sf", [], ("f",), _cmd_sf, "primes p <= limit at which f has a root mod p")
    p.add_argument("--limit", type=int, required=True,
                   help=f"search primes up to L (at most {SF_LIMIT_CAP})")
    p = add("cheb", [window], (), _cmd_cheb,
            "Chebyshev pair p_n = T_n, q_n = U_{n-1}; --certify checks p_n | q_2n")
    p.add_argument("--n", type=int, required=True,
                   help=f"index of the pair (at most {CHEB_N_CAP})")
    p.add_argument("--certify", action="store_true",
                   help="also certify p_n | q_2n, pointwise on the window and as polynomials")
    p = add("zwdemo", [], (), _cmd_zwdemo, "unit values of x^2 + 1 over Z[W], seeded trials")
    p.add_argument("--trials", type=int, default=10_000,
                   help=f"number of seeded trials (default %(default)s, at most {ZWDEMO_TRIALS_CAP})")
    p.add_argument("--seed", type=int, default=DEFAULT_DEMO_SEED,
                   help="RNG seed (default %(default)s)")
    add("transfer", [quad_ring, window], ("f", "g"), _cmd_transfer,
        "check that elementwise divisibility transfers to norms")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, lines, ok = args.func(args)
        if args.json:
            print(json.dumps(payload, sort_keys=True, indent=2))
        else:
            print("\n".join(lines))
        sys.stdout.flush()
        return 0 if ok else 1
    except BrokenPipeError:
        # Python's signal docs, "Note on SIGPIPE": stdout goes to devnull, so
        # the flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output closed before all output was written", file=sys.stderr)
        return 2
    except (DRingKitError, ZeroDivisionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, RecursionError) as exc:
        print(f"error: out of resources ({type(exc).__name__})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
