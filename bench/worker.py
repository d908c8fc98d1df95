"""One workload in its own process, with dringkit imported from the checkout.

Without --trace-file it runs the closed loop: one client sends the next
request only after the previous answer, in whole blocks of the mix, until
MIN_BLOCKS blocks and --seconds of request time have passed. With
--trace-file it replays a fixed batch of TRACE_BLOCKS blocks untraced for
--seconds, then once with the tracer installed, so that every count repeats
exactly for a given seed. Answers are checked between requests, outside the
timed intervals, and every time is rescaled to reference speed (see
calibrate.py). Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import calibrate
import checker
from tracing import Tracer, metric_names
from workloads import MIXES, Mix

# A run holds the mix at least this many times over: at least 294 requests,
# so that far more than ten lie beyond p90, and enough that the costliest
# mix (prime_scan) gives steady percentiles from seed to seed.
MIN_BLOCKS = 6
SAMPLE_EVERY_NS = 10_000_000  # reference samples at most this far apart
TRACE_BLOCKS = {"z_division": 1, "quad_ring": 4, "prime_scan": 1}
TRANSFER_SAMPLES = range(-20, 21)


class ScaledClock:
    """Rescales request times to reference speed, by the mean of the latest
    reference sample before and after each request. A request that ends
    SAMPLE_EVERY_NS or more after the last sample triggers a new one."""

    def __init__(self) -> None:
        self.reference = calibrate.sample()
        self.sampled_at = time.perf_counter_ns()

    def scale(self, elapsed_ns: int) -> float:
        """Seconds at reference speed for a request that has just ended."""
        before = self.reference
        if time.perf_counter_ns() - self.sampled_at > SAMPLE_EVERY_NS:
            self.reference = calibrate.sample()
            self.sampled_at = time.perf_counter_ns()
        return elapsed_ns * 2 / (before + self.reference) * calibrate.NOMINAL_S


def execute(dk, req) -> str:
    """Parse the request's text, make one library call, render with str()."""
    ring = dk.parse_ring(req.ring)
    polys = [dk.parse_poly(text, ring) for text in req.texts]
    if req.op == "cheb":
        report = dk.cheb_certify(*req.args)
        cert = report.certificate
        return (f"passed: {report.passed}\nevaluation: {report.evaluation.verdict}\n"
                f"verdict: {cert.verdict}\nquotient: {cert.quotient}")
    if req.op == "certify":
        cert = dk.certify_divisibility(*polys)
        return f"verdict: {cert.verdict}\nquotient: {cert.quotient}\nwitness: {cert.witness}"
    if req.op == "pseudodiv":
        result = dk.pseudo_divide(*polys)
        return (f"multiplier: {result.multiplier}\npower: {result.s}\n"
                f"quotient: {result.quotient}\nremainder: {result.remainder}")
    if req.op == "content":
        content, primitive = dk.primitive_part(*polys)
        return f"content: {content}\nprimitive_part: {primitive}"
    if req.op == "normpoly":
        return f"norm: {dk.norm_poly(*polys)}"
    if req.op == "transfer":
        report = dk.norm_transfer_check(*polys, TRANSFER_SAMPLES)
        return (f"verdict: {report.verdict}\nnorm_f: {report.dividend_norm_poly}\n"
                f"norm_g: {report.divisor_norm_poly}")
    if req.op == "sf":
        records = dk.sf_search(*polys, *req.args)
        return "\n".join([f"records: {len(records)}"] + [f"{r.prime} {r.root}" for r in records])
    if req.op == "zwdemo":
        report = dk.zw_unit_demo(*req.args)
        return f"trials: {report.trials}\npasses: {report.passes}\nall_units: {report.all_units}"
    raise ValueError(f"unknown op {req.op!r}")


def send(dk, req) -> tuple[int, str | None, str | None]:
    """Time one request: (ns, rendered answer, raised error class)."""
    start = time.perf_counter_ns()
    try:
        output, error = execute(dk, req), None
    except Exception as exc:  # every raise is an answer for the checker to judge
        output, error = None, type(exc).__name__
    return time.perf_counter_ns() - start, output, error


def serve(dk, req, failures: Counter) -> int:
    """Send one request and check its answer outside the timed interval;
    returns the request's ns."""
    elapsed, output, error = send(dk, req)
    reason = checker.check(req, output, error)
    if reason is not None:
        failures[(req.kind, reason)] += 1
    return elapsed


def closed_loop(dk, mix, seconds: float) -> dict:
    raw: list[int] = []
    scaled: list[float] = []
    failures: Counter = Counter()
    clock = ScaledClock()
    spent = 0.0
    while len(raw) % mix.block or len(raw) < MIN_BLOCKS * mix.block or spent < seconds:
        raw.append(serve(dk, next(mix), failures))
        scaled.append(clock.scale(raw[-1]))
        spent += scaled[-1]
    # Input generation, answer checks and reference samples are the
    # benchmark's own work and fall outside every timed interval.
    return {
        "attempted": len(raw),
        "failures": failures,
        "metrics": {
            "latency_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
            "latency_p90_ms": (statistics.quantiles(scaled, n=10)[8] * 1e3, "ms"),
            "requests_per_s": (len(scaled) / spent, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        },
        "unscaled": {
            "latency_p50_ms": statistics.median(raw) / 1e6,
            "latency_p90_ms": statistics.quantiles(raw, n=10)[8] / 1e6,
            "requests_per_s": len(raw) / (sum(raw) / 1e9),
        },
    }


def traced_run(dk, mix, workload: str, seconds: float, trace_file: Path) -> dict:
    batch = [next(mix) for _ in range(TRACE_BLOCKS[workload] * mix.block)]
    failures: Counter = Counter()
    clock = ScaledClock()

    def replay(tracer=None) -> tuple[int, float]:
        raw, scaled = 0, 0.0
        for i, req in enumerate(batch):
            if tracer:
                tracer.request = i
            elapsed = serve(dk, req, failures)
            raw += elapsed
            scaled += clock.scale(elapsed)
        return raw, scaled

    untraced = [replay()[1]]
    while sum(untraced) < seconds:
        untraced.append(replay()[1])
    tracer = Tracer()
    tracer.install()
    traced_raw, traced = replay(tracer)
    tracer.write(trace_file)
    units = dict(metric_names())
    # Span times are rescaled by the traced pass's mean reference factor.
    factor = traced / (traced_raw / 1e9)
    metrics = {
        name: (value * factor if units[name] == "s" else value, units[name])
        for name, value in tracer.metrics().items()
    }
    metrics["trace_overhead"] = (traced / statistics.median(untraced), "ratio")
    return {"attempted": len(batch) * (len(untraced) + 1), "failures": failures, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(MIXES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-file", type=Path)
    parser.add_argument("--src", type=Path, required=True)
    args = parser.parse_args()
    import dringkit as dk

    if Path(dk.__file__).resolve().parent.parent != args.src.resolve():
        print(f"error: dringkit was imported from {dk.__file__}, not {args.src}", file=sys.stderr)
        return 2
    mix = Mix(args.workload, args.seed)
    if args.trace_file:
        result = traced_run(dk, mix, args.workload, args.seconds, args.trace_file)
    else:
        result = closed_loop(dk, mix, args.seconds)
    result["failures"] = [[kind, reason, n] for (kind, reason), n in sorted(result["failures"].items())]
    result["int_max_str_digits"] = sys.get_int_max_str_digits()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
