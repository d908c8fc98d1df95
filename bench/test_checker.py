"""Self-tests of the benchmark's answer checker and metric list.

    python3 -m pytest bench/test_checker.py

Real answers from the library must pass the checker, and one corrupted
answer of each kind must be counted as failed by the same code path the
benchmark's request loop uses.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import dringkit as dk  # noqa: E402

import checker  # noqa: E402
import worker  # noqa: E402
from tracing import metric_names  # noqa: E402
from workloads import MIXES, Mix  # noqa: E402


def first(workload: str, kind: str, seed: int = 1):
    return next(req for req in itertools.islice(Mix(workload, seed), 500) if req.kind == kind)


def failures_for(req, output: str | None = None, error: str | None = None) -> Counter:
    """Feed one answer, or an exception class named `error`, through
    worker.serve in place of the library's answer."""

    def answer(_dk, _req):
        if error is not None:
            raise type(error, (Exception,), {})()
        return output

    failures: Counter = Counter()
    original = worker.execute
    worker.execute = answer
    try:
        worker.serve(dk, req, failures)
    finally:
        worker.execute = original
    return failures


@pytest.mark.parametrize("workload", sorted(MIXES))
def test_real_answers_pass(workload):
    mix = Mix(workload, 3)
    # The first two blocks of every mix hold every request kind.
    for req in itertools.islice(mix, 2 * mix.block):
        if req.op == "sf":
            req = dataclasses.replace(req, args=(min(req.args[0], 600),))
        failures: Counter = Counter()
        worker.serve(dk, req, failures)
        assert not failures, failures


@pytest.mark.parametrize("workload", sorted(MIXES))
def test_bad_inputs_raise_the_expected_error(workload):
    bad = (req for req in Mix(workload, 5) if req.kind == "bad_input")
    # The faults are dealt in rounds of four.
    for req in itertools.islice(bad, 4):
        failures: Counter = Counter()
        worker.serve(dk, req, failures)
        assert not failures, failures


def test_flipped_quotient_coefficient_fails():
    req = first("z_division", "multiple")
    output = worker.execute(dk, req)
    assert not failures_for(req, output)
    fields = dict(line.split(": ", 1) for line in output.splitlines())
    quotient = checker.parse_z_poly(fields["quotient"])
    quotient[0] = -quotient[0] if quotient[0] else 1
    corrupted = output.replace(fields["quotient"], str(dk.Poly(quotient)))
    assert failures_for(req, corrupted) == Counter({("multiple", "quotient * g != f"): 1})


def test_later_witness_fails():
    req = first("z_division", "non_multiple")
    output = worker.execute(dk, req)
    assert not failures_for(req, output)
    f, g = req.polys
    arith = checker.Arith(None)
    found = [k for k in checker.scan_order(50)
             if arith.evaluate(g, k) and not arith.divides(arith.evaluate(g, k), arith.evaluate(f, k))]
    assert len(found) >= 2
    corrupted = output.replace(f"witness: {found[0]}", f"witness: {found[1]}")
    assert failures_for(req, corrupted) == Counter(
        {("non_multiple", "witness is not the first in scan order"): 1})


def test_wrong_sf_root_fails():
    req = first("prime_scan", "sf")
    req = dataclasses.replace(req, args=(600,))
    output = worker.execute(dk, req)
    assert not failures_for(req, output)
    head, line, *rest = output.splitlines()
    p, root = map(int, line.split())
    wrong = "\n".join([head, f"{p} {(root + 1) % p}", *rest])
    assert sum(failures_for(req, wrong).values()) == 1
    # A later root that is a root, but not the least one, fails too.
    f = req.polys[0]
    roots = [k for k in range(p) if sum(c * k**i for i, c in enumerate(f)) % p == 0]
    later = next((r for r in roots if r > root), None)
    if later is not None:
        not_least = "\n".join([head, f"{p} {later}", *rest])
        assert failures_for(req, not_least) == Counter(
            {("sf", f"{later} is not the least root mod {p}"): 1})


def test_wrong_error_class_fails():
    req = first("quad_ring", "bad_input")
    assert not failures_for(req, error=req.expect)
    counted = failures_for(req, error="ValueError")
    assert counted == Counter({("bad_input", f"expected {req.expect}, got ValueError"): 1})


def test_an_answer_to_bad_input_fails():
    req = first("z_division", "bad_input")
    assert sum(failures_for(req, "verdict: DIVIDES\nquotient: 1\nwitness: None").values()) == 1


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    expected = metric_names() + [("trace_overhead", "ratio"), ("cli.import_s", "s"), ("cli.first_request_s", "s")]
    assert per_layer == expected
    assert [w["name"] for w in spec["workloads"]] == list(MIXES)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "latency_p50_ms", "latency_p90_ms", "requests_per_s", "ok_share", "peak_rss_mb"}
