"""The library names the benchmark reads, checked without running it.

bench/tracing.py looks up every function it times or counts by a dotted
string (SPANNED and COUNTED), and bench/worker.py renders each request from
the attributes of the report it gets back. A rename in src/ breaks them only
when a traced benchmark runs. Here every target is resolved with the tracer's
own `_resolve`, which only reads; `Tracer.install` is not called, since it
would rebind the library for the rest of the session. The zwdemo request is
rendered by the worker and judged by the benchmark's checker.
"""

import importlib
import sys
from pathlib import Path

import pytest

import dringkit

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    names = ("tracing", "worker", "checker", "workloads", "calibrate")
    modules = {name: importlib.import_module(name) for name in names}
    yield modules
    for name in names:
        sys.modules.pop(name, None)


def test_every_traced_name_resolves(bench):
    tracing = bench["tracing"]
    targets = [*tracing.SPANNED, *(target for _, group in tracing.COUNTED for target in group)]
    assert len(targets) == 27
    for module, path in targets:
        member = tracing._resolve(importlib.import_module(f"dringkit.{module}"), path)
        assert callable(member), f"{module}.{path}"


@pytest.mark.parametrize("trials, seed", [(1, 0), (500, 1729), (3000, -7)])
def test_the_worker_renders_zw_unit_demo_and_the_checker_accepts_it(bench, trials, seed):
    request = bench["workloads"].Request("zwdemo", "zwdemo", "Z", args=(trials, seed))
    output = bench["worker"].execute(dringkit, request)
    assert output == f"trials: {trials}\npasses: {trials}\nall_units: True"
    assert bench["checker"].check(request, output, None) is None
