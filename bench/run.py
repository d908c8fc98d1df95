"""dringkit benchmark: one seeded closed-loop request mix per run.

    python3 bench/run.py --workload z_division --seed 1 --seconds 20 --trace 0

Run it from a checkout: the library is imported from the checkout's src/
directory, in child processes started with PYTHONDONTWRITEBYTECODE=1 so that
every start compiles the same way. A run times SETUP_PROBES fresh set-up
probes (probe.py), half before and half after the workload, which runs in a
process of its own (worker.py). With --trace 0 the last line of output holds
the end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced replay, and the spans go to .bench_traces/. The lines before it repeat
the metrics for people, with the environment and every failed answer. Exit
code 0 means a result was printed; its "correct" field says whether every
answer passed the independent checker (checker.py). See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from checker import check_probe
from workloads import MIXES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_traces"
SETUP_PROBES = 16
DEADLINE_S = 170  # the whole run, set-up probes included


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")


def run_child(argv: list[str], deadline: float) -> dict:
    """Run a Python child to completion and parse the JSON on its last line."""
    proc = subprocess.run(
        [sys.executable, *argv], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=max(deadline - time.monotonic(), 1),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[0]} exited with {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def probe(deadline: float) -> list[dict]:
    return [run_child([str(HERE / "probe.py")], deadline) for _ in range(SETUP_PROBES // 2)]


def summarize_probes(runs: list[dict]) -> tuple[dict, list[str]]:
    """Medians of the probes' import and first-request times, and any faults."""
    faults = []
    for run in runs:
        if Path(run["module"]).resolve().parent.parent != SRC:
            faults.append(f"set-up probe imported {run['module']}")
        fault = check_probe(run["output"], run["exit_code"])
        if fault:
            faults.append(fault)
    def scaled(run, *keys):
        return sum(run[key] for key in keys) * calibrate.NOMINAL_S / run["reference_s"]

    medians = {key: statistics.median(scaled(run, key) for run in runs) for key in ("import_s", "first_request_s")}
    medians["setup_s"] = statistics.median(scaled(run, "import_s", "first_request_s") for run in runs)
    medians["unscaled_setup_s"] = statistics.median(run["import_s"] + run["first_request_s"] for run in runs)
    return medians, faults


def environment(result: dict) -> str:
    return (f"environment: nproc={os.cpu_count()} python={sys.version.split()[0]} "
            f"PYTHONDONTWRITEBYTECODE=1 int_max_str_digits={result['int_max_str_digits']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(MIXES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "dringkit" / "__init__.py").is_file():
        print(f"error: no dringkit sources under {SRC}; run from a dringkit checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        probes = probe(deadline)
        worker = [str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--src", str(SRC)]
        if args.trace:
            worker += ["--trace-file", str(TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl")]
        result = run_child(worker, deadline)
        probes += probe(deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    setup, faults = summarize_probes(probes)
    attempted = result["attempted"]
    failed = sum(n for _, _, n in result["failures"])
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    if args.trace:
        metrics["cli.import_s"] = {"value": setup["import_s"], "unit": "s"}
        metrics["cli.first_request_s"] = {"value": setup["first_request_s"], "unit": "s"}
    else:
        metrics["setup_s"] = {"value": setup["setup_s"], "unit": "s"}
        # Reported as the share answered correctly so that it is never zero.
        metrics["ok_share"] = {"value": 1 - failed / attempted, "unit": "ratio"}

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(environment(result))
    print(f"failed_share = {failed / attempted} ({failed} of {attempted} requests)")
    for kind, reason, n in result["failures"]:
        print(f"failed: {n} x {kind}: {reason}")
    for fault in faults:
        print(f"failed: {fault}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    unscaled = dict(result.get("unscaled", {}), setup_s=setup["unscaled_setup_s"])
    print("as timed, before rescaling to reference speed: "
          + ", ".join(f"{name} = {value}" for name, value in unscaled.items()))
    print(json.dumps({
        "correct": failed == 0 and not faults,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
