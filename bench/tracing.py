"""Per-layer tracing installed from outside the library.

`Tracer.install` replaces the public functions of each dringkit module with
wrappers that record spans, and its hottest methods with wrappers that only
count calls. Every name a caller looks up is rebound: module attributes,
names other modules bound by importing them (`lab.exact_divide`,
`polynomials.quad_gcd`, the package namespace), and class attributes that
alias a method (`Poly.__rmul__`, `Poly.__call__`, `QuadInt.__rmul__`).

Spans stay in memory as [name, start_ns, end_ns, parent index, request id,
error class, QuadInt multiplications at start, at end] and are written out
as JSON lines after the traced pass. Nothing runs concurrently, so no layer
waits on another: waiting time is zero by design and is not reported.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from pathlib import Path

from checker import primes_to

# Public functions timed as spans, by module: the layers.
SPANNED = (
    ("parsing", "parse_poly"),
    ("parsing", "parse_ring"),
    ("polynomials", "Poly.__mul__"),
    ("polynomials", "Poly.evaluate"),
    ("polynomials", "Poly.__str__"),
    ("polynomials", "exact_divide"),
    ("polynomials", "pseudo_divide"),
    ("polynomials", "content"),
    ("polynomials", "is_primitive"),
    ("polynomials", "primitive_part"),
    ("rings", "quad_gcd"),
    ("rings", "factorize"),
    ("norms", "conjugate_poly"),
    ("norms", "norm_poly"),
    ("norms", "norm_transfer_check"),
    ("lab", "certify_divisibility"),
    ("lab", "cheb_certify"),
    ("lab", "cheb_generate"),
    ("lab", "eval_divisibility"),
    ("lab", "sf_search"),
    ("lab", "zw_unit_demo"),
)
# Spans whose inclusive time is reported as well as their self time.
TOTAL_S = ("polynomials.content", "lab.cheb_certify", "lab.cheb_generate", "lab.eval_divisibility")
# Hot methods: a span per call would swamp the trace, so they are counted.
COUNTED = (
    ("rings.coerce.calls", (("rings", "IntegerRing.coerce"), ("rings", "QuadRing.coerce"))),
    ("polynomials.Poly.constructed", (("polynomials", "Poly.__post_init__"),)),
    ("rings.QuadInt.mul_calls", (("rings", "QuadInt.__mul__"),)),
    ("rings.QuadInt.divides.calls", (("rings", "QuadInt.divides"),)),
    ("rings.WRational.constructed", (("rings", "WRational.__post_init__"),)),
)
_QMUL = 2  # index of rings.QuadInt.mul_calls in COUNTED
# Calls whose arguments and results feed metrics read from outside.
OBSERVED = ("lab.certify_divisibility", "lab.sf_search")
DERIVED = (
    ("rings.coerce.per_mul", "ratio"),
    ("rings.quad_gcd.mul_per_call", "ratio"),
    ("lab.certify_divisibility.witness_points", "count"),
    ("lab.sf_search.residues_tested", "count"),
    ("lab.sf_search.hit_ratio", "ratio"),
)


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every metric `Tracer.metrics` reports, in order."""
    names = []
    for module, path in SPANNED:
        name = f"{module}.{path}"
        names += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
        if name in TOTAL_S:
            names.append((f"{name}.total_s", "s"))
        names.append((f"{name}.errors", "count"))
    names += [(metric, "count") for metric, _ in COUNTED]
    return names + list(DERIVED)


def _resolve(module, path: str):
    owner = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return vars(owner)[attr]


def _rebind(original, replacement, modules) -> None:
    """Point every module- or class-level name bound to `original` at `replacement`."""
    for module in modules:
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
            elif isinstance(value, type) and value.__module__.startswith("dringkit"):
                for attr, member in list(vars(value).items()):
                    if member is original:
                        setattr(value, attr, replacement)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts = [0] * len(COUNTED)
        self.observed: list[tuple] = []
        self.request = -1
        self._stack: list[int] = []
        self._signatures: dict[str, inspect.Signature] = {}

    def install(self, package: str = "dringkit") -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
        for module, path in SPANNED:
            original = _resolve(by_name[module], path)
            _rebind(original, self._span(f"{module}.{path}", original), modules)
        for slot, (_, targets) in enumerate(COUNTED):
            for module, path in targets:
                original = _resolve(by_name[module], path)
                _rebind(original, self._count(slot, original), modules)

    def _span(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = name in OBSERVED
        if observe:
            self._signatures[name] = inspect.signature(fn)
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1, self.request, None, counts[_QMUL], 0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[5] = type(exc).__name__
                raise
            finally:
                record[2] = clock()
                record[7] = counts[_QMUL]
                stack.pop()
            if observe:
                self.observed.append((name, args, kwargs, result))
            return result

        return span

    def _count(self, slot: int, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[slot] += 1
            return fn(*args, **kwargs)

        return counted

    def metrics(self) -> dict[str, float]:
        """Per-layer values, keyed as in `metric_names`."""
        spans = self.spans
        covered = [0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        stats = {f"{module}.{path}": [0, 0, 0, 0] for module, path in SPANNED}
        gcd_muls = 0
        for i, (name, start, end, _, _, error, mul0, mul1) in enumerate(spans):
            entry = stats[name]
            entry[0] += 1
            entry[1] += end - start - covered[i]
            entry[2] += end - start
            entry[3] += error is not None
            if name == "rings.quad_gcd":
                gcd_muls += mul1 - mul0
        out = {}
        for name, (calls, self_ns, total_ns, errors) in stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_ns / 1e9
            if name in TOTAL_S:
                out[f"{name}.total_s"] = total_ns / 1e9
            out[f"{name}.errors"] = errors
        for (metric, _), count in zip(COUNTED, self.counts):
            out[metric] = count
        muls = stats["polynomials.Poly.__mul__"][0]
        gcds = stats["rings.quad_gcd"][0]
        out["rings.coerce.per_mul"] = out["rings.coerce.calls"] / muls if muls else 0.0
        out["rings.quad_gcd.mul_per_call"] = gcd_muls / gcds if gcds else 0.0
        out.update(self._observed_metrics())
        return out

    def _observed_metrics(self) -> dict[str, float]:
        witness_points = residues = primes_scanned = hits = 0
        for name, args, kwargs, result in self.observed:
            bound = self._signatures[name].bind(*args, **kwargs)
            bound.apply_defaults()
            if name == "lab.certify_divisibility":
                if result.quotient is not None:
                    continue
                k = result.witness
                if k is None:
                    witness_points += 2 * bound.arguments["search_bound"] + 1
                else:
                    witness_points += 1 if k == 0 else 2 * k if k > 0 else 2 * -k + 1
            else:
                roots = {record.prime: record.root for record in result}
                primes = primes_to(bound.arguments["prime_limit"])
                residues += sum(roots[p] + 1 if p in roots else p for p in primes)
                primes_scanned += len(primes)
                hits += len(roots)
        return {
            "lab.certify_divisibility.witness_points": witness_points,
            "lab.sf_search.residues_tested": residues,
            "lab.sf_search.hit_ratio": hits / primes_scanned if primes_scanned else 0.0,
        }

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0
        with path.open("w") as out:
            for name, start, end, parent, request, error, _, _ in self.spans:
                out.write(json.dumps({
                    "name": name, "start_ns": start - origin, "end_ns": end - origin,
                    "parent": parent, "request": request, "error": error,
                }) + "\n")
