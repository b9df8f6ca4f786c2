"""Per-layer tracing of modinv from outside the package.

The tracer rebinds the public functions and methods listed in ``OPS`` to
timing wrappers while a job runs, and puts the originals back after it.
A name bound with ``from ... import`` is a separate reference in every
module that imported it, so each ``modinv.*`` module holding the same
object is rebound. Nothing under ``src/`` is edited.

Every wrapped call is aggregated per (op, parent op): calls, total time,
self time (its time minus the time of the wrapped calls it made, the
tracer's bookkeeping around those calls included) and the op's work
counts. Calls of non-leaf ops are also kept as spans (op, start,
end, parent span, job) in memory and written out when the run ends. Leaf
ops (the kernels, ``check_prime``, ``Mat2`` construction and inversion and
the ``Subspace`` row operations) run about a million times per workload,
so they are aggregated only. An op that the checkout does not define
raises ``MissingOp``: its metrics cannot be measured.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref
from dataclasses import dataclass
from typing import Optional

# layer name in metric names -> modinv module (metric names must start
# with a letter, so _kernels is reported as "kernels")
LAYERS = {
    "kernels": "_kernels",
    "fp_arith": "fp_arith",
    "fp_linalg": "fp_linalg",
    "grp2": "grp2",
    "poly2": "poly2",
    "graded_ideal": "graded_ideal",
    "demazure": "demazure",
    "stable_chain": "stable_chain",
}


@dataclass(frozen=True)
class Op:
    layer: str
    attr: str  # "func" or "Class.method"
    leaf: bool = False
    counts: tuple[str, ...] = ()  # work counts reported for the op
    cache: Optional[str] = None  # module attribute holding the op's lru_cache

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.attr.replace('__', '')}"  # Mat2.__init__ -> Mat2.init


OPS = (
    Op("kernels", "rref", leaf=True, counts=("cells", "rank_ratio")),
    Op("kernels", "reduce_row", leaf=True, counts=("cells",)),
    Op("kernels", "convolve", leaf=True, counts=("cells",)),
    Op("fp_arith", "check_prime", leaf=True),
    Op("fp_linalg", "Subspace.span", leaf=True, counts=("rows_in",)),
    Op("fp_linalg", "Subspace.reduce", leaf=True),
    Op("fp_linalg", "kernel"),
    Op("grp2", "Mat2.__init__", leaf=True),
    Op("grp2", "Mat2.inv", leaf=True),
    Op("grp2", "generate_closure", counts=("elements",)),
    Op("grp2", "classify"),
    Op("grp2", "find_conjugator", counts=("candidates",)),
    Op("grp2", "all_invertible"),
    Op("grp2", "catalog_group", counts=("hit_ratio",), cache="catalog_group"),
    Op("poly2", "act"),
    Op("poly2", "act_matrix", counts=("hit_ratio",), cache="act_matrix"),
    Op("poly2", "div_exact_linear"),
    Op("poly2", "Poly2.__mul__"),
    Op("graded_ideal", "GradedIdeal.slice", counts=("degrees_built",)),
    Op("graded_ideal", "invariant_slice"),
    Op("graded_ideal", "GradedIdeal.member"),
    Op("graded_ideal", "ideal_equal"),
    Op("graded_ideal", "GradedIdeal.quotient_dims"),
    Op("graded_ideal", "minimal_generators"),
    Op("graded_ideal", "basis_check"),
    Op("demazure", "generalized_ideal"),
    Op("demazure", "delta_slice_rows", counts=("hit_ratio",), cache="_delta_slice_rows"),
    Op("demazure", "chain"),
    Op("stable_chain", "stable_chain"),
    Op("stable_chain", "compute_J1"),
    Op("stable_chain", "next_ideal"),
)

COUNT_UNITS = {"hit_ratio": "ratio", "rank_ratio": "ratio"}
MAX_SPANS = 300_000
ROOT = "job"


def metric_specs() -> list[dict]:
    """Every per-layer metric the traced run reports, as BENCHMARK.json
    lists them (name, unit, better)."""
    specs = []
    for op in OPS:
        specs.append({"name": f"{op.name}.calls", "unit": "count", "better": "lower"})
        specs.append({"name": f"{op.name}.self_s", "unit": "s", "better": "lower"})
        for c in op.counts:
            unit = COUNT_UNITS.get(c, "count")
            specs.append({"name": f"{op.name}.{c}", "unit": unit, "better": "higher" if unit == "ratio" else "lower"})
    for layer in LAYERS:
        specs.append({"name": f"{layer}.self_s", "unit": "s", "better": "lower"})
    return specs


class MissingOp(LookupError):
    """An op of ``OPS`` that the checkout does not define. Its metrics
    cannot be measured, and reading them as 0 would look like a gain, so
    the traced run stops instead."""

    def __init__(self, name: str):
        super().__init__(f"{name} is not in this checkout; update OPS in perfbench/tracer.py")


def _modinv_modules():
    return [m for name, m in list(sys.modules.items()) if name == "modinv" or name.startswith("modinv.")]


class Tracer:
    """Wraps the ops while a job runs (``begin_job`` .. ``end_job``)."""

    def __init__(self):
        self.stats: dict[tuple[str, str], list] = {}  # (op, parent op) -> [calls, total_s, self_s, counts]
        self.spans: list = []  # (op, start, end, parent span index or -1, job)
        self.dropped_spans = 0
        self.job_s = 0.0
        self.covered_s = 0.0  # job time spent inside wrapped calls
        self.cache_delta: dict[str, list[int]] = {}  # op -> [hits, misses]
        self._stack: list[list] = []
        self._job = -1
        self._slices_built = weakref.WeakKeyDictionary()  # ideal -> highest degree requested
        self._sites: list[tuple[object, str, object, object]] = []  # (holder, attr, original, wrapper)
        self._caches: dict[str, object] = {}
        self._cache_start: dict[str, tuple[int, int]] = {}
        for op in OPS:
            self._bind(op)

    # -- binding --------------------------------------------------------------

    def _bind(self, op: Op) -> None:
        module = importlib.import_module(f"modinv.{LAYERS[op.layer]}")
        if op.cache and hasattr(getattr(module, op.cache, None), "cache_info"):
            self._caches[op.name] = getattr(module, op.cache)
        if "." in op.attr:
            cls_name, meth = op.attr.split(".")
            cls = getattr(module, cls_name, None)
            raw = vars(cls).get(meth) if isinstance(cls, type) else None
            if raw is None:
                raise MissingOp(op.name)
            if isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(op, raw.__func__))
            else:
                replacement = self._wrap(op, raw)
            holders = [(cls, attr) for attr, value in vars(cls).items() if value is raw]
        else:
            raw = getattr(module, op.attr, None)
            if raw is None:
                raise MissingOp(op.name)
            replacement = self._wrap(op, raw)
            holders = [
                (m, attr) for m in _modinv_modules() for attr, value in vars(m).items() if value is raw
            ]
        self._sites.extend((holder, attr, raw, replacement) for holder, attr in holders)

    def install(self) -> None:
        for holder, attr, _, wrapper in self._sites:
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original, _ in self._sites:
            setattr(holder, attr, original)

    # -- jobs -------------------------------------------------------------------

    def begin_job(self, job: int) -> None:
        self._job = job
        for name, cache in self._caches.items():
            info = cache.cache_info()
            self._cache_start[name] = (info.hits, info.misses)
        self._stack.append([ROOT, 0.0, -1])
        self.install()

    def end_job(self, seconds: float) -> None:
        self.uninstall()
        root = self._stack.pop()
        self.job_s += seconds
        self.covered_s += root[1]
        for name, cache in self._caches.items():
            info = cache.cache_info()
            hits, misses = self._cache_start[name]
            delta = self.cache_delta.setdefault(name, [0, 0])
            delta[0] += info.hits - hits
            delta[1] += info.misses - misses

    # -- the wrapper --------------------------------------------------------------

    def _wrap(self, op: Op, fn):
        name = op.name
        keep_span = not op.leaf
        stack, stats, spans = self._stack, self.stats, self.spans
        clock = time.perf_counter
        count = getattr(self, f"_count_{op.attr.replace('.', '_')}", None)
        prepare = self._prepare_span if op.attr == "Subspace.span" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = clock()
            parent = stack[-1]
            try:
                if prepare is not None:
                    args = prepare(args)
                if keep_span and len(spans) < MAX_SPANS:
                    span = len(spans)
                    spans.append(None)
                else:
                    if keep_span:
                        self.dropped_spans += 1
                    span = parent[2]
                frame = [name, 0.0, span]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    elapsed = end - start
                    rec = stats.get((name, parent[0]))
                    if rec is None:
                        rec = stats[(name, parent[0])] = [0, 0.0, 0.0, {}]
                    rec[0] += 1
                    rec[1] += elapsed
                    rec[2] += elapsed - frame[1]
                    if span != parent[2]:
                        spans[span] = (name, start, end, parent[2], self._job)
                if count is not None:
                    count(rec[3], args, result)
                return result
            finally:
                # the parent's self time leaves out this whole call, the
                # tracer's own bookkeeping and counting included
                parent[1] += clock() - entered

        return traced

    # -- work counts (args as the wrapped function receives them) -------------------

    @staticmethod
    def _prepare_span(args):
        # span(cls, p, ncols, rows): rows may be a one-shot iterable
        if len(args) == 4:
            return args[:3] + (list(args[3]),)
        return args

    @staticmethod
    def _add(counts: dict, key: str, n) -> None:
        counts[key] = counts.get(key, 0) + n

    def _count_rref(self, counts, args, result):
        rows = args[0]
        if rows:
            self._add(counts, "cells", len(rows) * len(rows[0]))
        self._add(counts, "rows_nonzero", sum(1 for r in rows if any(r)))
        self._add(counts, "rank", len(result[0]))

    def _count_reduce_row(self, counts, args, result):
        self._add(counts, "cells", len(args[0]) * len(args[1]))

    def _count_convolve(self, counts, args, result):
        self._add(counts, "cells", len(args[0]) * len(args[1]))

    def _count_Subspace_span(self, counts, args, result):
        if len(args) == 4:
            self._add(counts, "rows_in", len(args[3]))

    def _count_generate_closure(self, counts, args, result):
        self._add(counts, "elements", len(result.elements))

    def _count_GradedIdeal_slice(self, counts, args, result):
        # slice(d) builds every degree up to d once per ideal, then caches
        ideal, d = args[0], args[1]
        built = self._slices_built.get(ideal, 0)
        if d > built:
            self._add(counts, "degrees_built", d - built)
            self._slices_built[ideal] = d

    # -- results --------------------------------------------------------------------

    def op_totals(self) -> dict[str, dict]:
        """Per op: calls, self_s and counts summed over parents."""
        out: dict[str, dict] = {}
        for (name, _parent), (calls, _total, self_s, counts) in self.stats.items():
            agg = out.setdefault(name, {"calls": 0, "self_s": 0.0, "counts": {}})
            agg["calls"] += calls
            agg["self_s"] += self_s
            for key, n in counts.items():
                self._add(agg["counts"], key, n)
        return out

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric named by ``metric_specs``, plus trace.coverage."""
        totals = self.op_totals()
        out: dict[str, float] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for op in OPS:
            agg = totals.get(op.name, {"calls": 0, "self_s": 0.0, "counts": {}})
            counts = agg["counts"]
            out[f"{op.name}.calls"] = agg["calls"]
            out[f"{op.name}.self_s"] = agg["self_s"]
            layer_self[op.layer] += agg["self_s"]
            for c in op.counts:
                if c == "rank_ratio":
                    value = counts.get("rank", 0) / counts["rows_nonzero"] if counts.get("rows_nonzero") else 0.0
                elif c == "hit_ratio":
                    hits, misses = self.cache_delta.get(op.name, (0, 0))
                    value = hits / (hits + misses) if hits + misses else 0.0
                elif c == "candidates":
                    value = self.stats.get(("grp2.Mat2.inv", op.name), [0])[0]
                else:
                    value = counts.get(c, 0)
                out[f"{op.name}.{c}"] = value
        for layer, seconds in layer_self.items():
            out[f"{layer}.self_s"] = seconds
        out["trace.coverage"] = self.covered_s / self.job_s if self.job_s else 0.0
        return out

    def span_dump(self) -> dict:
        return {
            "fields": ["op", "start_s", "end_s", "parent", "job"],
            "spans": self.spans,
            "dropped_spans": self.dropped_spans,
            "aggregates": [
                {"op": name, "parent": parent, "calls": calls, "total_s": total, "self_s": self_s, **counts}
                for (name, parent), (calls, total, self_s, counts) in sorted(self.stats.items())
            ],
        }
