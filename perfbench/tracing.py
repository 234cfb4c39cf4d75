"""Spans and counters recorded around calls into ransomgame's layers.

The traced run replaces module-level names that the program looks up at
call time (for example ``ransomgame.optimize.nelder_mead``) with wrappers
that record a span per call: name, start, end, parent span and thread.
Calls too frequent for one span each (the per-node closed-form profit) are
aggregated as a call count plus summed time under their parent span.
Spans stay in memory and are written out once the command has ended.

A target that no longer exists (a module or attribute renamed or deleted
by a later change) is recorded as absent; its layer then reports count 0.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from collections import defaultdict

# Bytes the kernel reads and writes per run: three float64 uniforms in, six
# float64 outputs plus one uint8 outcome kind out.  Computed, not measured.
KERNEL_BYTES_PER_RUN = 3 * 8 + 6 * 8 + 1


class Recorder:
    """Collects spans and aggregated call counts for one command."""

    def __init__(self):
        self.spans = []
        self.aggregates = defaultdict(lambda: [0, 0.0])
        self.absent = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list):
        # A worker thread's first span belongs to whatever the main thread
        # is running when it starts (the call that submitted the work).
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else None

    def span(self, name: str, fn, count=None):
        """Wrap ``fn`` so each call records one span.

        ``count(args, kwargs, result)`` returns a dict of counters for it.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            with self._lock:
                index = len(self.spans)
                self.spans.append(None)
            record = {"name": name, "parent": parent, "thread": threading.get_ident(),
                      "counts": {}}
            stack.append(index)
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                stack.pop()
                self.spans[index] = record
            if count is not None:
                try:
                    record["counts"] = count(args, kwargs, result)
                except (LookupError, TypeError, AttributeError, ValueError, OSError) as e:
                    # A changed signature loses the counters, not the command.
                    record["count_error"] = repr(e)
            return result
        return wrapper

    def aggregate(self, name: str, fn):
        """Wrap ``fn`` so calls add to a (count, seconds) pair per parent span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._parent(self._stack())
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                with self._lock:
                    entry = self.aggregates[(name, parent)]
                    entry[0] += 1
                    entry[1] += elapsed
        return wrapper

    def install(self, targets):
        """Replace each target attribute with its wrapper.

        ``targets`` holds ``(module, attribute, span_name, mode, count)``
        tuples; ``module`` is a module name or a callable returning a module
        (None when it does not exist).  Returns the number of targets absent.
        """
        for module, attr, name, mode, count in targets:
            try:
                mod = module() if callable(module) else importlib.import_module(module)
            except ImportError:
                mod = None
            label = f"{module}.{attr}" if isinstance(module, str) else name
            fn = getattr(mod, attr, None) if mod is not None else None
            if fn is None:
                self.absent.append(label)
                continue
            wrapped = self.aggregate(name, fn) if mode == "aggregate" else \
                self.span(name, fn, count)
            setattr(mod, attr, wrapped)
        return len(self.absent)

    def to_dict(self) -> dict:
        return {"spans": list(self.spans),
                "aggregates": [{"name": n, "parent": p, "calls": c, "seconds": s}
                               for (n, p), (c, s) in self.aggregates.items()],
                "absent": list(self.absent)}


# ---------------------------------------------------------------------------
# Targets on the CLI's hot path.
# ---------------------------------------------------------------------------


def _selected_kernel():
    """The kernel module ``simulate`` will call, or None if there is none."""
    try:
        backend = importlib.import_module("ransomgame._backend")
    except ImportError:
        return None
    get_kernel = getattr(backend, "get_kernel", None)
    return get_kernel() if get_kernel is not None else None


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_blocks(args, kwargs, result):
    return {"blocks": int(_arg(args, kwargs, 2, "n_blocks"))}


def _count_runs(args, kwargs, result):
    return {"runs": int(len(_arg(args, kwargs, 0, "u3")))}


def _count_trace(args, kwargs, result):
    f = _arg(args, kwargs, 1, "f")
    try:
        size = f.tell()
    except (OSError, ValueError):
        size = 0
    return {"rows": int(len(_arg(args, kwargs, 0, "trace").kind)), "bytes": int(size)}


def _count_nelder_mead(args, kwargs, result):
    _, _, n_evals, _, history = result
    return {"evals": int(n_evals), "iterations": len(history)}


def _count_contours(args, kwargs, result):
    return {"polylines": len(result), "points": int(sum(len(line) for line in result))}


def _count_csv(args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    rows = _arg(args, kwargs, 4, "rows")
    return {"rows": len(rows), "bytes": os.path.getsize(path)}


def _count_json(args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    payload = _arg(args, kwargs, 1, "payload")
    rows = payload.get("rows", []) if isinstance(payload, dict) else []
    return {"rows": len(rows), "bytes": os.path.getsize(path)}


CLI_TARGETS = (
    ("ransomgame.cli", "_write_csv", "cli.write", "span", _count_csv),
    ("ransomgame.cli", "_write_json", "cli.write", "span", _count_json),
    ("ransomgame.cli", "run_batch", "simulate.run_batch", "span", None),
    ("ransomgame.cli", "write_trace_csv", "simulate.write_trace_csv", "span", _count_trace),
    ("ransomgame.simulate", "uniform_blocks", "stochastics.uniform_blocks", "span",
     _count_blocks),
    (_selected_kernel, "simulate_runs", "kernel.simulate_runs", "span", _count_runs),
    ("ransomgame.cli", "maximize_profit", "optimize.maximize_profit", "span", None),
    ("ransomgame.optimize", "nelder_mead", "optimize.nelder_mead", "span",
     _count_nelder_mead),
    ("ransomgame.cli", "profit_surface", "optimize.profit_surface", "span", None),
    ("ransomgame.optimize", "zero_contours", "contour.zero_contours", "span",
     _count_contours),
    ("ransomgame.optimize", "expected_profit", "profit.closed_form", "aggregate", None),
)


def _count_quadrature(args, kwargs, result):
    return {"intervals": int(result.n_intervals), "evals": int(result.n_evals)}


# Quadrature is off the CLI's path; the output checks call it.
QUADRATURE_TARGETS = (
    ("ransomgame.profit", "adaptive_quadrature", "quadrature.adaptive_quadrature",
     "span", _count_quadrature),
)


# ---------------------------------------------------------------------------
# From spans to per-layer metrics.
# ---------------------------------------------------------------------------


def exclusive_times(spans: list) -> list:
    """Wall time each span spends as an innermost running span.

    Where several spans are innermost at once (worker threads), they share
    the interval equally, so the exclusive times of a tree sum to its root's
    duration.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        children[s["parent"]].append(i)
    edges = sorted({s["start"] for s in spans} | {s["end"] for s in spans})
    exclusive = [0.0] * len(spans)
    for lo, hi in zip(edges, edges[1:]):
        active = {i for i, s in enumerate(spans) if s["start"] <= lo and s["end"] >= hi}
        inner = [i for i in active if not any(c in active for c in children[i])]
        for i in inner:
            exclusive[i] += (hi - lo) / len(inner)
    return exclusive


def layer_metrics(doc: dict) -> dict:
    """Per-layer metrics of one traced command from ``Recorder.to_dict()``."""
    spans = doc["spans"]
    exclusive = exclusive_times(spans)
    excl = defaultdict(float)
    incl = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(lambda: defaultdict(int))
    for s, x in zip(spans, exclusive):
        excl[s["name"]] += x
        incl[s["name"]] += s["end"] - s["start"]
        calls[s["name"]] += 1
        for key, value in s["counts"].items():
            counts[s["name"]][key] += value

    # Aggregated calls ran inside their parent span, single-threaded: move
    # their time from the parent's exclusive time to their own layer.
    profit_calls, profit_s = 0, 0.0
    for agg in doc["aggregates"]:
        profit_calls += agg["calls"]
        profit_s += agg["seconds"]
        if agg["parent"] is not None:
            excl[spans[agg["parent"]]["name"]] -= agg["seconds"]

    # Grid scan: from the start of maximize_profit to the start of its
    # Nelder-Mead refinement.
    grid_s = 0.0
    for i, s in enumerate(spans):
        if s["name"] == "optimize.maximize_profit":
            nm = [t["start"] for t in spans
                  if t["name"] == "optimize.nelder_mead" and t["parent"] == i]
            grid_s += (min(nm) if nm else s["end"]) - s["start"]

    runs = counts["kernel.simulate_runs"]["runs"]
    optimize_spans = ("optimize.maximize_profit", "optimize.nelder_mead",
                      "optimize.profit_surface")
    return {
        "stochastics.uniform_blocks_s": excl["stochastics.uniform_blocks"],
        "stochastics.uniform_blocks_calls": calls["stochastics.uniform_blocks"],
        "stochastics.blocks": counts["stochastics.uniform_blocks"]["blocks"],
        "kernel.simulate_runs_s": excl["kernel.simulate_runs"],
        "kernel.runs": runs,
        "kernel.bytes_computed": runs * KERNEL_BYTES_PER_RUN,
        "simulate.run_batch_s": incl["simulate.run_batch"],
        "simulate.self_s": excl["simulate.run_batch"],
        "simulate.write_trace_csv_s": excl["simulate.write_trace_csv"],
        "simulate.trace_rows": counts["simulate.write_trace_csv"]["rows"],
        "simulate.trace_bytes": counts["simulate.write_trace_csv"]["bytes"],
        "profit.closed_form_calls": profit_calls,
        "profit.closed_form_s": profit_s,
        "profit.closed_form_us": 1e6 * profit_s / profit_calls if profit_calls else 0.0,
        "optimize.maximize_profit_s": incl["optimize.maximize_profit"],
        "optimize.grid_s": grid_s,
        "optimize.nelder_mead_s": incl["optimize.nelder_mead"],
        "optimize.nm_iterations": counts["optimize.nelder_mead"]["iterations"],
        "optimize.nm_evals": counts["optimize.nelder_mead"]["evals"],
        "optimize.profit_surface_s": incl["optimize.profit_surface"],
        "optimize.self_s": sum(excl[n] for n in optimize_spans),
        "contour.zero_contours_s": excl["contour.zero_contours"],
        "contour.polylines": counts["contour.zero_contours"]["polylines"],
        "contour.points": counts["contour.zero_contours"]["points"],
        "cli.main_s": incl["cli.main"],
        "cli.write_s": excl["cli.write"],
        "cli.rows_written": counts["cli.write"]["rows"],
        "cli.bytes_written": counts["cli.write"]["bytes"],
        "cli.self_s": excl["cli.main"],
        "trace.absent_targets": len(doc["absent"]),
    }


# Self times of every layer; together they account for ``cli.main_s``.
SELF_TIME_METRICS = ("cli.self_s", "cli.write_s", "simulate.self_s",
                     "simulate.write_trace_csv_s", "stochastics.uniform_blocks_s",
                     "kernel.simulate_runs_s", "profit.closed_form_s",
                     "optimize.self_s", "contour.zero_contours_s")
