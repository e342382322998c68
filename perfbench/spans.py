"""Span tracing of fuselab's public functions, installed from outside the package.

Every public function of a fuselab layer module is wrapped under each name
it is bound to -- `fuselab.tensor.sigmoid`, `fuselab.model.sigmoid`,
`fuselab.sigmoid` -- because callers reach a function through the globals
of their own module.  All bindings of one function report under one span
name, `<layer>.<function>` (`tensor.sigmoid`); the public methods of
`DecoderModel` report as `model.<method>`.  Discovery walks the modules,
so a function a later change deletes or renames only makes its metrics
read 0.

Spans stay in memory as (name, start_ns, end_ns, parent, op, work, failed)
and are summarised and written out once, after the run.  `op` is the
index of the timed operation (one workload cycle) the span belongs to,
-1 during set-up.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
import types

TAIL_BEYOND = 10
LAYERS = ("tensor", "fusion", "prompt", "data", "model", "train", "experiment", "flops")


def _dir_bytes(path) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


# Work counted by a span, from the call's arguments and result.
WORK = {
    "tensor.sigmoid": lambda args, out: int(args[0].size),
    "fusion.adaptive_mask": lambda args, out: int(args[0].shape[0]),
    "data.encode_batch": lambda args, out: len(args[1]),
    "model.save_checkpoint": lambda args, out: _dir_bytes(out),
}


def _work(count, args, out) -> int:
    """Work done by one call; 0 when uncounted or the call's signature changed."""
    if count is None:
        return 0
    try:
        return count(args, out)
    except (AttributeError, IndexError, TypeError, OSError):
        return 0


class Tracer:
    """Collects spans while installed; `uninstall` restores every binding."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self) -> None:
        if self._patched:
            return
        wrappers: dict[int, object] = {}  # id(original) -> its wrapper, shared by all bindings
        modules = {layer: importlib.import_module(f"fuselab.{layer}") for layer in LAYERS}
        for owner in (importlib.import_module("fuselab"), *modules.values()):
            for attr, value in list(vars(owner).items()):
                layer = _layer_of(value)
                if attr.startswith("_") or layer is None:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(value, f"{layer}.{value.__name__}")
                self._patch(owner, attr, value, wrappers[id(value)])
        model_class = getattr(modules["model"], "DecoderModel", None)
        for attr, value in list(vars(model_class).items()) if model_class is not None else ():
            if not attr.startswith("_") and isinstance(value, types.FunctionType):
                self._patch(model_class, attr, value, self._wrap(value, f"model.{attr}"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, original))

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        work = WORK.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserve the slot so children get larger ids
            stack.append(index)
            failed, out = True, None
            start = clock()
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                end = clock()
                stack.pop()
                amount = 0 if failed else _work(work, args, out)
                spans[index] = (name, start, end, parent, self.op, amount, failed)

        return traced

    def write(self, path) -> None:
        """All spans as JSON lines: id, name, start/end ns, parent id, op, work, failed."""
        with open(path, "w") as fh:
            for index, (name, start, end, parent, op, amount, failed) in enumerate(self.spans):
                fh.write(f'{{"id": {index}, "name": "{name}", "start_ns": {start}, "end_ns": {end}, '
                         f'"parent": {parent}, "op": {op}, "work": {amount}, "failed": {str(failed).lower()}}}\n')

    def summary(self) -> dict:
        """Per span name: calls, failures, busy/self ns, work and call durations.

        busy counts only the outermost span of a name, so recursion is not
        counted twice; self is a span's duration minus its children's.
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for index, (name, start, end, parent, _, amount, failed) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "failed": 0, "busy_ns": 0, "self_ns": 0,
                                          "work": 0, "durations_ns": []})
            duration = end - start
            entry["calls"] += 1
            entry["failed"] += int(failed)
            entry["work"] += amount
            entry["self_ns"] += duration - child_ns[index]
            entry["durations_ns"].append(duration)
            if not self._has_ancestor(parent, name):
                entry["busy_ns"] += duration
        return out

    def _has_ancestor(self, parent: int, name: str) -> bool:
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


def _layer_of(value) -> str | None:
    """The layer that defines a public function, else None."""
    if not isinstance(value, types.FunctionType) or value.__name__.startswith("_"):
        return None
    package, _, layer = (value.__module__ or "").partition(".")
    return layer if package == "fuselab" and layer in LAYERS else None


def tail_percentile(durations_ns) -> tuple[float, float]:
    """(ms, percentile) at the highest percentile with at least TAIL_BEYOND samples beyond it.

    The percentile rests on all len(durations_ns) samples; below
    2 * TAIL_BEYOND samples it would fall under the median, and (0, 0) is
    returned.
    """
    values = sorted(durations_ns)
    n = len(values)
    if n < 2 * TAIL_BEYOND:
        return 0.0, 0.0
    return values[n - TAIL_BEYOND - 1] / 1e6, 100.0 * (n - TAIL_BEYOND) / n


def span_metric(summary: dict, metric: str) -> float:
    """Value of `<layer>.<function>.<stat>` from a summary; 0 when never called."""
    span, stat = metric.rsplit(".", 1)
    entry = summary.get(span)
    if entry is None or entry["calls"] == 0:
        return 0
    work, busy_ns, durations = entry["work"], entry["busy_ns"], entry["durations_ns"]
    stats = {
        "calls": lambda: entry["calls"],
        "failed": lambda: entry["failed"],
        "ok_ratio": lambda: (entry["calls"] - entry["failed"]) / entry["calls"],
        "busy_ms": lambda: busy_ns / 1e6,
        "self_ms": lambda: entry["self_ns"] / 1e6,
        "elements": lambda: work,
        "rows": lambda: work,
        "samples": lambda: work,
        "bytes": lambda: work,
        "computed_bytes": lambda: work * 8,  # float64 elements read, computed rather than measured
        "ns_per_element": lambda: busy_ns / work if work else 0,
        "ns_per_row": lambda: busy_ns / work if work else 0,
        "us_per_sample": lambda: busy_ns / 1e3 / work if work else 0,
        "ms_p50": lambda: statistics.median(durations) / 1e6,
        "ms_tail": lambda: tail_percentile(durations)[0],
        "ms_tail_pct": lambda: tail_percentile(durations)[1],
    }
    if stat not in stats:
        raise KeyError(f"unknown span statistic {stat!r} in {metric!r}")
    return stats[stat]()
