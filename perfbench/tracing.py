"""Spans and counters for the traced run, taken at the module bindings the CLI calls through.

The tracer rebinds public functions on the program's modules (for example
``cli.solve`` or ``construct.layer``) to wrappers that record one span per
call: request id, name, parent span, start and end in nanoseconds.  Spans stay
in memory and are written out when the run ends.  Nothing in the program is
edited; a binding that does not exist at the commit under test is skipped,
and the layer metrics it would feed read 0.

A span's self time is its duration minus that of its direct children, so the
self times of one request's spans add up to its root span, ``cli.main``.
"""

from __future__ import annotations

import gzip
import json
import math
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Callable

FIELDS = 5  # request id, name id, parent span index, start ns, end ns


class Tracer:
    """Spans and counters of one traced run, and the bindings it replaced."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans = array("q")
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.request = 0
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable,
             after: Callable[[tuple, object], None] | None = None) -> Callable:
        """Return fn recording a span per call; ``after(args, result)`` updates counters."""
        self.names.append(name)
        name_id = len(self.names) - 1
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans) // FIELDS
            spans.extend((self.request, name_id, stack[-1] if stack else -1, 0, 0))
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index * FIELDS + 3] = start
                spans[index * FIELDS + 4] = end
            if after is not None:
                after(args, result)
            return result

        return traced

    def replace(self, owner: object, attr: str, value: object) -> None:
        """Set ``owner.attr``, remembering the old value for :meth:`restore`."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch(self, owner: object, attr: str, name: str,
              after: Callable[[tuple, object], None] | None = None) -> None:
        """Make ``owner.attr`` a span named ``name``; skipped when the binding is absent."""
        original = getattr(owner, attr, None)
        if original is not None:
            self.replace(owner, attr, self.wrap(name, original, after))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def span_rows(self):
        spans = self.spans
        for i in range(0, len(spans), FIELDS):
            yield spans[i:i + FIELDS]

    def write(self, path: Path) -> None:
        """Spans as gzipped tab-separated rows: request, name, parent index, start_ns, end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=3) as out:
            out.write("request\tname\tparent\tstart_ns\tend_ns\n")
            names = self.names
            for rid, name_id, parent, start, end in self.span_rows():
                out.write(f"{rid}\t{names[name_id]}\t{parent}\t{start}\t{end}\n")


class _JsonProxy:
    """Stands in for the ``json`` module inside ``cli`` so that ``dumps`` is a span."""

    def __init__(self, dumps: Callable) -> None:
        self.dumps = dumps

    def __getattr__(self, attr: str):
        return getattr(json, attr)


def install(tracer: Tracer, modules: dict[str, object]) -> None:
    """Wrap the bindings each layer is reached through; ``modules`` maps short names to modules."""
    cli, construct, oracle = modules["cli"], modules["construct"], modules["oracle"]
    render, runs, kernels = modules["render"], modules["runs"], modules.get("kernels")
    counts = tracer.counts

    def plain_layer(args, result) -> None:
        counts["construct.layer.plain_calls"] += result[0].m == 0

    def verified_elements(args, result) -> None:
        counts["oracle.verify.elements"] += sum(len(b) for b in args[2].blocks.values())

    def census_sizes(args, result) -> None:
        counts["oracle.enumerate_all.partitions_counted"] += result[0]
        counts["oracle.enumerate_all.partitions_listed"] += len(result[1] or ())

    def trial_steps(args, result) -> None:
        # computed from the argument (the trial-division bound), not counted in the kernel
        counts["kernels.odd_divisors.trial_steps"] += math.isqrt(args[0])

    def cells(args, result) -> None:
        counts["render.cells"] += result.count("[")

    tracer.patch(cli, "solve", "construct.solve")
    tracer.patch(cli, "enumerate_runs", "runs.enumerate_runs")
    tracer.patch(construct, "layer", "construct.layer", plain_layer)
    tracer.patch(construct, "peel", "construct.peel")
    tracer.patch(construct, "difference_pairs", "construct.difference_pairs")
    tracer.patch(oracle, "verify", "oracle.verify", verified_elements)
    tracer.patch(oracle, "enumerate_all", "oracle.enumerate_all", census_sizes)
    if kernels is not None:
        tracer.patch(kernels, "enumerate_partitions", "kernels.enumerate_partitions")
        tracer.patch(kernels, "odd_divisors", "kernels.odd_divisors", trial_steps)
    tracer.patch(render, "render_staircase", "render.staircase", cells)
    tracer.patch(render, "render_rebuilt", "render.rebuilt", cells)
    if getattr(cli, "json", None) is json:
        tracer.replace(cli, "json", _JsonProxy(tracer.wrap("cli.serialize", json.dumps)))

    instance = getattr(runs, "Instance", None)
    if instance is not None:
        check = instance.__post_init__

        def counted_check(self) -> None:
            counts["construct.instance_checks"] += 1
            check(self)

        tracer.replace(instance, "__post_init__", counted_check)


# metric -> (span names, "total" | "self" | "calls"); units: ms for times, count for calls
SPAN_METRICS = {
    "cli.self_ms": (("cli.main",), "self"),
    "cli.serialize_ms": (("cli.serialize",), "total"),
    "runs.enumerate_runs.ms": (("runs.enumerate_runs",), "total"),
    "kernels.odd_divisors.ms": (("kernels.odd_divisors",), "total"),
    "kernels.odd_divisors.calls": (("kernels.odd_divisors",), "calls"),
    "construct.solve.ms": (("construct.solve",), "total"),
    "construct.solve.self_ms": (("construct.solve",), "self"),
    "construct.layer.calls": (("construct.layer",), "calls"),
    "construct.layer.ms": (("construct.layer",), "total"),
    "construct.peel.calls": (("construct.peel",), "calls"),
    "construct.peel.ms": (("construct.peel",), "total"),
    "construct.difference_pairs.calls": (("construct.difference_pairs",), "calls"),
    "oracle.verify.ms": (("oracle.verify",), "total"),
    "oracle.enumerate_all.ms": (("oracle.enumerate_all",), "total"),
    "oracle.enumerate_all.self_ms": (("oracle.enumerate_all",), "self"),
    "kernels.enumerate_partitions.ms": (("kernels.enumerate_partitions",), "total"),
    "render.ms": (("render.staircase", "render.rebuilt"), "total"),
}
COUNTER_METRICS = (
    "cli.output_bytes",
    "kernels.odd_divisors.trial_steps",
    "construct.layer.plain_calls",
    "construct.instance_checks",
    "oracle.verify.elements",
    "oracle.enumerate_all.partitions_counted",
    "oracle.enumerate_all.partitions_listed",
    "render.cells",
)


def layer_metrics(tracer: Tracer, requests: int) -> tuple[dict[str, float], int]:
    """Per-request means of every span and counter metric.

    Also returns the largest difference, in ns, between a request's root span
    and the sum of the self times of all its spans (0 when spans nest).
    """
    rows = list(tracer.span_rows())
    child_ns = [0] * len(rows)
    for rid, name_id, parent, start, end in rows:
        if parent >= 0:
            child_ns[parent] += end - start
    total: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    calls: Counter[str] = Counter()
    request_self: dict[int, int] = defaultdict(int)
    request_root: dict[int, int] = {}
    for index, (rid, name_id, parent, start, end) in enumerate(rows):
        name = tracer.names[name_id]
        own = end - start - child_ns[index]
        total[name] += end - start
        self_ns[name] += own
        calls[name] += 1
        request_self[rid] += own
        if parent < 0:
            request_root[rid] = request_root.get(rid, 0) + end - start
    residual = max((abs(request_self[rid] - request_root.get(rid, 0)) for rid in request_self),
                   default=0)

    per_request = max(requests, 1)
    metrics: dict[str, float] = {}
    for metric, (names, kind) in SPAN_METRICS.items():
        if kind == "calls":
            metrics[metric] = sum(calls[n] for n in names) / per_request
        else:
            source = total if kind == "total" else self_ns
            metrics[metric] = sum(source[n] for n in names) / 1e6 / per_request
    for metric in COUNTER_METRICS:
        metrics[metric] = tracer.counts[metric] / per_request
    return metrics, residual
