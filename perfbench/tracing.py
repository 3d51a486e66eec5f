"""Span tracing installed from outside the program.

Tracer.install replaces attributes of the program's modules with timing
wrappers, and Tracer.uninstall puts the originals back, so an untraced run
executes the program untouched. Each call of a wrapped layer function
becomes a span (name, start, end, parent, item id) kept in memory. Calls
made once per gate or once per grid point are too many to keep as spans:
their time and count are summed per name and charged to the enclosing span
as child time, so self times still add up.

A span's layer is the part of its name before the first dot.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

perf = time.perf_counter


class Span:
    __slots__ = ("name", "item", "parent", "start", "end", "inner")

    def __init__(self, name: str, item, parent: int) -> None:
        self.name = name
        self.item = item
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.inner = 0.0  # time of aggregated calls made inside this span


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.item = None
        self.agg_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.sizes: dict[str, int] = defaultdict(int)
        self.overflows = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def span(self, name: str, fn, size=None):
        """Wrap fn so that every call records one span. With size, the
        sizes of the results are summed in self.sizes[name]."""
        spans, stack, calls, sizes = self.spans, self.stack, self.calls, self.sizes

        def wrapper(*args, **kwargs):
            span = Span(name, self.item, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            calls[name] += 1
            span.start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf()
                stack.pop()
            if size is not None:
                sizes[name] += size(result)
            return result

        return wrapper

    def _gate_apply(self, fn):
        spans, stack, agg_s, calls = self.spans, self.stack, self.agg_s, self.calls
        names: dict[str, str] = {}

        def apply(state, gate):
            start = perf()
            result = fn(state, gate)
            spent = perf() - start
            name = names.get(gate.name)
            if name is None:
                name = names[gate.name] = "sim.apply." + gate.name
            agg_s[name] += spent
            calls[name] += 1
            spans[stack[-1]].inner += spent
            return result

        return apply

    def _aggregate(self, name: str, fn, overflow=()):
        """Wrap fn so that its calls are summed under name, not kept as spans.
        Calls that raise overflow are counted in self.overflows."""
        spans, stack, agg_s, calls = self.spans, self.stack, self.agg_s, self.calls

        def wrapper(*args, **kwargs):
            start = perf()
            try:
                return fn(*args, **kwargs)
            except overflow:
                self.overflows += 1
                raise
            finally:
                spent = perf() - start
                agg_s[name] += spent
                calls[name] += 1
                spans[stack[-1]].inner += spent

        return wrapper

    def install(self, P) -> None:
        """Wrap each layer boundary of the program P at the attribute its
        caller looks up: the benchmark calls builders, sim, circuit, costs
        and cli through their modules; builders calls the table builders;
        sim.run calls apply and measure_x; cli calls grid_search, which
        calls cost, estimate and pareto_frontier."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        b, est = P.builders, P.estimator
        plan = [
            (b, "build_mul_table", "numerics.table"),
            (b, "build_pruned_table", "numerics.table"),
            (b, "build_direct_exp_table", "numerics.table"),
            (b, "build_windowed_modexp", "builders.build"),
            (b, "modexp_input_state", "builders.input"),
            (b, "check_modexp_output", "builders.check"),
            (P.circuit.CircuitBuilder, "build", "circuit.validate"),
            (P.circuit, "tally", "circuit.tally"),
            (P.sim, "run", "sim.run"),
            (P.costs, "exact_cost", "costs.exact"),
            (est, "cost", "costs.cost"),
            (est, "pareto_frontier", "estimator.frontier"),
            (P.cli, "grid_search", "estimator.grid"),
            (P.cli, "main", "cli.main"),
        ]
        for owner, attr, name in plan:
            size = len if name == "numerics.table" else None
            self._replace(owner, attr, self.span(name, getattr(owner, attr), size))
        self._replace(P.sim, "apply", self._gate_apply(P.sim.apply))
        self._replace(P.sim, "measure_x", self._aggregate("sim.measure", P.sim.measure_x))
        self._replace(
            est, "estimate", self._aggregate("estimator.estimate", est.estimate, est.BudgetOverflow)
        )

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """(self, total) seconds per span name. Self time is the span's
        duration minus the part of it covered by child spans and by the
        aggregated calls made inside it."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        own: dict[str, float] = defaultdict(float)
        total: dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            duration = span.end - span.start
            total[span.name] += duration
            own[span.name] += duration - child[index] - span.inner
        return own, total

    def layer_self_times(self) -> dict[str, float]:
        """Self seconds per layer: span self times plus aggregated calls."""
        own, _ = self.self_times()
        layers: dict[str, float] = defaultdict(float)
        for name, seconds in list(own.items()) + list(self.agg_s.items()):
            layers[name.split(".", 1)[0]] += seconds
        return layers

    def write(self, path) -> None:
        """One JSON list per span: name, start, end, parent, item, inner."""
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps([s.name, s.start, s.end, s.parent, s.item, s.inner]))
                handle.write("\n")
