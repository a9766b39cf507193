"""Layer attribution by wrapping the program's public entry points.

The benchmark's own files record spans around calls into each layer;
nothing inside the program changes.  A span carries a name, start, end,
parent span and op id; a layer's self time is its span durations minus
its direct child spans.  Counters are taken at the same boundaries from
each call's arguments and result.

Wrappers only observe: they pass arguments and results through
untouched, and :meth:`Tracer.installed` restores every original
attribute when the traced block ends, even on error.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

Observe = Optional[Callable[[Counter, tuple, Any], None]]

#: Span clock: process CPU time, the clock of the end-to-end op times.
CLOCK = time.process_time


def _hits(name: str) -> Observe:
    """Count the calls that returned a placement (not None)."""
    def observe(counts: Counter, args: tuple, result: Any) -> None:
        counts[name] += result is not None
    return observe


def _sources(counts: Counter, args: tuple, result: Any) -> None:
    topology = args[0]
    sources = args[1] if len(args) > 1 else None
    counts["topology.routing.ecmp_edge_loads.source_nodes"] += \
        topology.num_nodes if sources is None else len(sources)


@dataclass(frozen=True)
class Entry:
    """One wrapped public entry: where it lives and what to count."""

    span: str
    module: str
    owner: str | None   # class name, or None for a module attribute
    attr: str
    observe: Observe = None

    def target(self):
        module = importlib.import_module(self.module)
        return getattr(module, self.owner) if self.owner else module


#: Every entry the traced run wraps.  Module-level functions are
#: wrapped at the name their caller looks up (e.g. `plan_multi_region`
#: as bound in `repro.fleet.scheduler`), methods on their class.
ENTRIES = (
    Entry("sim.events.step", "repro.sim.events", "Simulator", "step"),
    Entry("fleet.scheduler.submit", "repro.fleet.scheduler",
          "FleetScheduler", "submit"),
    Entry("fleet.scheduler.dispatch", "repro.fleet.scheduler",
          "FleetScheduler", "dispatch"),
    Entry("core.scheduler.place_one", "repro.core.scheduler",
          "SliceScheduler", "place_one",
          _hits("core.scheduler.place_one.hits")),
    Entry("core.scheduler.plan_multi_region", "repro.fleet.scheduler", None,
          "plan_multi_region",
          _hits("core.scheduler.plan_multi_region.hits")),
    Entry("fleet.machine.plan", "repro.fleet.machine", "MachineFabric",
          "plan"),
    Entry("fleet.machine.apply", "repro.fleet.machine", "MachineFabric",
          "apply",
          lambda c, a, r: c.update({"fleet.machine.circuits": r})),
    Entry("fleet.machine.release", "repro.fleet.machine", "MachineFabric",
          "release"),
    Entry("fleet.serve.on_tick", "repro.fleet.serve.tier", "ServingTier",
          "on_tick"),
    Entry("fleet.workload.generate_jobs", "repro.fleet.simulator", None,
          "generate_jobs",
          lambda c, a, r: c.update({"fleet.workload.jobs": len(r)})),
    Entry("fleet.failures.build_failure_trace", "repro.fleet.simulator",
          None, "build_failure_trace",
          lambda c, a, r: c.update({"fleet.failures.outages": len(r)})),
    Entry("fleet.telemetry.summary", "repro.fleet.telemetry",
          "FleetTelemetry", "summary"),
    Entry("topology.routing.ecmp_edge_loads", "repro.network.analytic", None,
          "ecmp_edge_loads", _sources),
    Entry("network.fairshare.max_min_fair_rates", "repro.network.flowsim",
          None, "max_min_fair_rates",
          lambda c, a, r: c.update({"network.fairshare.flows": len(a[0])})),
    Entry("network.flowsim.run", "repro.network.flowsim", "FlowSim", "run",
          lambda c, a, r: c.update({"network.flowsim.flows":
                                    len(a[0].flows)})),
)

OP_SPAN = "op"

#: Layer -> (span names, op groups it works in, op groups it idles in).
#: The groups are the placement policy of a fleet op ("ocs", "static")
#: and "network".  A layer missing from both sets of a group carries no
#: prediction there (place_one under OCS runs only for preemption
#: probes).
PREDICTIONS = {
    "sim.events": (("sim.events.step",), {"ocs", "static", "network"},
                   set()),
    "fleet.scheduler": (("fleet.scheduler.dispatch",
                         "fleet.scheduler.submit"),
                        {"ocs", "static"}, {"network"}),
    "core.scheduler.place_one": (("core.scheduler.place_one",),
                                 {"static"}, {"network"}),
    "core.scheduler.plan_multi_region": (
        ("core.scheduler.plan_multi_region",), {"ocs"},
        {"static", "network"}),
    "fleet.machine": (("fleet.machine.plan", "fleet.machine.apply",
                       "fleet.machine.release"),
                      {"ocs"}, {"static", "network"}),
    "fleet.serve": (("fleet.serve.on_tick",), {"ocs"},
                    {"static", "network"}),
    "fleet.workload": (("fleet.workload.generate_jobs",
                        "fleet.failures.build_failure_trace"),
                       {"ocs", "static"}, {"network"}),
    "fleet.telemetry": (("fleet.telemetry.summary",), {"ocs", "static"},
                        {"network"}),
    "topology.routing": (("topology.routing.ecmp_edge_loads",),
                         {"network"}, {"ocs", "static"}),
    "network.fairshare": (("network.fairshare.max_min_fair_rates",),
                          {"network"}, {"ocs", "static"}),
    "network.flowsim": (("network.flowsim.run",), {"network"},
                        {"ocs", "static"}),
}

#: Share of static op time place_one is predicted to hold.
PLACE_ONE_STATIC_SHARE = 0.5


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self) -> None:
        #: Open and closed spans: [name, start, end, parent, op].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op: int | None = None

    # -- spans -----------------------------------------------------------------

    def _call(self, name: str, function, args, kwargs, observe: Observe):
        record = [name, 0.0, 0.0,
                  self._stack[-1] if self._stack else None, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = CLOCK()
        try:
            result = function(*args, **kwargs)
        finally:
            record[2] = CLOCK()
            self._stack.pop()
        if observe is not None:
            observe(self.counts, args, result)
        return result

    @contextmanager
    def op(self, op_id: int) -> Iterator[None]:
        """One op's root span; layer spans inside it carry its id."""
        self._op = op_id
        record = [OP_SPAN, 0.0, 0.0, None, op_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = CLOCK()
        try:
            yield
        finally:
            record[2] = CLOCK()
            self._stack.pop()
            self._op = None

    # -- wrappers --------------------------------------------------------------

    def _wrapper(self, entry: Entry, original):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self._call(entry.span, original, args, kwargs,
                              entry.observe)
        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every entry for the block; restore them all after it."""
        saved = []
        try:
            for entry in ENTRIES:
                target = entry.target()
                original = vars(target)[entry.attr]
                saved.append((target, entry.attr, original))
                setattr(target, entry.attr, self._wrapper(entry, original))
            yield self
        finally:
            for target, attr, original in reversed(saved):
                setattr(target, attr, original)

    # -- aggregation -----------------------------------------------------------

    def aggregate(self) -> "LayerTotals":
        """Calls, self and busy time per span name over all spans."""
        totals = LayerTotals()
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            duration = end - start
            totals.calls[name] += 1
            totals.self_s[name] += duration - child_time[index]
            if not self._inside_same(index):
                totals.busy_s[name] += duration
        totals.counts.update(self.counts)
        return totals

    def _inside_same(self, index: int) -> bool:
        """True when a span nests inside another span of its name."""
        name = self.spans[index][0]
        parent = self.spans[index][3]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def clear(self) -> None:
        self.spans.clear()
        self.counts.clear()


class LayerTotals:
    """Summed span statistics, mergeable across ops."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.busy_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    def merge(self, other: "LayerTotals") -> None:
        self.calls.update(other.calls)
        self.counts.update(other.counts)
        for name, value in other.self_s.items():
            self.self_s[name] += value
        for name, value in other.busy_s.items():
            self.busy_s[name] += value


def layer_metrics(totals: LayerTotals, ops: int) -> dict[str, tuple]:
    """Per-op layer metrics: name -> (value, unit)."""
    calls, self_s, busy, counts = (totals.calls, totals.self_s,
                                   totals.busy_s, totals.counts)

    def per_op(value: float) -> float:
        return value / ops

    def ratio(hits: float, attempts: float) -> float:
        return hits / attempts if attempts else 0.0

    place = "core.scheduler.place_one"
    plan = "core.scheduler.plan_multi_region"
    machine = ("fleet.machine.plan", "fleet.machine.apply",
               "fleet.machine.release")
    ecmp = "topology.routing.ecmp_edge_loads"
    fair = "network.fairshare.max_min_fair_rates"
    return {
        "sim.events.steps": (per_op(calls["sim.events.step"]), "count/op"),
        "sim.events.self_s": (per_op(self_s["sim.events.step"]), "s/op"),
        "fleet.scheduler.dispatch.calls":
            (per_op(calls["fleet.scheduler.dispatch"]), "count/op"),
        "fleet.scheduler.dispatch.self_s":
            (per_op(self_s["fleet.scheduler.dispatch"]), "s/op"),
        f"{place}.calls": (per_op(calls[place]), "count/op"),
        f"{place}.hits": (per_op(counts[f"{place}.hits"]), "count/op"),
        f"{place}.hit_ratio":
            (ratio(counts[f"{place}.hits"], calls[place]), "ratio"),
        f"{place}.busy_s": (per_op(busy[place]), "s/op"),
        f"{plan}.calls": (per_op(calls[plan]), "count/op"),
        f"{plan}.hit_ratio":
            (ratio(counts[f"{plan}.hits"], calls[plan]), "ratio"),
        f"{plan}.busy_s": (per_op(busy[plan]), "s/op"),
        "fleet.machine.plan.calls":
            (per_op(calls["fleet.machine.plan"]), "count/op"),
        "fleet.machine.apply.calls":
            (per_op(calls["fleet.machine.apply"]), "count/op"),
        "fleet.machine.release.calls":
            (per_op(calls["fleet.machine.release"]), "count/op"),
        "fleet.machine.busy_s":
            (per_op(sum(busy[name] for name in machine)), "s/op"),
        "fleet.machine.circuits":
            (per_op(counts["fleet.machine.circuits"]), "count/op"),
        "fleet.serve.on_tick.calls":
            (per_op(calls["fleet.serve.on_tick"]), "count/op"),
        "fleet.serve.on_tick.busy_s":
            (per_op(busy["fleet.serve.on_tick"]), "s/op"),
        "fleet.workload.generate_jobs.busy_s":
            (per_op(busy["fleet.workload.generate_jobs"]), "s/op"),
        "fleet.workload.jobs":
            (per_op(counts["fleet.workload.jobs"]), "count/op"),
        "fleet.failures.build_failure_trace.busy_s":
            (per_op(busy["fleet.failures.build_failure_trace"]), "s/op"),
        "fleet.failures.outages":
            (per_op(counts["fleet.failures.outages"]), "count/op"),
        "fleet.telemetry.summary.busy_s":
            (per_op(busy["fleet.telemetry.summary"]), "s/op"),
        f"{ecmp}.calls": (per_op(calls[ecmp]), "count/op"),
        f"{ecmp}.busy_s": (per_op(busy[ecmp]), "s/op"),
        f"{ecmp}.source_nodes":
            (per_op(counts[f"{ecmp}.source_nodes"]), "count/op"),
        "network.fairshare.solves": (per_op(calls[fair]), "count/op"),
        "network.fairshare.flows_per_solve":
            (ratio(counts["network.fairshare.flows"], calls[fair]),
             "count"),
        "network.fairshare.busy_s": (per_op(busy[fair]), "s/op"),
        "network.flowsim.run.self_s":
            (per_op(self_s["network.flowsim.run"]), "s/op"),
        "network.flowsim.flows":
            (per_op(counts["network.flowsim.flows"]), "count/op"),
    }


def check_predictions(groups: dict[str, LayerTotals]) -> list[str]:
    """Each works-in/idle-in prediction the traced ops contradict."""
    mismatches = []
    for group, totals in sorted(groups.items()):
        for layer, (spans, works, idles) in PREDICTIONS.items():
            calls = sum(totals.calls[name] for name in spans)
            if group in works and calls == 0:
                mismatches.append(f"{layer} predicted to work in {group} "
                                  f"ops but had no calls")
            if group in idles and calls:
                mismatches.append(f"{layer} predicted idle in {group} ops "
                                  f"but had {calls} calls")
    if "static" in groups:
        static = groups["static"]
        share = static.busy_s["core.scheduler.place_one"] / \
            static.busy_s[OP_SPAN]
        if share <= PLACE_ONE_STATIC_SHARE:
            mismatches.append(f"core.scheduler.place_one holds {share:.1%} "
                              f"of static op time, predicted most")
    return mismatches
