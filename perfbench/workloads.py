"""The benchmark's workloads: op plans, op runners, checks, digests.

Each workload is a closed loop with one client: a single process runs
its ops one after another, and each op builds its inputs and runs them,
which is what a user pays per run.  Ops are grouped in *rounds* (a fixed
list of op kinds), and a run measures whole rounds, so every run holds
the same mix of kinds.

The seed picks job streams, dimension orders, twists and message
bytes.  It never picks presets or node counts, so every seed runs the
same kinds of op at the same sizes; only the fleet job streams make the
work of one op differ from another's.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Iterator

#: Per-link ICI bandwidth of every network op (bytes/s).
LINK_BANDWIDTH = 50e9

#: Relative tolerance of the ECMP reference check.  Symmetric shapes
#: and future ECMP-by-symmetry code differ from full Brandes at ~1e-14,
#: so the check uses a tolerance, never bytes.
ECMP_RTOL = 1e-9

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Op:
    """One operation: its kind and the inputs the seed chose for it."""

    kind: str
    seed: int = 0
    shape: tuple[int, int, int] = (0, 0, 0)
    twisted: bool = False
    dim: int = 0
    num_bytes: float = 0.0

    def label(self) -> str:
        if self.kind in FLEET_POLICIES:
            return f"{self.kind}/seed={self.seed}"
        shape = "x".join(map(str, self.shape))
        variant = "twisted" if self.twisted else "torus"
        if self.kind == "ecmp":
            return f"ecmp/{variant}/{shape}"
        if self.kind == "ring":
            return f"ring/{shape}/dim={self.dim}/bytes={self.num_bytes:.0f}"
        return f"alltoall/{shape}/bytes={self.num_bytes:.0f}"


@dataclass
class Outcome:
    """What one run of an op produced, after checking."""

    op: Op
    seconds: float
    digest: str
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def digest_of(statistics: dict[str, Any]) -> str:
    """sha256 of an op's simulated statistics (floats at full repr)."""
    text = json.dumps(statistics, sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


# -- fleet ops -------------------------------------------------------------------

#: Preset -> placement policy.  Presets keep their own strategy:
#: hyperscale/serve_surge/large score best_fit, small scans first_fit.
FLEET_POLICIES = {"hyperscale": "OCS", "serve_surge": "OCS",
                  "large": "STATIC", "small": "STATIC"}

IDENTITY_TOL = 1e-9
UTILIZATION_PARTS = ("goodput", "replay_fraction", "restore_fraction",
                     "checkpoint_fraction", "reconfig_fraction")


def group(op: Op) -> str:
    """The op group traced layers are attributed to: a fleet op's
    placement policy ("ocs", "static") or "network"."""
    return FLEET_POLICIES[op.kind].lower() if op.kind in FLEET_POLICIES \
        else "network"


def run_fleet(api, op: Op):
    """Build the simulator for `op` (drain windows included) and run it."""
    config = api.preset_config(op.kind)
    windows = api.schedule_for(config.deploy_schedule, config).windows \
        if config.deploy_schedule else ()
    simulator = api.FleetSimulator(config, seed=op.seed, windows=windows)
    policy = getattr(api.PlacementPolicy, FLEET_POLICIES[op.kind])
    return simulator, simulator.run(policy)


def fleet_statistics(result) -> dict[str, Any]:
    simulator, report = result
    return {"summary": report.summary,
            "events_fired": report.events_fired,
            "downtime_fraction": report.downtime_fraction,
            "drain_fraction": report.drain_fraction,
            "jobs": len(simulator.jobs),
            "serve": report.serve.summary if report.serve else None}


def check_fleet(result) -> list[str]:
    simulator, report = result
    errors = []
    summary = report.summary
    values = dict(summary)
    if report.serve is not None:
        values.update({f"serve.{k}": v
                       for k, v in report.serve.summary.items()})
    bad = sorted(k for k, v in values.items() if not math.isfinite(v))
    if bad:
        errors.append(f"non-finite summary values: {bad}")
    parts = sum(summary[key] for key in UTILIZATION_PARTS)
    gap = abs(summary["utilization"] - parts)
    if not gap <= IDENTITY_TOL:
        errors.append(f"utilization identity off by {gap:.3e}")
    # Serve replicas are jobs too: every scale-up submits one.
    expected = len(simulator.jobs) + (
        int(report.serve.summary["scale_ups"]) if report.serve else 0)
    if summary["jobs_submitted"] != expected:
        errors.append(f"jobs_submitted {summary['jobs_submitted']:.0f} "
                      f"!= {expected} generated")
    if report.serve is not None:
        residual = serve_residual(report)
        if not residual <= IDENTITY_TOL:
            errors.append(f"serve reconciliation residual {residual:.3e}")
    return errors


def serve_residual(report) -> float:
    """Busy ledger re-summed from job records vs reported utilization."""
    config = report.config
    capacity = config.total_blocks * config.horizon_seconds
    busy = sum(r.busy_seconds * r.blocks for r in report.job_records)
    return abs(busy / capacity - report.summary["utilization"])


# -- network ops -----------------------------------------------------------------

#: The ECMP kinds a network run cycles through, in round order, with
#: the base shape whose dimension orders the seed shuffles: regular and
#: twisted 128/256-node tori, then two more regular ones, so a run of
#: up to 18 rounds never repeats a (variant, shape) pair.
ECMP_KINDS = ((False, (4, 4, 8)), (True, (4, 4, 8)),
              (False, (4, 8, 8)), (True, (4, 8, 8)),
              (False, (2, 8, 8)), (False, (4, 4, 16)))
#: Ring all-reduce tori (32 nodes, 384 flows): the seed picks the
#: dimension order and which 4-long dimension the rings run along.
RING_BASE = (4, 4, 2)
#: Largest ring all-reduce buffer (MiB).  The range was cut to stay
#: clear of a known FlowSim defect: a flow finishes only once under
#: 1e-9 bytes remain, and from 64 MiB up on a 4-ring the float residue
#: stays above that while the time to drain it is below the clock's
#: resolution, so the run repeats zero-length events and never ends
#: (pinned by test_perfbench.test_flowsim_stalls_on_large_chunks).
#: Lift the cap in the change that fixes ``repro/network/flowsim.py``.
RING_MAX_MIB = 16
#: All-to-all tori (12 nodes, 132 flows), in every dimension order.
ALLTOALL_BASE = (4, 3, 1)
#: A round: one ECMP analysis, four all-to-alls, one ring all-reduce.
#: By op time the round sorts 128-node ECMP (half the rounds) |
#: all-to-alls | ring, 256-node ECMP, so the median falls well inside
#: the all-to-alls' times rather than near an edge, and the tail
#: inside the rings'.
NETWORK_ROUND = ("ecmp", "alltoall", "alltoall", "ring", "alltoall",
                 "alltoall")


def permutations(shape: tuple[int, int, int]) -> list[tuple[int, int, int]]:
    """Distinct dimension orders of `shape`, sorted."""
    return sorted(set(itertools.permutations(shape)))


def topology_key(twisted: bool, shape: tuple[int, int, int]) -> str:
    return ("twisted " if twisted else "torus ") + "x".join(map(str, shape))


def build_topology(api, op: Op):
    return api.TwistedTorus3D(op.shape) if op.twisted \
        else api.Torus3D(op.shape)


def run_ecmp(api, op: Op):
    return api.alltoall_analysis(build_topology(api, op), LINK_BANDWIDTH)


def run_ring(api, op: Op):
    return api.simulate_ring_allreduce(build_topology(api, op), op.num_bytes,
                                       LINK_BANDWIDTH, dim=op.dim)


def run_alltoall(api, op: Op):
    return api.simulate_alltoall(build_topology(api, op), op.num_bytes,
                                 LINK_BANDWIDTH)


def network_statistics(result) -> dict[str, Any]:
    if hasattr(result, "per_node_throughput"):
        return {"per_node_throughput": result.per_node_throughput,
                "bisection_bound": result.bisection_bound,
                "capacity_bound": result.capacity_bound,
                "injection_peak": result.injection_peak}
    return {"name": result.name, "seconds": result.seconds,
            "flows": result.flows, "num_nodes": result.num_nodes}


def check_ecmp(op: Op, result, reference) -> list[str]:
    want = reference["ecmp_per_node_throughput"][
        topology_key(op.twisted, op.shape)]
    got = result.per_node_throughput
    if not (math.isfinite(got) and abs(got - want) <= ECMP_RTOL * want):
        return [f"ECMP per-node throughput {got!r} != reference {want!r}"]
    return []


def check_ring(api, op: Op, result) -> list[str]:
    n = op.shape[op.dim]
    expected = api.ring_allreduce_time(n, op.num_bytes, LINK_BANDWIDTH)
    rings = math.prod(op.shape) // n
    want_flows = 2 * (n - 1) * rings * 2 * n
    errors = []
    if not abs(result.seconds - expected) <= 0.01 * expected:
        errors.append(f"ring took {result.seconds!r} s, closed form "
                      f"{expected!r} s")
    if result.flows != want_flows:
        errors.append(f"ring ran {result.flows} flows, want {want_flows}")
    return errors


def check_alltoall(op: Op, result, reference) -> list[str]:
    n = math.prod(op.shape)
    worst = reference["ecmp_max_edge_load"][topology_key(False, op.shape)]
    bound = worst * op.num_bytes / LINK_BANDWIDTH
    errors = []
    if result.flows != n * (n - 1):
        errors.append(f"all-to-all ran {result.flows} flows, "
                      f"want {n * (n - 1)}")
    if not result.seconds >= bound * (1 - ECMP_RTOL):
        errors.append(f"all-to-all took {result.seconds!r} s, faster than "
                      f"the ECMP bound {bound!r} s")
    return errors


# -- workloads -------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """A named op rotation: what it imports, plans, runs and checks."""

    name: str
    modules: tuple[tuple[str, tuple[str, ...]], ...]
    #: Op time of one round on the 2-vCPU x86_64 host the benchmark was
    #: defined on; it turns ``--seconds`` into a fixed round count.
    round_seconds: float
    plan: Callable[[random.Random], Iterator[list[Op]]]
    #: One untimed op run first, so shape-keyed caches and lazy imports
    #: are warm; its inputs are never among the timed ones.
    warmup_op: Op

    def load(self) -> SimpleNamespace:
        """Import the program surface this workload calls."""
        api = SimpleNamespace()
        for module, names in self.modules:
            loaded = importlib.import_module(module)
            for name in names:
                setattr(api, name, getattr(loaded, name))
        return api

    def prepare(self, seed: int) -> "Prepared":
        """The one-time preparation before the first timed op."""
        reference = json.loads(REFERENCE_PATH.read_text()) \
            if self.name == "network" else None
        return Prepared(reference,
                        self.plan(random.Random(f"{self.name}:{seed}")))


@dataclass
class Prepared:
    reference: Any
    rounds: Iterator[list[Op]]

    def execute(self, api, op: Op):
        """The timed part of an op: build its inputs and run them."""
        if op.kind in FLEET_POLICIES:
            return run_fleet(api, op)
        return {"ecmp": run_ecmp, "ring": run_ring,
                "alltoall": run_alltoall}[op.kind](api, op)

    def judge(self, api, op: Op, result, seconds: float) -> Outcome:
        """Check an op's output and digest its simulated statistics."""
        if op.kind in FLEET_POLICIES:
            return Outcome(op, seconds, digest_of(fleet_statistics(result)),
                           check_fleet(result))
        if op.kind == "ecmp":
            errors = check_ecmp(op, result, self.reference)
        elif op.kind == "ring":
            errors = check_ring(api, op, result)
        else:
            errors = check_alltoall(op, result, self.reference)
        return Outcome(op, seconds, digest_of(network_statistics(result)),
                       errors)


def _fleet_plan(presets: tuple[str, ...]):
    """Rounds of one run per listed preset, each on a fresh job stream."""
    def plan(rng: random.Random) -> Iterator[list[Op]]:
        seen = {0}  # the warm-up's seed
        while True:
            ops = []
            for preset in presets:
                seed = 0
                while seed in seen:
                    seed = rng.randrange(1, 2 ** 31)
                seen.add(seed)
                ops.append(Op(preset, seed=seed))
            yield ops
    return plan


def _network_plan(rng: random.Random) -> Iterator[list[Op]]:
    """Rounds of NETWORK_ROUND.

    The ECMP slot cycles through ECMP_KINDS in a fixed order, and the
    seed shuffles each kind's dimension orders, so no (variant, shape)
    repeats within a run: a timed ECMP never meets a warm topology.
    The plan ends when the orders run out.
    """
    orders = []
    for twisted, base in ECMP_KINDS:
        shapes = permutations(base)
        rng.shuffle(shapes)
        orders.append([(twisted, shape) for shape in shapes])
    ring_shapes = permutations(RING_BASE)
    alltoall_shapes = permutations(ALLTOALL_BASE)
    for round_index in range(sum(len(o) for o in orders)):
        twisted, shape = orders[round_index % len(orders)][
            round_index // len(orders)]
        ops = []
        for kind in NETWORK_ROUND:
            if kind == "ecmp":
                ops.append(Op("ecmp", shape=shape, twisted=twisted))
            elif kind == "ring":
                ring = rng.choice(ring_shapes)
                ops.append(Op(
                    "ring", shape=ring,
                    dim=rng.choice([d for d in range(3) if ring[d] == 4]),
                    num_bytes=float(rng.randrange(1, RING_MAX_MIB + 1)
                                    * 2 ** 20)))
            else:
                ops.append(Op("alltoall", shape=rng.choice(alltoall_shapes),
                              num_bytes=float(rng.randrange(1, 33) * 2 ** 16)))
        yield ops


_FLEET_MODULES = (
    ("repro.fleet", ("FleetSimulator", "preset_config", "schedule_for")),
    ("repro.core.scheduler", ("PlacementPolicy",)),
)
_NETWORK_MODULES = (
    ("repro.network.analytic", ("alltoall_analysis",)),
    ("repro.network.collectives", ("ring_allreduce_time",)),
    ("repro.network.simcollectives", ("simulate_ring_allreduce",
                                      "simulate_alltoall")),
    ("repro.topology.torus", ("Torus3D",)),
    ("repro.topology.twisted", ("TwistedTorus3D",)),
)

#: Why each workload exists is recorded beside its name in BENCHMARK.json.
WORKLOADS = {
    # OCS ops alternate hyperscale and serve_surge; static ops run two
    # large per small.  By op time the round sorts hyperscale, small |
    # serve_surge | large, large, so the median falls in the middle of
    # serve_surge's times rather than in a gap or on the wide edge of
    # small's, and the tail falls inside large's.
    "fleet": Workload(
        "fleet", _FLEET_MODULES, 2.6,
        _fleet_plan(("hyperscale", "serve_surge", "large", "large",
                     "small")),
        Op("hyperscale")),
    # The warm-up's message size lies outside the timed range.
    "network": Workload(
        "network", _NETWORK_MODULES, 1.75, _network_plan,
        Op("alltoall", shape=ALLTOALL_BASE, num_bytes=2.0 ** 22)),
}
