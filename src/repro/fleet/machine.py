"""Machine-wide OCS fabric: priced rewirings plus the trunk-port ledger.

The paper's flagship machine is not one pod: 64 racks are stitched into
arbitrary-size slices by a machine-level OCS layer (Sections 2-3), so a
slice can take blocks from several pods.  Every pod terminates
``trunk_ports`` block-level trunk fibers on a shared machine OCS bank.

A placement decomposes its virtual block-grid torus (the slot walk of
:func:`repro.ocs.reconfigure.grid_adjacency_indices`) into:

* intra-pod adjacencies — programmed on that pod's own switches;
* trunk adjacencies — adjacencies whose endpoints live in different
  pods.  Each consumes one trunk port on both endpoint pods and
  FACE_LINKS chip circuits on the machine-level switch bank.

Because the OCS can wire *any* healthy blocks into the same virtual
torus, everything a rewiring costs — circuits, trunk ports, critical-
path latency — is a pure function of the slice's block grid and of how
many blocks each pod contributes, never of which physical blocks host
it.  :func:`plan_price` therefore memoizes one :class:`PlanPrice` per
``(shape, per-pod counts)``, and :class:`MachineFabric` keeps only the
state a result reads: the trunk ports each cross-pod slice holds.

Trunk ports are a scarce, schedulable resource: the fleet scheduler must
not place a cross-pod slice whose trunk demand oversubscribes any pod,
and :meth:`MachineFabric.apply` enforces it.  Latency model: pod
switches and machine switches all program in parallel, each moving its
mirrors one circuit at a time, and every rewiring pays a fixed
drain/validate window; a plan that touches the trunk layer pays a
second window on top (light must be checked end to end across two pod
fabrics and the trunk bank before handover).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from repro.core.slicing import SliceShape, block_grid, canonical_shape
from repro.errors import OCSError
from repro.ocs.fabric import FACE_LINKS
from repro.ocs.reconfigure import grid_adjacency_indices
from repro.topology.builder import is_block_multiple


@dataclass(frozen=True)
class PlanPrice:
    """Everything one placement's rewiring costs.

    Every quantity is a pure function of the slice's block grid and its
    per-region block counts, independent of which physical blocks host
    it, which is what makes the memoization in :func:`plan_price`
    sound.  A region is one pod's share of the placement, in
    assignment order.
    """

    num_blocks: int            # n; 0 for sub-block (empty) plans
    trunk_count: int           # adjacencies crossing a region boundary
    ports_by_region: tuple[int, ...]   # trunk endpoints per region
    pod_moves: int             # busiest pod switch's mirror moves
    trunk_moves: int           # busiest machine switch's mirror moves

    @property
    def empty(self) -> bool:
        """True when nothing needs programming (sub-block slices)."""
        return self.num_blocks == 0

    @property
    def cross_pod(self) -> bool:
        """True when the plan rides the trunk layer."""
        return self.trunk_count > 0

    @property
    def num_adjacencies(self) -> int:
        """Block adjacencies across every layer (3 per block placed)."""
        return 3 * self.num_blocks

    @property
    def num_circuits(self) -> int:
        """Chip-level circuits the plan programs (16 per adjacency)."""
        return self.num_adjacencies * FACE_LINKS

    @property
    def num_trunk_circuits(self) -> int:
        """Chip circuits riding the machine-level trunk bank."""
        return self.trunk_count * FACE_LINKS

    @property
    def cross_fraction(self) -> float:
        """Share of the slice's links that traverse the trunk layer."""
        total = self.num_adjacencies
        return self.trunk_count / total if total else 0.0

    @property
    def total_trunk_ports(self) -> int:
        """Trunk ports the plan holds across all pods (2 per adjacency)."""
        return 2 * self.trunk_count

    def latency_seconds(self, base_seconds: float, switch_seconds: float,
                        trunk_base_seconds: float) -> float:
        """Critical-path seconds before the slice's links carry traffic.

        Pod fabrics program in parallel, so the per-pod term is the
        busiest pod switch's moves; touching the trunk layer adds its
        own validate window plus the busiest machine switch's moves.
        """
        if self.empty:
            return 0.0
        latency = base_seconds + switch_seconds * self.pod_moves
        if self.trunk_count:
            latency += trunk_base_seconds + \
                switch_seconds * self.trunk_moves
        return latency


_EMPTY_PRICE = PlanPrice(num_blocks=0, trunk_count=0, ports_by_region=(),
                         pod_moves=0, trunk_moves=0)


@lru_cache(maxsize=None)
def _adjacency_arrays(grid: tuple[int, int, int]
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The grid's torus walk as (dim, low_slot, high_slot) columns."""
    adj = np.asarray(grid_adjacency_indices(grid), dtype=np.int64)
    return adj[:, 0], adj[:, 1], adj[:, 2]


@lru_cache(maxsize=None)
def _price_for(grid: tuple[int, int, int],
               counts: tuple[int, ...]) -> PlanPrice:
    n = grid[0] * grid[1] * grid[2]
    if sum(counts) != n:
        raise OCSError(
            f"grid {grid} does not cover {sum(counts)} assigned blocks")
    if len(counts) == 1:
        # Pod-local: the torus walk gives every block one "+"-face
        # adjacency per dimension, so each dimension's switches program
        # exactly n circuits and nothing touches the trunk layer.
        return PlanPrice(num_blocks=n, trunk_count=0,
                         ports_by_region=(0,), pod_moves=n, trunk_moves=0)
    dims, low, high = _adjacency_arrays(grid)
    region = np.repeat(np.arange(len(counts), dtype=np.int64),
                       np.asarray(counts, dtype=np.int64))
    low_region = region[low]
    high_region = region[high]
    cross = low_region != high_region
    trunk_count = int(np.count_nonzero(cross))
    if trunk_count:
        # A trunk adjacency of dimension d lands one circuit on each of
        # that dimension's FACE_LINKS machine switches, mirroring the
        # pod wiring law.
        trunk_moves = int(np.bincount(dims[cross], minlength=3).max())
        ports = np.bincount(low_region[cross], minlength=len(counts)) + \
            np.bincount(high_region[cross], minlength=len(counts))
        ports_by_region = tuple(int(p) for p in ports)
    else:
        trunk_moves = 0
        ports_by_region = (0,) * len(counts)
    intra = ~cross
    if intra.any():
        # max over (region, dim): the busiest pod's busiest dimension.
        pod_moves = int(np.bincount(
            low_region[intra] * 3 + dims[intra]).max())
    else:
        pod_moves = 0
    return PlanPrice(num_blocks=n, trunk_count=trunk_count,
                     ports_by_region=ports_by_region,
                     pod_moves=pod_moves, trunk_moves=trunk_moves)


@lru_cache(maxsize=None)
def plan_price(shape: SliceShape, counts: tuple[int, ...]) -> PlanPrice:
    """The memoized price of hosting `shape` split as `counts` per pod.

    `counts` is the block count of each region of the placement, in
    assignment order — the only property of a placement its rewiring
    price depends on.  Memoized on the (shape, counts) pair itself so
    repeat placements skip even the shape canonicalization.  Sub-block
    shapes live on a block's electrical mesh and price as empty.
    """
    dims = canonical_shape(shape)
    if not is_block_multiple(dims):
        return _EMPTY_PRICE
    return _price_for(block_grid(dims), counts)


class MachineFabric:
    """The machine's OCS layers: priced rewirings and the trunk ledger.

    The ledger (free trunk ports per pod, ports held per job) is its
    only state.  Its one caller, the fleet scheduler, bumps its own
    grow epoch before every :meth:`release`, so a release needs no
    signal of its own for the scheduler's failure caches.
    """

    def __init__(self, num_pods: int, trunk_ports: int) -> None:
        if num_pods < 1:
            raise OCSError(f"need at least one pod, got {num_pods}")
        if trunk_ports < 0:
            raise OCSError(f"trunk_ports must be >= 0, got {trunk_ports}")
        self.trunk_ports = trunk_ports
        self._trunk_free = [trunk_ports] * num_pods
        self._held_trunks: dict[int, dict[int, int]] = {}

    # -- trunk index --------------------------------------------------------------

    @property
    def num_pods(self) -> int:
        """Pods terminated on the trunk layer."""
        return len(self._trunk_free)

    @property
    def trunk_capacity(self) -> int:
        """Trunk ports installed across every pod."""
        return self.trunk_ports * self.num_pods

    def trunk_free(self, pod_id: int) -> int:
        """Unused trunk ports on one pod."""
        return self._trunk_free[pod_id]

    def trunk_budget(self) -> dict[int, int]:
        """Free trunk ports per pod — the placement planner's budget."""
        return {pod_id: free
                for pod_id, free in enumerate(self._trunk_free)}

    def trunk_in_use(self) -> int:
        """Trunk ports currently held by cross-pod slices."""
        return self.trunk_capacity - sum(self._trunk_free)

    def holds_trunks(self, job_id: int) -> bool:
        """True while `job_id` has circuits on the trunk layer."""
        return job_id in self._held_trunks

    def trunk_ports_of(self, job_id: int) -> dict[int, int]:
        """Trunk ports `job_id` holds per pod (a copy; {} if none).

        The what-if credit of one candidate victim: evicting or
        migrating the job to a single pod would hand exactly these
        ports back to each pod's budget.
        """
        return dict(self._held_trunks.get(job_id, {}))

    def trunk_budget_excluding(self, job_ids: Iterable[int]
                               ) -> dict[int, int]:
        """The trunk budget as if `job_ids` had already released.

        What-if accounting for contention planning — nothing is
        released; the live ledger is merely re-summed with the given
        jobs' holdings credited back.
        """
        budget = self.trunk_budget()
        for job_id in job_ids:
            for pod_id, count in self._held_trunks.get(job_id,
                                                       {}).items():
                # detlint: ignore[D005] integer trunk-port counts
                budget[pod_id] += count
        return budget

    # -- plan / apply / release ---------------------------------------------------

    def plan(self, shape: SliceShape,
             assignments: list[tuple[int, list[int]]]) -> PlanPrice:
        """The price of hosting `shape` on `assignments` (not applied).

        `assignments` is (pod id, physical blocks) per pod, in virtual
        slot order: flattening the block lists row-major fills the
        slice's block grid.  Sub-block shapes price as empty.
        """
        return plan_price(shape, tuple(len(blocks)
                                       for _, blocks in assignments))

    def apply(self, job_id: int, assignments: list[tuple[int, list[int]]],
              price: PlanPrice) -> int:
        """Rewire for `job_id`'s placement; returns chip circuits created.

        `price` is :meth:`plan` of the same `assignments`.  The trunk
        ports it needs are reserved atomically: an oversubscribed plan
        fails before any pod's budget moves.
        """
        if price.empty:
            return 0
        if job_id in self._held_trunks:
            raise OCSError(f"job {job_id} already holds trunk circuits")
        if price.trunk_count:
            ports = {assignments[region][0]: count
                     for region, count in enumerate(price.ports_by_region)
                     if count}
            for pod_id, needed in ports.items():
                if needed > self._trunk_free[pod_id]:
                    raise OCSError(
                        f"pod {pod_id} has {self._trunk_free[pod_id]} "
                        f"trunk ports free, plan needs {needed}")
            for pod_id, needed in ports.items():
                self._trunk_free[pod_id] -= needed
            self._held_trunks[job_id] = ports
        return price.num_circuits

    def release(self, job_id: int) -> int:
        """Hand back `job_id`'s trunk ports; returns trunk circuits freed.

        Pod-local circuits need no teardown bookkeeping: the blocks are
        already idle, and the next placement's price covers rewiring
        them.
        """
        ports = self._held_trunks.pop(job_id, None)
        if not ports:
            return 0
        for pod_id, count in ports.items():
            # detlint: ignore[D005] integer trunk-port counts
            self._trunk_free[pod_id] += count
        # detlint: ignore[D005] integer port counts; order-free sum
        return sum(ports.values()) // 2 * FACE_LINKS

    # -- invariants ---------------------------------------------------------------

    def check_trunk_accounting(self) -> None:
        """Assert the trunk free index matches the held-circuit ledger."""
        in_use = [0] * self.num_pods
        for ports in self._held_trunks.values():
            for pod_id, count in ports.items():
                # detlint: ignore[D005] integer trunk-port counts
                in_use[pod_id] += count
        for pod_id, used in enumerate(in_use):
            if self._trunk_free[pod_id] != self.trunk_ports - used:
                raise OCSError(
                    f"pod {pod_id} trunk index out of sync: "
                    f"{self._trunk_free[pod_id]} free but "
                    f"{used}/{self.trunk_ports} held")
