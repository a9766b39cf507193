"""Tests for machine-wide placement: priced rewirings and the trunk
ledger, the multi-region placement planner, and fabric-aware spare-port
repair."""


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.scheduler import PlacementStrategy, plan_multi_region
from repro.core.slicing import block_grid, canonical_shape
from repro.errors import OCSError
from repro.fleet.config import FleetConfig
from repro.fleet.failures import (apply_spare_repairs, build_failure_trace,
                                  spare_repair_count)
from repro.fleet.machine import MachineFabric, plan_price
from repro.fleet.presets import preset_config
from repro.ocs.fabric import FACE_LINKS
from repro.ocs.reconfigure import (block_torus_adjacencies,
                                   grid_adjacency_indices)
from repro.topology.builder import is_block_multiple


class TestGridAdjacencies:
    def test_three_per_slot(self):
        assert len(grid_adjacency_indices((2, 3, 4))) == 3 * 24

    def test_matches_block_torus_wiring(self):
        # The physical wiring is the slot walk with ids substituted.
        grid = (1, 2, 2)
        blocks = [7, 3, 11, 5]
        assert block_torus_adjacencies(grid, blocks) == [
            (dim, blocks[low], blocks[high])
            for dim, low, high in grid_adjacency_indices(grid)]

    def test_single_slot_wraps_onto_itself(self):
        assert grid_adjacency_indices((1, 1, 1)) == [
            (0, 0, 0), (1, 0, 0), (2, 0, 0)]


class TestPlanMultiRegion:
    # An (8, 8, 16) slice: 16 blocks on a (2, 2, 4) grid.
    SHAPE = (8, 8, 16)

    def test_single_region_when_it_fits(self):
        placement = plan_multi_region(self.SHAPE, [(0, 16), (1, 16)],
                                      PlacementStrategy.BEST_FIT)
        assert placement.spill == 0
        assert placement.num_trunk_adjacencies == 0
        assert placement.region_blocks == ((0, 16),)

    def test_spans_when_no_region_fits(self):
        placement = plan_multi_region(self.SHAPE, [(0, 10), (1, 10)],
                                      PlacementStrategy.BEST_FIT)
        assert placement.spill == 1
        assert placement.num_blocks == 16
        assert placement.num_trunk_adjacencies > 0
        # Both sides of every trunk adjacency terminate a port.
        ports = placement.trunk_ports_by_region()
        assert sum(ports.values()) == 2 * placement.num_trunk_adjacencies

    def test_best_fit_minimizes_spill_then_trunks(self):
        # 12 + 4 and 10 + 6 both cover 16 blocks with one spill;
        # enumeration must pick the split with fewer trunk crossings,
        # never a three-region split.
        placement = plan_multi_region(
            self.SHAPE, [(0, 6), (1, 12), (2, 10)],
            PlacementStrategy.BEST_FIT)
        assert placement.spill == 1
        alternatives = [
            plan_multi_region(self.SHAPE, [(a, take_a), (b, take_b)],
                              PlacementStrategy.FIRST_FIT)
            for a, take_a, b, take_b in
            ((1, 12, 2, 10), (1, 12, 0, 6), (2, 10, 0, 6))]
        assert placement.num_trunk_adjacencies == min(
            alt.num_trunk_adjacencies for alt in alternatives)

    def test_first_fit_takes_regions_in_order(self):
        placement = plan_multi_region(self.SHAPE, [(0, 9), (1, 5), (2, 16)],
                                      PlacementStrategy.FIRST_FIT)
        assert placement.region_blocks == ((0, 9), (1, 5), (2, 2))

    def test_trunk_budget_rejects_oversubscription(self):
        generous = plan_multi_region(self.SHAPE, [(0, 10), (1, 10)],
                                     PlacementStrategy.BEST_FIT,
                                     trunk_budget={0: 100, 1: 100})
        assert generous is not None
        starved = plan_multi_region(self.SHAPE, [(0, 10), (1, 10)],
                                    PlacementStrategy.BEST_FIT,
                                    trunk_budget={0: 1, 1: 1})
        assert starved is None

    def test_insufficient_capacity_returns_none(self):
        assert plan_multi_region(self.SHAPE, [(0, 8), (1, 7)],
                                 PlacementStrategy.BEST_FIT) is None

    def test_sub_block_returns_none(self):
        assert plan_multi_region((2, 2, 4), [(0, 8), (1, 8)],
                                 PlacementStrategy.BEST_FIT) is None

    def test_deterministic(self):
        pools = [(0, 7), (1, 9), (2, 5)]
        first = plan_multi_region(self.SHAPE, pools,
                                  PlacementStrategy.BEST_FIT)
        second = plan_multi_region(self.SHAPE, pools,
                                   PlacementStrategy.BEST_FIT)
        assert first == second


def reference_price(shape, assignments, base, switch, trunk_base):
    """The adjacency walk the fleet once programmed, priced directly.

    Classifies every slot adjacency of the slice's block grid as
    intra-pod or trunk, exactly as the per-port machine plan did, and
    derives each consumer-visible quantity from the classified lists.
    """
    dims = canonical_shape(shape)
    if not is_block_multiple(dims):
        return {"empty": True, "cross_pod": False, "num_adjacencies": 0,
                "trunk_ports": {}, "latency": 0.0}
    slots = [pod for pod, blocks in assignments for _ in blocks]
    intra: dict[int, list[int]] = {}
    trunks = []
    for dim, low, high in grid_adjacency_indices(block_grid(dims)):
        if slots[low] == slots[high]:
            intra.setdefault(slots[low], [0, 0, 0])[dim] += 1
        else:
            trunks.append((dim, slots[low], slots[high]))
    ports: dict[int, int] = {}
    for _, low_pod, high_pod in trunks:
        ports[low_pod] = ports.get(low_pod, 0) + 1
        ports[high_pod] = ports.get(high_pod, 0) + 1
    latency = base + switch * max((max(per_dim)
                                   for per_dim in intra.values()),
                                  default=0)
    if trunks:
        latency += trunk_base + switch * max(
            sum(1 for dim, *_ in trunks if dim == d) for d in range(3))
    return {"empty": False, "cross_pod": bool(trunks),
            "num_adjacencies": sum(map(sum, intra.values())) + len(trunks),
            "num_trunk_adjacencies": len(trunks), "trunk_ports": ports,
            "latency": latency}


def assert_matches_reference(shape, assignments):
    """Every quantity of the priced plan equals the reference walk's."""
    fabric = MachineFabric(num_pods=8, trunk_ports=1024)
    price = fabric.plan(shape, assignments)
    ref = reference_price(shape, assignments, 1.0, 0.01, 5.0)
    assert price.empty == ref["empty"]
    assert price.cross_pod == ref["cross_pod"]
    assert price.latency_seconds(1.0, 0.01, 5.0) == ref["latency"]
    if ref["empty"]:
        assert fabric.apply(1, assignments, price) == 0
        return
    assert price.num_adjacencies == ref["num_adjacencies"]
    assert price.num_circuits == ref["num_adjacencies"] * FACE_LINKS
    assert price.num_trunk_circuits == \
        ref["num_trunk_adjacencies"] * FACE_LINKS
    assert price.total_trunk_ports == 2 * ref["num_trunk_adjacencies"]
    assert price.cross_fraction == \
        ref["num_trunk_adjacencies"] / ref["num_adjacencies"]
    assert fabric.apply(1, assignments, price) == price.num_circuits
    assert fabric.trunk_ports_of(1) == ref["trunk_ports"]


class TestPlanPriceParity:
    """Priced rewirings must match the adjacency walk value-for-value.

    The fleet never builds adjacency lists; its whole claim to
    correctness is that a rewiring's price depends only on the block
    grid and the per-pod block counts.  Each case prices one placement
    both ways — the reference walk over physical slots vs. the memoized
    price — and compares every consumer-visible quantity exactly.
    """

    CASES = [
        # (shape, [(pod, blocks)...]): pod-local, split, and sub-block.
        ((4, 4, 8), [(0, [0]), (1, [0])]),
        ((8, 8, 8), [(0, [0, 1, 2, 3, 4, 5, 6, 7])]),
        ((8, 8, 8), [(0, [0, 1, 2, 3]), (1, [4, 5, 6, 7])]),
        ((4, 8, 12), [(0, [0, 1, 2]), (1, [0, 1, 2])]),
        ((4, 4, 12), [(0, [5]), (1, [7]), (2, [2])]),
        ((2, 2, 4), [(0, [3])]),
    ]

    @pytest.mark.parametrize("shape,assignments", CASES)
    def test_matches_reference_walk(self, shape, assignments):
        assert_matches_reference(shape, assignments)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_splits_match_reference_walk(self, data):
        grid = data.draw(st.tuples(*[st.integers(1, 4)] * 3), label="grid")
        num_blocks = grid[0] * grid[1] * grid[2]
        regions = data.draw(st.integers(1, min(8, num_blocks)),
                            label="regions")
        cuts = sorted(data.draw(
            st.sets(st.integers(1, max(1, num_blocks - 1)),
                    min_size=regions - 1, max_size=regions - 1),
            label="cuts"))
        bounds = [0, *cuts, num_blocks]
        pods = data.draw(st.permutations(range(8)), label="pods")
        assignments = [(pods[r], list(range(bounds[r + 1] - bounds[r])))
                       for r in range(regions)]
        assert_matches_reference(tuple(4 * side for side in grid),
                                 assignments)

    def test_memoized_identity(self):
        first = plan_price((8, 8, 8), (4, 4))
        second = plan_price((8, 8, 8), (4, 4))
        assert first is second

    def test_grid_must_cover_counts(self):
        with pytest.raises(OCSError):
            plan_price((8, 8, 8), (4, 3))


class TestMachineFabric:
    def _fabric(self, num_pods=2, trunk_ports=48):
        return MachineFabric(num_pods, trunk_ports)

    #: (4, 8, 16): 8 blocks on a (1, 2, 4) grid, split 5 + 3.
    CROSS = [(0, [0, 1, 2, 3, 4]), (1, [0, 1, 2])]

    def _apply_cross(self, fabric, job_id=1):
        price = fabric.plan((4, 8, 16), self.CROSS)
        return price, fabric.apply(job_id, self.CROSS, price)

    def test_single_pod_plan_has_no_trunks(self):
        price = self._fabric().plan((4, 4, 8), [(0, [2, 5])])
        assert not price.cross_pod
        assert price.num_adjacencies == 3 * 2
        assert price.num_circuits == 6 * FACE_LINKS

    def test_cross_pod_plan_splits_layers(self):
        price = self._fabric().plan((4, 8, 16), self.CROSS)
        assert price.cross_pod
        # Every adjacency lands in exactly one layer.
        assert price.num_adjacencies == 3 * 8
        assert 0 < price.trunk_count < price.num_adjacencies
        assert price.num_trunk_circuits == price.trunk_count * FACE_LINKS
        assert price.total_trunk_ports == 2 * price.trunk_count
        assert sum(price.ports_by_region) == price.total_trunk_ports
        assert 0.0 < price.cross_fraction < 1.0

    def test_cross_pod_latency_exceeds_single_pod(self):
        fabric = self._fabric()
        cross = fabric.plan((4, 8, 16), self.CROSS)
        single = fabric.plan((8, 8, 8), [(0, list(range(8)))])
        assert cross.latency_seconds(30.0, 0.01, 15.0) > \
            single.latency_seconds(30.0, 0.01, 15.0)
        # Pod-local: every block adds one move per dimension's switch.
        assert single.latency_seconds(30.0, 0.01, 15.0) == 30.0 + 0.01 * 8

    def test_apply_release_roundtrip(self):
        fabric = self._fabric()
        price, created = self._apply_cross(fabric)
        assert created == price.num_circuits
        assert fabric.holds_trunks(1)
        assert fabric.trunk_in_use() == price.total_trunk_ports
        fabric.check_trunk_accounting()
        assert fabric.release(1) == price.num_trunk_circuits
        assert fabric.trunk_in_use() == 0
        assert not fabric.holds_trunks(1)
        fabric.check_trunk_accounting()

    def test_double_apply_rejected(self):
        fabric = self._fabric()
        self._apply_cross(fabric)
        with pytest.raises(OCSError, match="already holds"):
            self._apply_cross(fabric)

    def test_reserve_and_release_roundtrip(self):
        # Per-pod view of the roundtrip on a three-pod machine: only
        # the two pods the job spans lose ports, and the excluding
        # budget agrees with the live ledger.
        fabric = self._fabric(num_pods=3)
        price, _ = self._apply_cross(fabric, job_id=7)
        expected = {pod_id: 48 - price.ports_by_region[region]
                    for region, (pod_id, _) in enumerate(self.CROSS)}
        expected[2] = 48
        assert fabric.trunk_budget() == expected
        assert all(fabric.trunk_free(pod_id) == free
                   for pod_id, free in expected.items())
        assert fabric.trunk_budget_excluding([7]) == {0: 48, 1: 48, 2: 48}
        fabric.check_trunk_accounting()
        assert fabric.release(7) == price.num_trunk_circuits
        assert fabric.trunk_budget() == {0: 48, 1: 48, 2: 48}
        fabric.check_trunk_accounting()

    def test_double_reserve_rejected(self):
        # A job holding trunks cannot take a second, different layout
        # without releasing the first; the held ports stay as they were.
        fabric = self._fabric(num_pods=3)
        price, _ = self._apply_cross(fabric)
        held = fabric.trunk_ports_of(1)
        other = [(2, [0, 1, 2, 3, 4]), (0, [0, 1, 2])]
        with pytest.raises(OCSError, match="already holds"):
            fabric.apply(1, other, fabric.plan((4, 8, 16), other))
        assert fabric.trunk_ports_of(1) == held
        assert fabric.trunk_free(2) == 48
        assert fabric.trunk_in_use() == price.total_trunk_ports
        fabric.check_trunk_accounting()

    def test_oversubscribed_trunks_rejected_atomically(self):
        fabric = self._fabric(trunk_ports=1)
        with pytest.raises(OCSError, match="trunk"):
            self._apply_cross(fabric)
        # Nothing leaked: ports intact, nothing held.
        assert fabric.trunk_in_use() == 0
        assert not fabric.holds_trunks(1)

    def test_partial_fit_reserves_nothing(self):
        # Pod 0 could host its share, pod 1 cannot: the failed apply
        # must not have taken pod 0's ports either.
        fabric = self._fabric(num_pods=3, trunk_ports=12)
        price, _ = self._apply_cross(fabric, job_id=1)
        held = fabric.trunk_ports_of(1)[1]
        assert fabric.trunk_free(1) < held <= fabric.trunk_free(2)
        before = fabric.trunk_budget()
        spans_1_2 = [(2, [0, 1, 2, 3, 4]), (1, [0, 1, 2])]
        with pytest.raises(OCSError, match="trunk"):
            fabric.apply(2, spans_1_2, price)
        assert fabric.trunk_budget() == before
        assert not fabric.holds_trunks(2)
        fabric.check_trunk_accounting()

    def test_pod_local_apply_holds_nothing(self):
        fabric = self._fabric()
        assignments = [(0, [2, 5])]
        price = fabric.plan((4, 4, 8), assignments)
        assert fabric.apply(1, assignments, price) == price.num_circuits
        assert not fabric.holds_trunks(1)
        assert fabric.release(1) == 0

    def test_sub_block_apply_is_free(self):
        fabric = self._fabric()
        assignments = [(0, [3])]
        price = fabric.plan((2, 2, 4), assignments)
        assert price.empty
        assert fabric.apply(1, assignments, price) == 0
        assert not fabric.holds_trunks(1)

    def test_release_unknown_job_is_free(self):
        fabric = self._fabric()
        assert fabric.release(99) == 0

    def test_budget_reflects_held_ports(self):
        fabric = self._fabric()
        price, _ = self._apply_cross(fabric)
        budget = fabric.trunk_budget()
        for region, (pod_id, _) in enumerate(self.CROSS):
            assert budget[pod_id] == 48 - price.ports_by_region[region]

    def test_what_if_accounting_never_mutates(self):
        # The contention planner's what-if views: per-victim holdings
        # and an excluding budget, both pure reads.
        fabric = self._fabric()
        price, _ = self._apply_cross(fabric)
        expected = {pod_id: price.ports_by_region[region]
                    for region, (pod_id, _) in enumerate(self.CROSS)}
        held = fabric.trunk_ports_of(1)
        assert held == expected
        held[0] = 999  # a copy — the ledger must not see this
        assert fabric.trunk_ports_of(1) == expected
        assert fabric.trunk_ports_of(42) == {}
        excluding = fabric.trunk_budget_excluding([1])
        assert excluding == {0: 48, 1: 48}  # as if job 1 had released
        # ...but the live budget and ledger are untouched.
        assert fabric.trunk_in_use() == price.total_trunk_ports
        assert fabric.holds_trunks(1)
        fabric.check_trunk_accounting()

    def test_release_hands_ports_back_once(self):
        # Only a job that holds trunk ports gets any back, and a second
        # release of the same job is a no-op.
        fabric = self._fabric()
        price, _ = self._apply_cross(fabric)
        assert fabric.release(99) == 0   # held nothing: no trunk came back
        assert fabric.trunk_in_use() == price.total_trunk_ports
        assert fabric.release(1) == price.num_trunk_circuits
        assert fabric.release(1) == 0    # already gone: idempotent
        assert fabric.trunk_in_use() == 0
        fabric.check_trunk_accounting()

    def test_rejects_bad_sizes(self):
        with pytest.raises(OCSError):
            MachineFabric(0, 8)
        with pytest.raises(OCSError):
            MachineFabric(2, -1)


class TestSpareRepairs:
    def _config(self, **overrides):
        overrides.setdefault("num_pods", 1)
        overrides.setdefault("blocks_per_pod", 8)
        overrides.setdefault("max_job_blocks", 8)
        overrides.setdefault("optical_failure_fraction", 1.0)
        overrides.setdefault("spare_ports", 2)
        overrides.setdefault("port_repair_seconds", 60.0)
        return FleetConfig(**overrides)

    def test_optical_outages_shortened(self):
        config = self._config()
        trace = build_failure_trace(config, np.random.default_rng(0),
                                    repair_rng=np.random.default_rng(1))
        repaired = [o for o in trace if o.via_spare]
        assert repaired, "expected spare-port repairs"
        assert all(o.duration <= 60.0 + 1e-9 for o in repaired)
        assert spare_repair_count(trace) == len(repaired)

    def test_spares_can_exhaust(self):
        # Every outage optical, one spare, long quarantines: overlapping
        # failures must fall back to full outages.
        config = self._config(spare_ports=1,
                              host_mtbf_seconds=4 * 86400.0)
        trace = build_failure_trace(config, np.random.default_rng(3),
                                    repair_rng=np.random.default_rng(4))
        assert any(o.via_spare for o in trace)
        assert any(not o.via_spare for o in trace)

    def test_repair_never_lengthens_an_outage(self):
        config = self._config(port_repair_seconds=1e9)
        rng = np.random.default_rng(0)
        base = build_failure_trace(config, np.random.default_rng(0))
        repaired = apply_spare_repairs(config, base, rng)
        for before, after in zip(base, repaired):
            assert after.duration <= before.duration + 1e-9

    def test_zero_fraction_leaves_trace_untouched(self):
        config = self._config(optical_failure_fraction=0.0)
        with_stream = build_failure_trace(
            config, np.random.default_rng(0),
            repair_rng=np.random.default_rng(1))
        without = build_failure_trace(config, np.random.default_rng(0))
        assert with_stream == without
        assert spare_repair_count(with_stream) == 0

    def test_repairs_deterministic(self):
        config = self._config()
        first = build_failure_trace(config, np.random.default_rng(5),
                                    repair_rng=np.random.default_rng(6))
        second = build_failure_trace(config, np.random.default_rng(5),
                                     repair_rng=np.random.default_rng(6))
        assert first == second


class TestLargePreset:
    def test_machine_wide_by_construction(self):
        config = preset_config("large")
        assert config.machine_wide_jobs
        assert config.cross_pod
        assert config.spare_ports > 0
        assert config.optical_failure_fraction > 0

    def test_replace_toggles_cross_pod_without_revalidation_error(self):
        config = preset_config("large").with_overrides(cross_pod=False)
        assert not config.cross_pod
        assert config.machine_wide_jobs  # the mix still spans pods
