"""Tests for the fluid flow simulator."""

import math

import pytest

from repro.errors import SimulationError
from repro.network import FlowSim, flowsim, simcollectives
from repro.network.flowsim import route_links, topology_capacities
from repro.network.simcollectives import (simulate_alltoall,
                                          simulate_ring_allreduce)
from repro.topology import Torus3D, TwistedTorus3D


class TestFlowSim:
    def test_single_flow_time(self):
        sim = FlowSim({"a": 10.0})
        flow = sim.add_flow(["a"], 100.0)
        assert sim.run() == pytest.approx(10.0)
        assert flow.finish_time == pytest.approx(10.0)

    def test_two_flows_share_then_speed_up(self):
        # Both flows share (rate 5) until the short one finishes, then the
        # long one gets the full link.
        sim = FlowSim({"a": 10.0})
        short = sim.add_flow(["a"], 50.0)
        long = sim.add_flow(["a"], 150.0)
        sim.run()
        assert short.finish_time == pytest.approx(10.0)
        # Long flow: 50 bytes by t=10 (rate 5), then 100 at rate 10 -> t=20.
        assert long.finish_time == pytest.approx(20.0)

    def test_staggered_start(self):
        sim = FlowSim({"a": 10.0})
        first = sim.add_flow(["a"], 100.0)
        second = sim.add_flow(["a"], 100.0, delay=5.0)
        sim.run()
        # First runs alone 5s (50 bytes), shares 10s (50 bytes) -> t=15.
        assert first.finish_time == pytest.approx(15.0)
        # Second: shares 10s (50), alone 5s (50) -> t=20.
        assert second.finish_time == pytest.approx(20.0)

    def test_zero_size_completes_immediately(self):
        sim = FlowSim({"a": 1.0})
        flow = sim.add_flow(["a"], 0.0)
        sim.run()
        assert flow.finish_time == pytest.approx(0.0)

    def test_dependency_chaining(self):
        sim = FlowSim({"a": 10.0})
        order = []

        def second_stage(done_flow):
            order.append("first-done")
            sim.add_flow(["a"], 100.0,
                         on_complete=lambda f: order.append("second-done"))

        sim.add_flow(["a"], 100.0, on_complete=second_stage)
        total = sim.run()
        assert order == ["first-done", "second-done"]
        assert total == pytest.approx(20.0)

    def test_latency_applies_before_bytes(self):
        sim = FlowSim({"a": 10.0}, latency=1.0)
        flow = sim.add_flow(["a"], 100.0)
        sim.run()
        assert flow.finish_time == pytest.approx(11.0)

    def test_negative_size_rejected(self):
        sim = FlowSim({"a": 1.0})
        with pytest.raises(SimulationError):
            sim.add_flow(["a"], -1.0)

    def test_bad_capacity_rejected(self):
        with pytest.raises(SimulationError):
            FlowSim({"a": 0.0})

    def test_infinite_capacity_rejected(self):
        with pytest.raises(SimulationError, match="inf"):
            FlowSim({"a": math.inf})

    def test_nan_capacity_rejected(self):
        with pytest.raises(SimulationError, match="nan"):
            FlowSim({"a": math.nan})

    @pytest.mark.parametrize("latency", [math.nan, math.inf, -1.0])
    def test_bad_latency_rejected(self, latency):
        with pytest.raises(SimulationError, match="latency"):
            FlowSim({"a": 1.0}, latency=latency)

    @pytest.mark.parametrize("size", [math.nan, math.inf])
    def test_non_finite_size_rejected(self, size):
        sim = FlowSim({"a": 1.0})
        with pytest.raises(SimulationError, match="flow size"):
            sim.add_flow(["a"], size)
        assert sim.flows == []

    @pytest.mark.parametrize("delay", [math.nan, math.inf, -1.0])
    def test_bad_delay_rejected(self, delay):
        sim = FlowSim({"a": 1.0})
        with pytest.raises(SimulationError, match="flow delay"):
            sim.add_flow(["a"], 1.0, delay=delay)
        assert sim.flows == []

    def test_disjoint_flows_run_in_parallel(self):
        sim = FlowSim({"a": 10.0, "b": 10.0})
        fa = sim.add_flow(["a"], 100.0)
        fb = sim.add_flow(["b"], 100.0)
        sim.run()
        assert fa.finish_time == pytest.approx(10.0)
        assert fb.finish_time == pytest.approx(10.0)

    def test_unfinished_flow_query_raises(self):
        sim = FlowSim({"a": 1.0})
        flow = sim.add_flow(["a"], 10.0)
        with pytest.raises(SimulationError):
            sim.completion_time(flow)


class TestTopologyIntegration:
    def test_capacities_include_multiplicity(self):
        torus = Torus3D((4, 1, 1))
        caps = topology_capacities(torus, 50.0)
        assert caps[((0, 0, 0), (1, 0, 0))] == 50.0
        assert len(caps) == 2 * torus.num_links

    def test_route_links(self):
        path = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
        assert route_links(path) == [((0, 0, 0), (1, 0, 0)),
                                     ((1, 0, 0), (2, 0, 0))]

    def test_neighbor_exchange_on_ring(self):
        from repro.network.traffic import neighbor_exchange_pairs
        from repro.topology.routing import shortest_path
        torus = Torus3D((4, 1, 1))
        caps = topology_capacities(torus, 10.0)
        sim = FlowSim(caps)
        for src, dst in neighbor_exchange_pairs(torus):
            sim.add_flow(route_links(shortest_path(torus, src, dst)), 100.0)
        # Each direction of each link carries exactly one flow: 10 s.
        assert sim.run() == pytest.approx(10.0)


class EagerFlowSim(FlowSim):
    """Re-solves on every flow start and finish instead of once per
    timestamp: the simulator's behaviour before solves were batched."""

    def _flow_set_changed(self):
        if self._pending_event is not None:
            self._pending_event.cancel()
            self._pending_event = None
        self._solve()


def finish_times(monkeypatch, cls, simulate, *args, **kwargs):
    """Run a simulated collective on `cls`; every flow's finish time."""
    sims = []

    class Recording(cls):
        def run(self, *run_args, **run_kwargs):
            sims.append(self)
            return super().run(*run_args, **run_kwargs)

    monkeypatch.setattr(simcollectives, "FlowSim", Recording)
    result = simulate(*args, **kwargs)
    return result, [flow.finish_time for sim in sims for flow in sim.flows]


class TestBatchedSolves:
    """One solve per timestamp gives the finish times of solving on
    every change, bit for bit."""

    @pytest.mark.parametrize("topology, dim", [
        pytest.param(Torus3D((4, 4, 2)), 0, id="torus-4x4x2-dim0"),
        pytest.param(Torus3D((4, 4, 2)), 1, id="torus-4x4x2-dim1"),
        pytest.param(Torus3D((4, 4, 2)), 2, id="torus-4x4x2-dim2"),
        pytest.param(Torus3D((3, 3, 3)), 2, id="torus-3x3x3-dim2"),
        pytest.param(Torus3D((2, 1, 1)), 0, id="torus-2x1x1-dim0"),
        # The canonical 4x4x8 twist offsets dim 0's wrap link, so only
        # dims 1 and 2 have coordinate-order rings.
        pytest.param(TwistedTorus3D((4, 4, 8)), 1, id="twisted-4x4x8-dim1"),
        pytest.param(TwistedTorus3D((4, 4, 8)), 2, id="twisted-4x4x8-dim2"),
    ])
    def test_ring_allreduce_matches_eager(self, monkeypatch, topology, dim):
        batched = finish_times(monkeypatch, FlowSim, simulate_ring_allreduce,
                               topology, 1e6, 50e9, dim=dim)
        eager = finish_times(monkeypatch, EagerFlowSim,
                             simulate_ring_allreduce, topology, 1e6, 50e9,
                             dim=dim)
        assert batched == eager

    @pytest.mark.parametrize("topology", [
        pytest.param(Torus3D((4, 3, 1)), id="torus-4x3x1"),
        pytest.param(Torus3D((3, 3, 3)), id="torus-3x3x3"),
        pytest.param(Torus3D((2, 2, 4)), id="torus-2x2x4"),
        pytest.param(TwistedTorus3D((2, 2, 4), twists={2: (1, 0, 0)}),
                     id="twisted-2x2x4"),
    ])
    def test_alltoall_matches_eager(self, monkeypatch, topology):
        batched = finish_times(monkeypatch, FlowSim, simulate_alltoall,
                               topology, 1e4, 50e9)
        eager = finish_times(monkeypatch, EagerFlowSim, simulate_alltoall,
                             topology, 1e4, 50e9)
        assert batched == eager

    def test_staggered_and_chained_flows_match_eager(self):
        def scenario(cls):
            sim = cls({"a": 10.0, "b": 4.0}, latency=0.5)
            sim.add_flow(["a"], 100.0)
            sim.add_flow(["a", "b"], 30.0, delay=1.0)
            sim.add_flow([], 5.0, delay=1.0)
            sim.add_flow(["b"], 0.0, delay=2.0)
            sim.add_flow(["b"], 20.0, delay=2.0,
                         on_complete=lambda _: sim.add_flow(["a"], 10.0))
            sim.run()
            return [flow.finish_time for flow in sim.flows]

        assert scenario(FlowSim) == scenario(EagerFlowSim)


class TestSolveCounts:
    """Exact work counters: the solver runs once per timestamp at which
    the flow set changed."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        solve = flowsim.max_min_fair_rates

        def counting(routes, capacities):
            calls.append(len(routes))
            return solve(routes, capacities)

        monkeypatch.setattr(flowsim, "max_min_fair_rates", counting)
        return calls

    def test_ring_allreduce_solves_once_per_step(self, solves):
        # One timestamp per step of the 2 * (n - 1) steps of a 4-ring.
        simulate_ring_allreduce(Torus3D((4, 4, 2)), 1e6, 50e9, dim=0)
        assert len(solves) == 6

    def test_alltoall_solve_count(self, solves):
        simulate_alltoall(Torus3D((4, 3, 1)), 1e4, 50e9)
        assert len(solves) == 6

    def test_same_time_starts_share_one_solve(self, solves):
        sim = FlowSim({"a": 10.0})
        for _ in range(5):
            sim.add_flow(["a"], 10.0)
        sim.run()
        assert solves == [5]
