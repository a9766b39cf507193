"""Tests for bisection, diameter, average distance, and routing."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TopologyError
from repro.topology import (Mesh3D, Torus3D, TwistedTorus3D,
                            average_distance, bisection_bandwidth,
                            bisection_links, diameter,
                            theoretical_bisection_scaling)
from repro.topology import routing
from repro.topology.properties import bfs_distances
from repro.topology.routing import (RoutingTable, ecmp_edge_loads,
                                    max_edge_load, path_length, shortest_path)
from repro.topology.twisted import _twist_candidates

# Twists on two dimensions: not a quotient lattice, not vertex-transitive.
TWO_TWISTS = TwistedTorus3D((4, 4, 8), {0: (0, 0, 4), 1: (2, 0, 0)})


class TestBisection:
    def test_cube_formula(self):
        # k^3 torus bisects through 2k^2 links.
        for k in (3, 4, 5):
            assert bisection_links(Torus3D((k, k, k))) == 2 * k * k

    def test_2d_torus_formula(self):
        assert bisection_links(Torus3D((8, 8, 1))) == 2 * 8

    def test_rectangular_cut_through_long_dim(self):
        # 4x4x8: cutting the 16 z-rings twice each = 32 links.
        assert bisection_links(Torus3D((4, 4, 8))) == 32

    def test_twist_doubles_bisection(self):
        regular = bisection_links(Torus3D((4, 4, 8)))
        twisted = bisection_links(TwistedTorus3D((4, 4, 8)))
        assert twisted == 2 * regular

    def test_twist_doubles_bisection_n2n2n(self):
        regular = bisection_links(Torus3D((4, 8, 8)))
        twisted = bisection_links(TwistedTorus3D((4, 8, 8)))
        assert twisted == 2 * regular

    def test_mesh_half_of_torus(self):
        # A mesh cut crosses each line once; the torus crosses twice.
        assert bisection_links(Mesh3D((4, 4, 8))) == 16
        assert bisection_links(Torus3D((4, 4, 8))) == 32

    def test_bandwidth_scales_linearly(self):
        torus = Torus3D((4, 4, 4))
        assert bisection_bandwidth(torus, 50e9) == bisection_links(torus) * 50e9

    def test_single_node_raises(self):
        with pytest.raises(TopologyError):
            bisection_links(Torus3D((1, 1, 1)))

    def test_scaling_law(self):
        assert theoretical_bisection_scaling(64, 3) == pytest.approx(2 * 16)
        assert theoretical_bisection_scaling(64, 2) == pytest.approx(16)
        # 3D pulls ahead of 2D as N grows (paper Section 3.6).
        for n in (64, 256, 1024, 4096):
            assert (theoretical_bisection_scaling(n, 3)
                    > theoretical_bisection_scaling(n, 2))
        with pytest.raises(TopologyError):
            theoretical_bisection_scaling(64, 4)


class TestDistances:
    def test_cube_diameter(self):
        # k^3 torus diameter is 3*floor(k/2).
        assert diameter(Torus3D((4, 4, 4))) == 6
        assert diameter(Torus3D((8, 8, 8))) == 12

    def test_mesh_diameter(self):
        assert diameter(Mesh3D((4, 4, 4))) == 9

    def test_twist_reduces_diameter(self):
        assert diameter(TwistedTorus3D((4, 4, 8))) < diameter(Torus3D((4, 4, 8)))

    def test_twist_reduces_average_distance(self):
        assert (average_distance(TwistedTorus3D((4, 4, 8)))
                < average_distance(Torus3D((4, 4, 8))))

    def test_two_twists_scan_every_source(self):
        profiles = {tuple(sorted(bfs_distances(TWO_TWISTS, n).values()))
                    for n in TWO_TWISTS.nodes}
        assert len(profiles) > 1
        assert not TWO_TWISTS.vertex_transitive
        totals = [sum(bfs_distances(TWO_TWISTS, n).values())
                  for n in TWO_TWISTS.nodes]
        n = TWO_TWISTS.num_nodes
        assert average_distance(TWO_TWISTS) == pytest.approx(
            sum(totals) / (n * (n - 1)), rel=1e-12)
        assert diameter(TWO_TWISTS) == max(
            max(bfs_distances(TWO_TWISTS, m).values())
            for m in TWO_TWISTS.nodes)

    def test_average_distance_ring(self):
        # Ring of 4: distances 1,1,2 from each node -> mean 4/3.
        assert average_distance(Torus3D((4, 1, 1))) == pytest.approx(4 / 3)

    def test_single_node(self):
        assert average_distance(Torus3D((1, 1, 1))) == 0.0


class TestRouting:
    def test_shortest_path_endpoints(self):
        torus = Torus3D((4, 4, 4))
        path = shortest_path(torus, (0, 0, 0), (2, 2, 2))
        assert path[0] == (0, 0, 0)
        assert path[-1] == (2, 2, 2)
        assert len(path) - 1 == 6

    def test_path_steps_are_links(self):
        torus = TwistedTorus3D((4, 4, 8))
        path = shortest_path(torus, (0, 0, 0), (3, 3, 5))
        for u, v in zip(path, path[1:]):
            assert torus.has_edge(u, v)

    def test_path_uses_wraparound(self):
        torus = Torus3D((8, 1, 1))
        assert path_length(torus, (0, 0, 0), (7, 0, 0)) == 1

    def test_ecmp_loads_symmetric_on_torus(self):
        torus = Torus3D((4, 4, 4))
        loads = ecmp_edge_loads(torus)
        values = set(round(v, 6) for v in loads.values())
        # Vertex+edge transitivity: every directed link carries equal load.
        assert len(values) == 1

    def test_ecmp_load_conservation(self):
        """Total link load equals total traffic 'work' (pairs x distance)."""
        torus = Torus3D((4, 4, 2))
        loads = ecmp_edge_loads(torus)
        total_work = 0.0
        for src in torus.nodes:
            from repro.topology.properties import bfs_distances
            total_work += sum(bfs_distances(torus, src).values())
        assert sum(loads.values()) == pytest.approx(total_work)

    def test_max_edge_load_divides_multiplicity(self):
        torus = Torus3D((4, 1, 1))
        loads = ecmp_edge_loads(torus)
        assert max_edge_load(torus, loads) == max(loads.values())

    def test_routing_table_next_hops(self):
        torus = Torus3D((4, 4, 4))
        table = RoutingTable(torus)
        hops = table.next_hops((0, 0, 0), (2, 2, 0))
        # Both +x and +y neighbors (and wraps) make progress; all at dist 3.
        assert (1, 0, 0) in hops and (0, 1, 0) in hops
        assert table.next_hops((1, 1, 1), (1, 1, 1)) == []

    def test_routing_table_path_valid(self):
        torus = TwistedTorus3D((4, 4, 8))
        table = RoutingTable(torus)
        path = table.path((0, 0, 0), (2, 1, 6))
        assert path[0] == (0, 0, 0) and path[-1] == (2, 1, 6)
        assert len(path) - 1 == path_length(torus, (0, 0, 0), (2, 1, 6))

    @given(st.tuples(st.integers(2, 4), st.integers(2, 4), st.integers(2, 4)))
    @settings(max_examples=8, deadline=None)
    def test_paths_never_longer_than_diameter(self, shape):
        torus = Torus3D(shape)
        worst = diameter(torus)
        table = RoutingTable(torus)
        src = torus.nodes[0]
        for dst in torus.nodes[1:]:
            assert len(table.path(src, dst)) - 1 <= worst


@pytest.fixture
def dag_sources(monkeypatch):
    """The sources `_shortest_path_dag` runs from, in call order."""
    calls = []
    original = routing._shortest_path_dag
    monkeypatch.setattr(routing, "_shortest_path_dag",
                        lambda t, s: calls.append(s) or original(t, s))
    return calls


def _assert_matches_full_brandes(topology):
    fast = ecmp_edge_loads(topology)
    full = ecmp_edge_loads(topology, topology.nodes)
    assert fast.keys() == full.keys()
    for edge, load in full.items():
        assert fast[edge] == pytest.approx(load, rel=1e-12, abs=0)


class TestTranslationSymmetricECMP:
    """One Brandes source per Cayley graph, pinned to all-source Brandes."""

    @pytest.mark.parametrize(
        "shape", [s for s in itertools.product(range(1, 5), repeat=3)
                  if s != (1, 1, 1)])
    def test_small_tori_and_their_twists(self, shape):
        _assert_matches_full_brandes(Torus3D(shape))
        for spec in _twist_candidates(shape):
            _assert_matches_full_brandes(TwistedTorus3D(shape, spec))

    @pytest.mark.parametrize("shape", sorted(
        set(itertools.permutations((4, 4, 8)))
        | set(itertools.permutations((4, 8, 8)))))
    def test_paper_shapes_every_dimension_order(self, shape):
        _assert_matches_full_brandes(Torus3D(shape))
        _assert_matches_full_brandes(TwistedTorus3D(shape))

    @given(st.tuples(st.integers(1, 16), st.integers(1, 16),
                     st.integers(1, 16)).filter(
                         lambda s: 2 <= s[0] * s[1] * s[2] <= 64),
           st.integers(0, 8))
    @settings(max_examples=20, deadline=None)
    def test_twists_of_longer_dimensions(self, shape, pick):
        specs = _twist_candidates(shape)
        if specs:
            _assert_matches_full_brandes(
                TwistedTorus3D(shape, specs[pick % len(specs)]))

    @pytest.mark.parametrize("topology", [Mesh3D((3, 4, 2)), TWO_TWISTS],
                             ids=["mesh", "two_twists"])
    def test_fallback_runs_every_source(self, topology, dag_sources):
        assert topology.difference is None
        _assert_matches_full_brandes(topology)
        assert dag_sources == topology.nodes * 2

    @pytest.mark.parametrize("topology", [
        Torus3D((4, 4, 8)), TwistedTorus3D((4, 8, 8))],
        ids=["torus", "twisted"])
    def test_symmetric_path_runs_one_source(self, topology, dag_sources):
        ecmp_edge_loads(topology)
        assert dag_sources == [topology.nodes[0]]


class TestThroughputShape:
    """The headline Figure 6 behaviour, asserted at the graph level."""

    def _per_node_throughput(self, topology):
        n = topology.num_nodes
        return (n - 1) / max_edge_load(topology)

    def test_twisted_beats_regular_448(self):
        ratio = (self._per_node_throughput(TwistedTorus3D((4, 4, 8)))
                 / self._per_node_throughput(Torus3D((4, 4, 8))))
        assert 1.3 <= ratio <= 1.8  # paper: 1.63x

    def test_twisted_beats_regular_488(self):
        ratio = (self._per_node_throughput(TwistedTorus3D((4, 8, 8)))
                 / self._per_node_throughput(Torus3D((4, 8, 8))))
        assert 1.15 <= ratio <= 1.6  # paper: 1.31x

    def test_gain_larger_for_kk2k_than_n2n2n(self):
        gain_448 = (self._per_node_throughput(TwistedTorus3D((4, 4, 8)))
                    / self._per_node_throughput(Torus3D((4, 4, 8))))
        gain_488 = (self._per_node_throughput(TwistedTorus3D((4, 8, 8)))
                    / self._per_node_throughput(Torus3D((4, 8, 8))))
        assert gain_448 > gain_488
