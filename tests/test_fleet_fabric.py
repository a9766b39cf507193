"""Tests for pod-local OCS wiring and the price of rewiring one pod.

The fleet prices a placement's rewiring instead of programming it
(:func:`repro.fleet.machine.plan_price`); the chip-level wiring here is
the physical model those prices must agree with.
"""

import pytest

from repro.errors import OCSError
from repro.fleet.machine import plan_price
from repro.ocs.fabric import OCSFabric
from repro.ocs.reconfigure import (block_torus_adjacencies,
                                   program_adjacencies, realize_slice,
                                   teardown_adjacencies)


class TestBlockTorusAdjacencies:
    def test_every_block_contributes_one_plus_face_per_dim(self):
        adjacencies = block_torus_adjacencies((1, 1, 2), [3, 5])
        assert len(adjacencies) == 3 * 2
        for dim in range(3):
            lows = sorted(low for d, low, _ in adjacencies if d == dim)
            assert lows == [3, 5]

    def test_wraparound_closes_each_ring(self):
        adjacencies = block_torus_adjacencies((1, 1, 2), [3, 5])
        dim2 = {(low, high) for d, low, high in adjacencies if d == 2}
        assert dim2 == {(3, 5), (5, 3)}

    def test_single_block_wraps_onto_itself(self):
        adjacencies = block_torus_adjacencies((1, 1, 1), [7])
        assert adjacencies == [(0, 7, 7), (1, 7, 7), (2, 7, 7)]

    def test_grid_must_cover_blocks(self):
        with pytest.raises(OCSError):
            block_torus_adjacencies((1, 1, 2), [1, 2, 3])

    def test_program_and_teardown_roundtrip(self):
        fabric = OCSFabric(8)
        adjacencies = block_torus_adjacencies((1, 1, 2), [0, 4])
        created = program_adjacencies(fabric, adjacencies)
        assert created == 6 * 16
        assert fabric.total_circuits() == created
        removed = teardown_adjacencies(fabric, adjacencies)
        assert removed == created
        assert fabric.total_circuits() == 0


class TestReconfigPlan:
    """The price of a pod-local reconfiguration plan."""

    def test_circuit_count_matches_chip_level_wiring(self):
        # Block-granularity accounting must agree with the full
        # chip-level realization of the same slice on a real fabric.
        wiring = realize_slice(OCSFabric(64), (4, 4, 8))
        assert plan_price((4, 4, 8), (2,)).num_circuits == \
            wiring.num_optical_links

    def test_moves_per_switch_is_slice_blocks(self):
        price = plan_price((4, 8, 8), (4,))
        assert price.pod_moves == 4
        assert price.num_circuits == 48 * 4

    def test_latency_scales_with_moves(self):
        price = plan_price((4, 4, 8), (2,))
        assert price.latency_seconds(30.0, 0.5, 15.0) == 31.0

    def test_sub_block_plan_is_empty_and_free(self):
        price = plan_price((2, 2, 4), (1,))
        assert price.empty
        assert price.num_circuits == 0
        assert price.pod_moves == 0
        assert price.latency_seconds(30.0, 0.5, 15.0) == 0.0
