"""Regular 3D torus, the default TPU v4 slice topology.

Each dimension of size >= 3 forms a ring (wraparound provided by the OCS).
A dimension of size 2 contributes a single link between the two planes (no
doubled wraparound cable), and a dimension of size 1 contributes nothing.
TPU v3's 2D torus is the special case ``(a, b, 1)``.
"""

from __future__ import annotations

from typing import Iterator

from repro.topology.base import Topology
from repro.topology.coords import Coord, iter_coords


class Torus3D(Topology):
    """A rectangular (possibly degenerate) 3D torus."""

    kind = "torus"
    vertex_transitive = True

    def _edges(self) -> Iterator[tuple[Coord, Coord, int]]:
        for node in iter_coords(self.shape):
            for dim in range(3):
                size = self.shape[dim]
                if size == 1:
                    continue
                succ = list(node)
                succ[dim] = (node[dim] + 1) % size
                successor = (succ[0], succ[1], succ[2])
                # A ring of two nodes would emit the same undirected edge
                # twice (0->1 and 1->0); emit it once, from the even side.
                if size == 2 and node[dim] == 1:
                    continue
                yield node, successor, dim

    def difference(self, u: Coord, v: Coord) -> Coord:
        """The group element ``v - u`` of Z_a x Z_b x Z_c."""
        a, b, c = self.shape
        return ((v[0] - u[0]) % a, (v[1] - u[1]) % b, (v[2] - u[2]) % c)

    def wraparound_edges(self) -> list[tuple[Coord, Coord]]:
        """The OCS-provided links (those joining index size-1 back to 0)."""
        wraps = []
        for u, v, _ in self.edges():
            for dim in range(3):
                size = self.shape[dim]
                if size < 3:
                    continue
                ends = {u[dim], v[dim]}
                if ends == {0, size - 1}:
                    wraps.append((u, v))
                    break
        return wraps
