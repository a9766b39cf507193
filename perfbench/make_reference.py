"""Regenerate ``reference.json``, the ECMP table the network checks use.

Run from the repository root::

    python3 perfbench/make_reference.py

It records, with full Brandes ECMP at the commit it runs on, the
per-node all-to-all throughput of every torus the network workload
analyses and the worst per-link load of every torus it simulates an
all-to-all on.  Regenerate it only when the expected values really
change; a faster ECMP must reproduce the table within ``ECMP_RTOL``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402
from repro.network.analytic import alltoall_analysis  # noqa: E402
from repro.topology.routing import max_edge_load  # noqa: E402
from repro.topology.torus import Torus3D  # noqa: E402
from repro.topology.twisted import TwistedTorus3D  # noqa: E402


def main() -> None:
    throughput = {}
    for twisted, base in workloads.ECMP_KINDS:
        for shape in workloads.permutations(base):
            topology = TwistedTorus3D(shape) if twisted else Torus3D(shape)
            analysis = alltoall_analysis(topology, workloads.LINK_BANDWIDTH)
            throughput[workloads.topology_key(twisted, shape)] = \
                analysis.per_node_throughput
    worst = {workloads.topology_key(False, shape):
             max_edge_load(Torus3D(shape))
             for shape in workloads.permutations(workloads.ALLTOALL_BASE)}
    table = {"link_bandwidth": workloads.LINK_BANDWIDTH,
             "ecmp_per_node_throughput": throughput,
             "ecmp_max_edge_load": worst}
    workloads.REFERENCE_PATH.write_text(
        json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
