"""Max-min fair rate allocation (progressive filling).

Given flows that each traverse a set of capacity-limited links, the
max-min fair allocation repeatedly saturates the most-constrained link,
freezes its flows at the bottleneck fair share, and recurses on the rest.
This is the standard fluid model for congestion-controlled networks and is
what the flow simulator recomputes once per timestamp at which its flow
set changed.

Each link keeps an integer active weight (its traversals by unfrozen
flows) that is decremented as flows freeze, and a heap keyed by (share,
scan position) finds each round's bottleneck, so a round costs the
links its frozen flows touch rather than a re-sum of every flow on
every link.  The bottleneck, freeze order and per-traversal subtraction
are those of the plain scan, so the rates are equal to its bit for bit.
"""

from __future__ import annotations

import heapq
import math
from typing import Hashable, Mapping, Sequence

from repro.errors import SimulationError

LinkId = Hashable


def max_min_fair_rates(
    flow_routes: Sequence[Sequence[LinkId]],
    capacities: Mapping[LinkId, float],
) -> list[float]:
    """Compute the max-min fair rate for each flow.

    Args:
        flow_routes: per flow, the links it traverses (loop-free; a flow
            using a link twice counts it twice).
        capacities: per-link capacity; every referenced link must appear
            with a finite, non-negative capacity.

    Returns one rate per flow, in input order.  Flows with empty routes
    (src == dst, purely local) get infinite rate represented as
    ``float('inf')``.

    Each round's bottleneck is the link with the smallest share, the
    earliest in order of first traversal on a tie; its active flows
    freeze in input order, and each charges its share once per
    traversal.

    >>> max_min_fair_rates([["a"], ["a"], ["a", "b"]], {"a": 3.0, "b": 0.5})
    [1.25, 1.25, 0.5]
    """
    # Links are numbered in order of first traversal (the scan order).
    index: dict[LinkId, int] = {}
    remaining: list[float] = []
    weight: list[int] = []
    flows_on: list[list[int]] = []   # distinct flows per link, input order
    paths: list[list[int]] = []
    for flow_id, route in enumerate(flow_routes):
        path = []
        for link in route:
            i = index.get(link)
            if i is None:
                if link not in capacities:
                    raise SimulationError(
                        f"flow {flow_id} uses unknown link {link}")
                capacity = float(capacities[link])
                if not (math.isfinite(capacity) and capacity >= 0):
                    raise SimulationError(
                        f"link {link} capacity must be finite and >= 0, "
                        f"got {capacity}")
                i = index[link] = len(remaining)
                remaining.append(capacity)
                weight.append(0)
                flows_on.append([])
            weight[i] += 1
            on_link = flows_on[i]
            if not on_link or on_link[-1] != flow_id:
                on_link.append(flow_id)
            path.append(i)
        paths.append(path)

    rates = [math.inf if not path else 0.0 for path in paths]
    frozen = [not path for path in paths]
    # Heap of (share, link): its minimum is the first link in scan order
    # with the smallest share.  Entries go stale as flows freeze; an
    # entry counts only while it still equals its link's current share.
    heap = [(remaining[i] / weight[i], i) for i in range(len(remaining))]
    heapq.heapify(heap)
    while heap:
        bottleneck_share, bottleneck = heapq.heappop(heap)
        active_weight = weight[bottleneck]
        if not active_weight or \
                remaining[bottleneck] / active_weight != bottleneck_share:
            continue
        for flow_id in flows_on[bottleneck]:
            if frozen[flow_id]:
                continue
            frozen[flow_id] = True
            rates[flow_id] = bottleneck_share
            # Charge this flow's rate against every link traversal.
            path = paths[flow_id]
            for i in path:
                remaining[i] = max(remaining[i] - bottleneck_share, 0.0)
                weight[i] -= 1
            for i in path:
                if weight[i]:
                    heapq.heappush(heap, (remaining[i] / weight[i], i))
    return rates
