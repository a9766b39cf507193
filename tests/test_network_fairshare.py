"""Tests for max-min fair allocation."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.network import max_min_fair_rates


def reference_max_min_fair_rates(flow_routes, capacities):
    """The plain progressive-filling scan, kept as the solver's oracle.

    Every round re-sums each link's active traversals and takes the first
    link, in order of first traversal, with the strictly smallest share.
    """
    remaining = {}
    usage_count = {}
    for flow_id, route in enumerate(flow_routes):
        for link in route:
            if link not in capacities:
                raise SimulationError(f"flow {flow_id} uses unknown link {link}")
            remaining.setdefault(link, float(capacities[link]))
            usage_count.setdefault(link, {})
            usage_count[link][flow_id] = usage_count[link].get(flow_id, 0) + 1

    for link, capacity in remaining.items():
        if capacity < 0:
            raise SimulationError(f"link {link} has negative capacity")

    rates = [0.0] * len(flow_routes)
    active = {flow_id for flow_id, route in enumerate(flow_routes) if route}
    for flow_id, route in enumerate(flow_routes):
        if not route:
            rates[flow_id] = float("inf")

    while active:
        bottleneck_share = None
        bottleneck_link = None
        for link, flows_on_link in usage_count.items():
            weight = sum(mult for fid, mult in flows_on_link.items()
                         if fid in active)
            if weight == 0:
                continue
            share = remaining[link] / weight
            if bottleneck_share is None or share < bottleneck_share:
                bottleneck_share = share
                bottleneck_link = link
        if bottleneck_link is None:
            break
        frozen = [fid for fid in usage_count[bottleneck_link] if fid in active]
        for flow_id in frozen:
            rates[flow_id] = bottleneck_share
            active.discard(flow_id)
            for link in flow_routes[flow_id]:
                remaining[link] = max(remaining[link] - bottleneck_share, 0.0)
    return rates


def bits(rates):
    """Rates as exact hex strings: equal lists are equal bit for bit."""
    return [rate.hex() for rate in rates]


@st.composite
def route_sets(draw):
    """Random route sets: repeated links, empty routes, zero-capacity
    links, duplicate routes and tied capacities."""
    num_links = draw(st.integers(1, 8))
    capacity = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 50e9]),
                         st.floats(0.0, 100.0, allow_nan=False))
    capacities = {f"l{i}": draw(capacity) for i in range(num_links)}
    link = st.sampled_from(sorted(capacities))
    routes = []
    for _ in range(draw(st.integers(0, 12))):
        if routes and draw(st.booleans()):
            routes.append(list(draw(st.sampled_from(routes))))
        else:
            routes.append(draw(st.lists(link, max_size=5)))
    return routes, capacities


class TestMaxMinFair:
    def test_single_flow_gets_capacity(self):
        assert max_min_fair_rates([["a"]], {"a": 10.0}) == [10.0]

    def test_equal_split(self):
        rates = max_min_fair_rates([["a"], ["a"]], {"a": 10.0})
        assert rates == [5.0, 5.0]

    def test_classic_bottleneck(self):
        # Flow 2 is pinned by link b; flows 0/1 split the leftovers of a.
        rates = max_min_fair_rates([["a"], ["a"], ["a", "b"]],
                                   {"a": 3.0, "b": 0.5})
        assert rates == [1.25, 1.25, 0.5]

    def test_empty_route_is_infinite(self):
        rates = max_min_fair_rates([[], ["a"]], {"a": 1.0})
        assert math.isinf(rates[0])
        assert rates[1] == 1.0

    def test_multi_traversal_counts_twice(self):
        # A flow crossing the link twice gets half the single-pass share.
        rates = max_min_fair_rates([["a", "a"]], {"a": 10.0})
        assert rates == [5.0]

    def test_unknown_link_raises(self):
        with pytest.raises(SimulationError):
            max_min_fair_rates([["zzz"]], {"a": 1.0})

    def test_negative_capacity_raises(self):
        with pytest.raises(SimulationError):
            max_min_fair_rates([["a"]], {"a": -1.0})

    def test_nan_capacity_raises(self):
        with pytest.raises(SimulationError, match="nan"):
            max_min_fair_rates([["a"]], {"a": math.nan})

    def test_infinite_capacity_raises(self):
        with pytest.raises(SimulationError, match="inf"):
            max_min_fair_rates([["a"]], {"a": math.inf})

    def test_parking_lot_fairness(self):
        # Chain topology: long flow through all links, short flows each.
        routes = [["l0", "l1", "l2"], ["l0"], ["l1"], ["l2"]]
        caps = {"l0": 1.0, "l1": 1.0, "l2": 1.0}
        rates = max_min_fair_rates(routes, caps)
        assert rates[0] == pytest.approx(0.5)
        assert rates[1:] == pytest.approx([0.5, 0.5, 0.5])

    @given(st.integers(1, 6), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_no_link_oversubscribed(self, num_flows, num_links):
        links = [f"l{i}" for i in range(num_links)]
        caps = {link: 1.0 + i for i, link in enumerate(links)}
        routes = [[links[(i + j) % num_links] for j in range((i % num_links) + 1)]
                  for i in range(num_flows)]
        rates = max_min_fair_rates(routes, caps)
        usage = {link: 0.0 for link in links}
        for route, rate in zip(routes, rates):
            for link in route:
                usage[link] += rate
        for link in links:
            assert usage[link] <= caps[link] + 1e-6

    @given(st.integers(2, 8))
    @settings(max_examples=10, deadline=None)
    def test_symmetric_flows_equal_rates(self, n):
        routes = [["shared"] for _ in range(n)]
        rates = max_min_fair_rates(routes, {"shared": 7.0})
        assert all(r == pytest.approx(7.0 / n) for r in rates)


class TestAgainstReference:
    """The incremental solver against the plain scan, compared exactly."""

    @pytest.mark.parametrize("routes, capacities", [
        ([["a"], ["a"], ["a", "b"]], {"a": 3.0, "b": 0.5}),
        ([["l0", "l1", "l2"], ["l0"], ["l1"], ["l2"]],
         {"l0": 1.0, "l1": 1.0, "l2": 1.0}),
        ([["a", "a", "b"], ["b", "a"], [], ["b"]], {"a": 7.0, "b": 0.3}),
        ([["a"], ["a"], ["a"]], {"a": 1.0}),
        ([["z", "a"], ["a"]], {"a": 5.0, "z": 0.0}),
    ])
    def test_fixtures(self, routes, capacities):
        assert bits(max_min_fair_rates(routes, capacities)) \
            == bits(reference_max_min_fair_rates(routes, capacities))

    @given(route_sets())
    @settings(max_examples=400, deadline=None)
    def test_equal_to_reference(self, case):
        routes, capacities = case
        got = max_min_fair_rates(routes, capacities)
        want = reference_max_min_fair_rates(routes, capacities)
        assert got == want
        assert bits(got) == bits(want)
