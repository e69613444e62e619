"""Tests for precomputed routing tables."""

from repro.routing.base import Phase
from repro.routing.minimal import MinimalRouting
from repro.routing.tables import RoutingTable


class TestRoutingTable:
    def test_matches_live_routing(self, routing16):
        table = RoutingTable(routing16)
        for dst in range(16):
            for src in range(16):
                for phase in (Phase.UP, Phase.DOWN):
                    assert table.hops(src, phase, dst) == \
                        routing16.next_hops(src, phase, dst)

    def test_path_length(self, routing16):
        # Following the table's first hop reaches 5 in d[0, 5] hops.
        table = RoutingTable(routing16)
        d = routing16.distances()
        current, phase, hops = 0, routing16.initial_phase(), 0
        while current != 5:
            current, phase = table.hops(current, phase, 5)[0]
            hops += 1
        assert hops == d[0, 5]

    def test_minimal_routing_table(self, topo16):
        r = MinimalRouting(topo16)
        table = RoutingTable(r)
        hops = table.hops(0, Phase.UP, 1)
        assert hops == r.next_hops(0, Phase.UP, 1)
