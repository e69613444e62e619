"""Behavioural tests of the wormhole simulator."""

import math

import pytest

from repro.core.mapping import partition_to_mapping, random_partition, Workload
from repro.routing.tables import RoutingTable
from repro.routing.updown import UpDownRouting
from repro.simulation.config import SimulationConfig
from repro.simulation.network import WormholeNetworkSimulator
from repro.simulation.traffic import IntraClusterTraffic, UniformTraffic
from repro.topology.graph import Topology
from tests.topologies import ring_topology


def two_switch_table():
    topo = Topology(2, [(0, 1)], hosts_per_switch=2, switch_ports=4)
    return RoutingTable(UpDownRouting(topo, root=0))


class SingleShotTraffic:
    """Deterministic pattern: host 0 sends to a fixed destination."""

    def __init__(self, dst):
        self.dst = dst

    def dest_for(self, src_host, rng):
        return self.dst

    def active_hosts(self):
        return [0]

    def rate_scale(self, host):
        return 1.0


class TestBasicOperation:
    def test_zero_rate_idle(self, rtable16, topo16, workload16):
        part = random_partition([4] * 4, 16, seed=0)
        mapping = partition_to_mapping(part, workload16, topo16)
        cfg = SimulationConfig(warmup_cycles=10, measure_cycles=50)
        sim = WormholeNetworkSimulator(
            rtable16, IntraClusterTraffic(mapping), 0.0, cfg
        )
        res = sim.run()
        assert res.messages_generated == 0
        assert res.accepted_flits_per_switch_cycle == 0.0
        assert math.isnan(res.avg_latency)

    def test_rate_above_one_rejected(self, rtable16, topo16):
        with pytest.raises(ValueError):
            WormholeNetworkSimulator(
                rtable16, UniformTraffic(topo16), 1.5, SimulationConfig()
            )

    def test_negative_rate_rejected(self, rtable16, topo16):
        with pytest.raises(ValueError):
            WormholeNetworkSimulator(
                rtable16, UniformTraffic(topo16), -0.1, SimulationConfig()
            )

    def test_single_message_latency_cross_switch(self):
        """One unblocked message: latency ≈ hops + message length."""
        table = two_switch_table()
        cfg = SimulationConfig(message_length=8, buffer_flits=2,
                               warmup_cycles=0, measure_cycles=500, seed=1)
        # host 0 (switch 0) -> host 2 (switch 1)
        sim = WormholeNetworkSimulator(table, SingleShotTraffic(2), 0.02, cfg)
        res = sim.run()
        assert res.messages_completed >= 1
        # Path: injection channel + 1 link + delivery; pipeline depth small.
        assert 8 <= res.avg_latency <= 14

    def test_single_message_latency_same_switch(self):
        table = two_switch_table()
        cfg = SimulationConfig(message_length=8, warmup_cycles=0,
                               measure_cycles=500, seed=2)
        # host 0 -> host 1 both on switch 0.
        sim = WormholeNetworkSimulator(table, SingleShotTraffic(1), 0.02, cfg)
        res = sim.run()
        assert res.messages_completed >= 1
        assert 8 <= res.avg_latency <= 12

    def test_latency_grows_with_message_length(self):
        table = two_switch_table()
        lats = []
        for length in (4, 16):
            cfg = SimulationConfig(message_length=length, warmup_cycles=0,
                                   measure_cycles=1500, seed=3)
            sim = WormholeNetworkSimulator(table, SingleShotTraffic(2),
                                           0.01, cfg)
            lats.append(sim.run().avg_latency)
        assert lats[1] > lats[0] + 8  # ~12 extra flits at 1 flit/cycle

    def test_flit_conservation(self, rtable16, topo16, workload16):
        part = random_partition([4] * 4, 16, seed=1)
        mapping = partition_to_mapping(part, workload16, topo16)
        cfg = SimulationConfig(warmup_cycles=0, measure_cycles=400, seed=4)
        sim = WormholeNetworkSimulator(
            rtable16, IntraClusterTraffic(mapping), 0.01, cfg
        )
        res = sim.run()
        # Every measured flit belongs to a generated message.
        assert res.flits_consumed_measured <= \
            res.messages_generated * cfg.message_length
        assert res.messages_completed > 0

    def test_reproducible(self, rtable16, topo16, workload16):
        part = random_partition([4] * 4, 16, seed=2)
        mapping = partition_to_mapping(part, workload16, topo16)
        cfg = SimulationConfig(warmup_cycles=50, measure_cycles=300, seed=5)

        def run():
            sim = WormholeNetworkSimulator(
                rtable16, IntraClusterTraffic(mapping), 0.02, cfg
            )
            return sim.run()

        a, b = run(), run()
        assert a.flits_consumed_measured == b.flits_consumed_measured
        assert a.avg_latency == b.avg_latency


class TestLoadBehaviour:
    def test_accepted_tracks_offered_at_low_load(self, rtable16, topo16,
                                                 workload16):
        part = random_partition([4] * 4, 16, seed=3)
        mapping = partition_to_mapping(part, workload16, topo16)
        cfg = SimulationConfig(warmup_cycles=300, measure_cycles=1500, seed=6)
        sim = WormholeNetworkSimulator(
            rtable16, IntraClusterTraffic(mapping), 0.003, cfg
        )
        res = sim.run()
        ratio = (res.accepted_flits_per_switch_cycle
                 / res.offered_flits_per_switch_cycle)
        assert 0.9 < ratio < 1.1
        assert not res.saturated

    def test_saturation_at_high_load(self, rtable16, topo16, workload16):
        part = random_partition([4] * 4, 16, seed=3)
        mapping = partition_to_mapping(part, workload16, topo16)
        cfg = SimulationConfig(warmup_cycles=300, measure_cycles=1000, seed=7)
        sim = WormholeNetworkSimulator(
            rtable16, IntraClusterTraffic(mapping), 0.2, cfg
        )
        res = sim.run()
        assert res.saturated
        assert res.accepted_flits_per_switch_cycle < \
            res.offered_flits_per_switch_cycle

    def test_latency_increases_with_load(self, rtable16, topo16, workload16):
        part = random_partition([4] * 4, 16, seed=4)
        mapping = partition_to_mapping(part, workload16, topo16)
        lats = []
        for rate in (0.002, 0.02):
            cfg = SimulationConfig(warmup_cycles=200, measure_cycles=1000,
                                   seed=8)
            sim = WormholeNetworkSimulator(
                rtable16, IntraClusterTraffic(mapping), rate, cfg
            )
            lats.append(sim.run().avg_latency)
        assert lats[1] > lats[0]

    def test_deterministic_vs_adaptive(self, rtable16, topo16, workload16):
        # Adaptive routing should never be materially worse in saturation.
        part = random_partition([4] * 4, 16, seed=5)
        mapping = partition_to_mapping(part, workload16, topo16)
        acc = {}
        for adaptive in (False, True):
            cfg = SimulationConfig(warmup_cycles=300, measure_cycles=1200,
                                   adaptive=adaptive, seed=9)
            sim = WormholeNetworkSimulator(
                rtable16, IntraClusterTraffic(mapping), 0.1, cfg
            )
            acc[adaptive] = sim.run().accepted_flits_per_switch_cycle
        assert acc[True] >= 0.8 * acc[False]


class TestInvariants:
    def test_invariants_hold_throughout(self, rtable16, topo16, workload16):
        part = random_partition([4] * 4, 16, seed=6)
        mapping = partition_to_mapping(part, workload16, topo16)
        cfg = SimulationConfig(warmup_cycles=0, measure_cycles=300, seed=10)
        sim = WormholeNetworkSimulator(
            rtable16, IntraClusterTraffic(mapping), 0.05, cfg
        )
        for _ in range(300):
            sim.step()
            if sim.cycle % 10 == 0:
                sim.check_invariants()

    def test_delivery_tokens_restored_when_drained(self, rtable16, topo16,
                                                   workload16):
        part = random_partition([4] * 4, 16, seed=7)
        mapping = partition_to_mapping(part, workload16, topo16)
        cfg = SimulationConfig(warmup_cycles=0, measure_cycles=200, seed=11,
                               queue_capacity=4)
        sim = WormholeNetworkSimulator(
            rtable16, IntraClusterTraffic(mapping), 0.01, cfg
        )
        # Run a burst then let the network drain completely.
        for _ in range(200):
            sim.step()
        sim._host_rate = {h: 0.0 for h in sim._host_rate}
        sim._arrivals = []
        for _ in range(2000):
            sim.step()
            if not sim.active:
                break
        assert not sim.active, "network failed to drain (possible deadlock)"
        assert all(a == topo16.hosts_per_switch for a in sim.avail_delivery)
        assert all(o is None for o in sim.owner)

    def test_queue_capacity_bounds_memory(self, rtable16, topo16, workload16):
        part = random_partition([4] * 4, 16, seed=8)
        mapping = partition_to_mapping(part, workload16, topo16)
        cfg = SimulationConfig(warmup_cycles=0, measure_cycles=300, seed=12,
                               queue_capacity=3)
        sim = WormholeNetworkSimulator(
            rtable16, IntraClusterTraffic(mapping), 0.5, cfg
        )
        for _ in range(300):
            sim.step()
            assert all(len(q) <= 3 for q in sim.queues.values())
