"""End-to-end integration tests across subsystem boundaries.

Each test exercises a realistic multi-package flow rather than one unit:
topology → routing → distance → search → mapping → simulation.
"""

import numpy as np
import pytest

from repro.core.mapping import Workload
from repro.core.scheduler import CommunicationAwareScheduler
from repro.distance.table import build_distance_table, hop_distance_table
from repro.routing.tables import RoutingTable
from repro.routing.updown import UpDownRouting
from repro.search.tabu import TabuSearch
from repro.simulation.config import SimulationConfig
from repro.simulation.network import WormholeNetworkSimulator
from repro.simulation.traffic import IntraClusterTraffic
from repro.topology.designed import four_rings_topology
from repro.topology.irregular import random_irregular_topology

QUICK = SimulationConfig(warmup_cycles=200, measure_cycles=800, seed=11)


class TestEndToEnd:
    def test_scheduled_mapping_beats_random_in_simulation(self):
        """The headline claim, end to end on a fresh topology."""
        topo = random_irregular_topology(12, seed=123)
        sched = CommunicationAwareScheduler(topo)
        workload = Workload.uniform(4, 12)
        op = sched.schedule(workload, seed=0)
        rnd = sched.random_schedule(workload, seed=99)
        rt = RoutingTable(sched.routing)

        rate = 0.08  # deep saturation for both mappings
        acc = {}
        for name, res in (("op", op), ("rnd", rnd)):
            sim = WormholeNetworkSimulator(
                rt, IntraClusterTraffic(res.mapping), rate, QUICK
            )
            acc[name] = sim.run().accepted_flits_per_switch_cycle
        assert acc["op"] > acc["rnd"], (
            f"scheduled mapping ({acc['op']:.3f}) must out-deliver random "
            f"({acc['rnd']:.3f})"
        )

    def test_c_c_ranks_mappings_by_throughput(self):
        """Clustering coefficient orders mappings like measured throughput."""
        topo = random_irregular_topology(12, seed=7)
        sched = CommunicationAwareScheduler(topo)
        workload = Workload.uniform(3, 16)
        results = [sched.schedule(workload, seed=0)] + [
            sched.random_schedule(workload, seed=s) for s in (1, 2)
        ]
        rt = RoutingTable(sched.routing)
        acc = []
        for res in results:
            sim = WormholeNetworkSimulator(
                rt, IntraClusterTraffic(res.mapping), 0.08, QUICK
            )
            acc.append(sim.run().accepted_flits_per_switch_cycle)
        c_cs = [r.c_c for r in results]
        # The best-C_c mapping must also be the best-throughput mapping.
        assert int(np.argmax(c_cs)) == int(np.argmax(acc)) == 0

    def test_planted_clusters_recovered_end_to_end(self):
        """On a topology with planted structure, Tabu finds the plant."""
        topo = four_rings_topology()
        sched = CommunicationAwareScheduler(topo)
        res = sched.schedule(Workload.uniform(4, 24), seed=0)
        planted = [tuple(range(6 * c, 6 * c + 6)) for c in range(4)]
        assert set(res.partition.clusters()) == set(planted)

    def test_hop_table_ablation_is_weaker_or_equal(self):
        """Using hop counts instead of equivalent distances never improves
        the achieved equivalent-distance objective."""
        topo = random_irregular_topology(12, seed=3)
        routing = UpDownRouting(topo)
        eq_table = build_distance_table(routing)
        hop_table = hop_distance_table(routing)
        workload = Workload.uniform(4, 12)

        sched_eq = CommunicationAwareScheduler(topo, routing=routing,
                                               table=eq_table)
        sched_hop = CommunicationAwareScheduler(topo, routing=routing,
                                                table=hop_table)
        res_eq = sched_eq.schedule(workload, seed=0)
        res_hop = sched_hop.schedule(workload, seed=0)
        # Score both partitions under the equivalent-distance criterion.
        f_eq = sched_eq.evaluate(res_eq.partition)["F_G"]
        f_hop = sched_eq.evaluate(res_hop.partition)["F_G"]
        assert f_eq <= f_hop + 1e-9

    def test_full_pipeline_deterministic(self):
        """Same seeds end to end -> identical measured numbers."""
        def run():
            topo = random_irregular_topology(10, seed=55)
            sched = CommunicationAwareScheduler(
                topo, search=TabuSearch(restarts=3)
            )
            res = sched.schedule(Workload.uniform(2, 20), seed=4)
            rt = RoutingTable(sched.routing)
            sim = WormholeNetworkSimulator(
                rt, IntraClusterTraffic(res.mapping), 0.02, QUICK
            )
            out = sim.run()
            return (res.f_g, out.flits_consumed_measured, out.avg_latency)

        assert run() == run()
