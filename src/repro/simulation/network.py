"""The cycle-driven wormhole network engine.

Model (one cycle = one flit transfer per channel):

- every directed inter-switch link is a *channel* with a ``buffer_flits``
  FIFO at its receiving end; every host owns a dedicated injection channel
  into its switch; every switch has a bounded number of delivery channels
  (message drains);
- a message is a worm: a contiguous chain of channels it owns exclusively,
  with a per-channel flit count.  The header acquires at most one channel
  per cycle (random arbitration among contending headers; adaptive mode
  picks uniformly among the *free* legal shortest up*/down* ports); body
  flits pipeline behind at 1 flit/cycle per channel, stalling in place on
  backpressure — wormhole switching exactly;
- a channel is released when the tail flit has left it; delivery consumes
  1 flit/cycle once the header has been granted a delivery channel at the
  destination switch.

This is the **reference engine**: plain Python over per-``Message``
records, written for readability — it defines the cycle-level semantics.
The production hot path is the struct-of-arrays kernel in
:mod:`repro.simulation.engine_fast`, which replaces the per-message
chain/occupancy deques with preallocated flat arrays, skips quiescent
stretches, and is **bit-identical** to this engine (same RNG draw order,
same :class:`~repro.simulation.metrics.SimulationResult` payload for
every seed) — the substitution recorded in DESIGN.md and enforced by
``tests/simulation/test_engine_parity.py``.  Tail release here is O(1)
per channel (deque ``popleft``), so even the reference engine no longer
pays O(chain) per released channel.

Select an engine with ``SimulationConfig(engine="reference" | "fast")``
or build one directly; :func:`repro.simulation.engine.make_simulator`
dispatches for the sweeps, probes, figure drivers and the CLI.
"""

from __future__ import annotations

import heapq
import math
import random
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.obs import trace as _trace
from repro.routing.base import Phase
from repro.routing.tables import RoutingTable
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import EnginePerf, record_engine_metrics
from repro.simulation.message import Message
from repro.simulation.metrics import SimulationResult
from repro.simulation.traffic import TrafficPattern
from repro.util.stats import ReservoirSampler, RunningStats


class WormholeNetworkSimulator:
    """Simulate one (topology, routing, traffic, load) configuration.

    Parameters
    ----------
    routing_table:
        Precomputed :class:`~repro.routing.tables.RoutingTable`; carries the
        topology.
    traffic:
        Destination chooser (e.g. the paper's intracluster-uniform pattern).
    injection_rate:
        Messages per cycle per host (before per-host ``rate_scale``).
    config:
        Engine knobs; see :class:`~repro.simulation.config.SimulationConfig`.
    """

    ENGINE_NAME = "reference"

    def __init__(self, routing_table: RoutingTable, traffic: TrafficPattern,
                 injection_rate: float, config: SimulationConfig = SimulationConfig()):
        if injection_rate < 0:
            raise ValueError(f"injection_rate must be >= 0, got {injection_rate}")
        self.table = routing_table
        self.topology = routing_table.topology
        self.traffic = traffic
        self.rate = injection_rate
        self.config = config
        self.rng = random.Random(config.seed)

        topo = self.topology
        # --- channel layout ------------------------------------------------
        # Each directed inter-switch link carries `virtual_channels` VCs,
        # each its own buffered channel; the physical link still moves at
        # most one flit per cycle (per-cycle budget in `_move_flits`).
        # Injection channels (one per host) come after the link VCs.
        vcs = config.virtual_channels
        self.chan_of: Dict[Tuple[int, int], List[int]] = {}
        self.sink_switch: List[int] = []
        self.phys_of: List[int] = []   # physical-link id per channel
        phys = 0
        for u, v in topo.links:
            for a, b in ((u, v), (v, u)):
                cids = []
                for _ in range(vcs):
                    cids.append(len(self.sink_switch))
                    self.sink_switch.append(b)
                    self.phys_of.append(phys)
                self.chan_of[(a, b)] = cids
                phys += 1
        self.inj_base = len(self.sink_switch)
        for h in range(topo.num_hosts):
            self.sink_switch.append(topo.host_switch(h))
            self.phys_of.append(phys)
            phys += 1
        self.num_channels = len(self.sink_switch)
        self.num_physical = phys
        self._link_budget = [1] * self.num_physical
        self.owner: List[Optional[Message]] = [None] * self.num_channels

        self.avail_delivery = [max(1, topo.hosts_per_switch)] * topo.num_switches

        # --- host state ------------------------------------------------------
        self.queues: Dict[int, Deque[Message]] = {}
        self._arrivals: List[Tuple[int, int]] = []  # heap of (cycle, host)
        self._host_rate: Dict[int, float] = {}
        for h in traffic.active_hosts():
            r = injection_rate * traffic.rate_scale(h)
            if r > 1.0:
                raise ValueError(
                    f"host {h} injection rate {r} exceeds 1 message/cycle"
                )
            self.queues[h] = deque()
            self._host_rate[h] = r
            if r > 0:
                heapq.heappush(self._arrivals, (self._gap(r), h))

        # --- bookkeeping -----------------------------------------------------
        self.active: List[Message] = []
        self.cycle = 0
        self._next_mid = 0
        self.generated = 0
        self.flits_consumed_measured = 0
        self.latency_stats = RunningStats()
        self.total_latency_stats = RunningStats()
        self.latency_samples = ReservoirSampler(seed=config.seed)
        self.completed_in_window = 0
        self.trace: List[Tuple[int, int, int, int]] = []
        self.perf = EnginePerf()

    # ------------------------------------------------------------------ #
    # arrival process
    # ------------------------------------------------------------------ #

    def _gap(self, rate: float) -> int:
        """Geometric inter-arrival gap for a Bernoulli(rate) process, >= 1."""
        u = self.rng.random()
        return max(1, math.ceil(math.log(max(u, 1e-300)) / math.log1p(-rate))) \
            if rate < 1.0 else 1

    def _generate_arrivals(self) -> None:
        cap = self.config.queue_capacity
        while self._arrivals and self._arrivals[0][0] <= self.cycle:
            due, h = heapq.heappop(self._arrivals)
            q = self.queues[h]
            if len(q) >= cap:
                # Source throttled; retry next cycle without redrawing.
                heapq.heappush(self._arrivals, (self.cycle + 1, h))
                continue
            dst = self.traffic.dest_for(h, self.rng)
            topo = self.topology
            msg = Message(
                self._next_mid, h, dst, topo.host_switch(h),
                topo.host_switch(dst), self.config.message_length, self.cycle,
            )
            msg.phase = self.table.routing.initial_phase()
            self._next_mid += 1
            self.generated += 1
            if self.config.record_trace:
                self.trace.append((self.cycle, h, dst,
                                   self.config.message_length))
            q.append(msg)
            heapq.heappush(self._arrivals, (self.cycle + self._gap(self._host_rate[h]), h))

    def _start_injections(self) -> None:
        owner = self.owner
        for h, q in self.queues.items():
            if not q:
                continue
            cid = self.inj_base + h
            if owner[cid] is not None:
                continue
            msg = q.popleft()
            owner[cid] = msg
            msg.chain.append(cid)
            msg.occupancy.append(0)
            msg.injected_at = self.cycle
            self.active.append(msg)

    # ------------------------------------------------------------------ #
    # header arbitration
    # ------------------------------------------------------------------ #

    def _arbitrate(self) -> None:
        owner = self.owner
        chan_of = self.chan_of
        table = self.table
        rng = self.rng
        requests: Dict[int, List[Tuple[Message, int, Phase]]] = {}
        delivery_requests: Dict[int, List[Message]] = {}

        for m in self.active:
            if m.draining or not m.occupancy or m.occupancy[-1] == 0:
                continue
            if m.head_switch == m.dst_switch:
                delivery_requests.setdefault(m.head_switch, []).append(m)
                continue
            hops = table.hops(m.head_switch, m.phase, m.dst_switch)
            if not hops:
                raise RuntimeError(
                    f"no legal continuation for {m!r} at "
                    f"({m.head_switch}, {m.phase.name})"
                )
            if not self.config.adaptive:
                hops = hops[:1]
            free = [
                (cid, w, ph)
                for w, ph in hops
                for cid in chan_of[(m.head_switch, w)]
                if owner[cid] is None
            ]
            if not free:
                continue
            cid, w, ph = (free[rng.randrange(len(free))]
                          if len(free) > 1 else free[0])
            requests.setdefault(cid, []).append((m, w, ph))

        perf = self.perf
        for cid, reqs in requests.items():
            perf.arb_requests += 1
            if len(reqs) > 1:
                perf.arb_conflicts += 1
            m, w, ph = reqs[rng.randrange(len(reqs))] if len(reqs) > 1 else reqs[0]
            owner[cid] = m
            m.chain.append(cid)
            m.occupancy.append(0)
            m.head_switch = w
            m.phase = ph
            m.hops += 1

        for sw, reqs in delivery_requests.items():
            avail = self.avail_delivery[sw]
            if avail <= 0:
                continue
            if len(reqs) > avail:
                perf.delivery_conflicts += 1
                rng.shuffle(reqs)
                reqs = reqs[:avail]
            for m in reqs:
                m.draining = True
                self.avail_delivery[sw] -= 1

    # ------------------------------------------------------------------ #
    # flit movement
    # ------------------------------------------------------------------ #

    def _move_flits(self) -> None:
        cap = self.config.buffer_flits
        owner = self.owner
        phys_of = self.phys_of
        budget = self._link_budget
        for p in range(self.num_physical):
            budget[p] = 1
        measuring = (self.config.warmup_cycles <= self.cycle
                     < self.config.warmup_cycles + self.config.measure_cycles)
        completed: List[Message] = []

        # Rotate the service order so no worm persistently wins the shared
        # link budgets (only matters with virtual_channels > 1).
        active = self.active
        n_active = len(active)
        start = self.cycle % n_active if n_active else 0
        for k in range(n_active):
            m = active[(start + k) % n_active]
            occ = m.occupancy
            chain = m.chain

            # 1 flit/cycle delivery at the destination.
            if m.draining and occ and occ[-1] > 0:
                occ[-1] -= 1
                m.consumed += 1
                if measuring:
                    self.flits_consumed_measured += 1

            # Pipelined shift, head side first so a flit moves once per
            # cycle; entering channel i consumes its physical link's budget.
            for i in range(len(chain) - 1, 0, -1):
                if occ[i - 1] > 0 and occ[i] < cap:
                    p = phys_of[chain[i]]
                    if budget[p] > 0:
                        budget[p] -= 1
                        occ[i - 1] -= 1
                        occ[i] += 1

            # Source feeds the worm's first channel.
            if m.to_inject > 0 and occ and occ[0] < cap:
                p = phys_of[chain[0]]
                if budget[p] > 0:
                    budget[p] -= 1
                    occ[0] += 1
                    m.to_inject -= 1

            # Tail release: once the source is drained, empty tail channels
            # will never refill (flits only move forward).  O(1) per
            # channel: chain/occupancy are deques.
            while chain and m.to_inject == 0 and occ[0] == 0:
                owner[chain.popleft()] = None
                occ.popleft()

            if m.consumed >= m.length:
                m.completed_at = self.cycle
                m.draining = False
                self.avail_delivery[m.dst_switch] += 1
                if chain:  # pragma: no cover - invariant guard
                    raise AssertionError(f"completed message still holds {chain}")
                if measuring:
                    self.completed_in_window += 1
                    self.latency_stats.add(m.latency())
                    self.total_latency_stats.add(m.total_latency())
                    self.latency_samples.add(m.latency())
                completed.append(m)

        if completed:
            done = set(id(m) for m in completed)
            self.active = [m for m in self.active if id(m) not in done]

    # ------------------------------------------------------------------ #
    # main loop
    # ------------------------------------------------------------------ #

    def step(self) -> None:
        """Advance the network by one cycle."""
        perf = self.perf
        t0 = time.perf_counter()
        self._generate_arrivals()
        t1 = time.perf_counter()
        self._start_injections()
        t2 = time.perf_counter()
        self._arbitrate()
        t3 = time.perf_counter()
        self._move_flits()
        t4 = time.perf_counter()
        perf.arrivals_seconds += t1 - t0
        perf.injection_seconds += t2 - t1
        perf.arbitration_seconds += t3 - t2
        perf.flit_move_seconds += t4 - t3
        perf.cycles_executed += 1
        self.cycle += 1

    def run(self) -> SimulationResult:
        """Run warmup + measurement and return the measured point."""
        total = self.config.warmup_cycles + self.config.measure_cycles
        with _trace.span("engine.run", engine=self.ENGINE_NAME,
                         rate=self.rate, cycles=total) as sp:
            while self.cycle < total:
                self.step()
            result = self._result()
            sp.set(accepted=result.accepted_flits_per_switch_cycle,
                   avg_latency=result.avg_latency)
        record_engine_metrics(result)
        return result

    def _result(self) -> SimulationResult:
        n_sw = self.topology.num_switches
        measure = self.config.measure_cycles
        offered = sum(
            self._host_rate[h] * self.config.message_length
            for h in self._host_rate
        ) / n_sw
        accepted = self.flits_consumed_measured / measure / n_sw
        return SimulationResult(
            offered_flits_per_switch_cycle=offered,
            accepted_flits_per_switch_cycle=accepted,
            avg_latency=self.latency_stats.mean,
            latency=self.latency_stats,
            total_latency=self.total_latency_stats,
            latency_percentiles=self.latency_samples.percentiles(),
            messages_completed=self.completed_in_window,
            messages_generated=self.generated,
            flits_consumed_measured=self.flits_consumed_measured,
            cycles_measured=measure,
            warmup_cycles=self.config.warmup_cycles,
            meta={
                "topology": self.topology.name,
                "routing": self.table.routing.name,
                "rate_msgs_per_host_cycle": self.rate,
                "adaptive": self.config.adaptive,
                "engine": self.ENGINE_NAME,
                **self.perf.meta_counters(),
            },
            perf=self.perf.wall_times(),
        )

    # ------------------------------------------------------------------ #
    # invariants (used by tests)
    # ------------------------------------------------------------------ #

    def check_invariants(self) -> None:
        """Verify conservation and exclusivity; raises ``AssertionError``."""
        seen: Dict[int, int] = {}
        for m in self.active:
            assert len(m.chain) == len(m.occupancy), m
            assert sum(m.occupancy) == m.in_network, m
            for cid in m.chain:
                assert self.owner[cid] is m, (m, cid)
                assert cid not in seen, f"channel {cid} in two chains"
                seen[cid] = m.mid
            for k, cid in enumerate(m.chain):
                assert 0 <= m.occupancy[k] <= self.config.buffer_flits
        for cid, own in enumerate(self.owner):
            if own is not None and own not in self.active:
                raise AssertionError(f"channel {cid} owned by inactive message")


__all__ = ["WormholeNetworkSimulator"]
