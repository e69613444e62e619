"""The struct-of-arrays wormhole kernel — fast engine.

Same cycle-level semantics as the reference engine
(:class:`repro.simulation.network.WormholeNetworkSimulator`), **bit-identical**
for every seed: the single ``random.Random(config.seed)`` stream is consumed
in exactly the reference order, so every ``SimulationResult`` payload matches
(the parity suite ``tests/simulation/test_engine_parity.py`` enforces this).

What is different is the representation and the work skipped:

- **Struct of arrays.**  No per-``Message`` objects: worm state lives in
  preallocated flat Python lists indexed by *slot* (``to_inject``,
  ``consumed``, ``head_switch`` ...).  Each slot owns a fixed-width row of
  two flat arrays — held channel ids and per-channel flit counts — addressed
  by a tail column that only advances (channel release) and a head column
  that only advances (channel acquisition), so chain append and tail release
  are O(1) index bumps with no allocation.  A columnar NumPy shift kernel was
  prototyped and rejected by measurement: at the worm counts these networks
  sustain (tens), scalar flat-list indexing beats ``ndarray`` element access
  by ~4x, and the in-worm shift is a backward-dependent scan that does not
  vectorize cleanly (a flit draining at the head frees buffer space that the
  same cycle's upstream flits may enter).

- **Worm dormancy.**  A worm whose header lost no arbitration draw (its
  candidate channels were *all* owned, or its destination had zero
  delivery channels available — both cases consume no RNG in the
  reference engine) and whose flits cannot move is put to sleep.
  It is woken by watcher lists the moment one of its candidate channels is
  released or a delivery channel frees up at its destination switch; stale
  watcher entries are invalidated by per-slot epoch counters.  At saturation
  the vast majority of worms are blocked most cycles, so this removes most
  per-cycle work.

- **Sealed drains.**  Once a worm acquires a delivery channel its
  remaining trajectory is deterministic: the chain is frozen (no further
  arbitration, no RNG), the head consumes one flit per cycle whenever one
  is buffered, and exclusive ownership decouples it from every other worm.  The engine therefore *seals* it — the whole remainder
  (drain cycles, tail releases, completion cycle) is computed once in a
  tight local loop, channel releases are replayed as timed events at the
  top of the cycle where the reference-freed channel first becomes
  observable, and the worm drops out of per-cycle processing entirely.
  Measured-window flit consumption is credited in bulk with an exact
  per-cycle window test, and completion statistics are recorded at the
  true completion cycle in the reference rotation order.

- **Arrival parking.**  The reference engine re-pushes a throttled host's
  heap entry every cycle while its queue is full.  Here the host is parked
  and re-enters the heap (same ``(cycle + 1, host)`` entry the reference
  would have live) when an injection frees a queue slot — identical pop
  order, identical draws, no per-cycle heap churn in deep saturation.

- **Quiescence skipping** (``run()`` only; ``step()`` never skips).  When no
  worm is active, no message is queued and the next arrival lies in the
  future, every intervening cycle is a no-op in the reference engine —
  ``cycle`` jumps straight to the next arrival deadline and the jump is
  recorded in ``perf.cycles_skipped``.

- **Candidate caching.**  The ``(head_switch, phase, dst)`` → free-channel
  candidate list (in hop order, the reference construction order) is
  memoised, replacing the per-cycle routing-table walk and channel-map
  lookups.

The kernel models the paper's setting, one virtual channel per link, and
its constructor rejects anything else.  Construct via
:func:`repro.simulation.engine.make_simulator` with
``SimulationConfig(engine="fast")`` (the default); ``make_simulator`` runs
multi-VC configurations on the reference engine.
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
from repro.simulation.metrics import SimulationResult
from repro.simulation.traffic import TrafficPattern
from repro.util.stats import ReservoirSampler, RunningStats


class FastWormholeNetworkSimulator:
    """Struct-of-arrays engine; drop-in, bit-identical reference replacement.

    Parameters match :class:`~repro.simulation.network.WormholeNetworkSimulator`.
    """

    ENGINE_NAME = "fast"

    def __init__(self, routing_table: RoutingTable, traffic: TrafficPattern,
                 injection_rate: float, config: SimulationConfig = SimulationConfig()):
        if injection_rate < 0:
            raise ValueError(f"injection_rate must be >= 0, got {injection_rate}")
        if config.virtual_channels != 1:
            raise ValueError(
                "FastWormholeNetworkSimulator requires virtual_channels"
                " == 1; build via make_simulator, which runs multi-VC"
                " configs on the reference engine"
            )
        self.table = routing_table
        self.topology = routing_table.topology
        self.traffic = traffic
        self.rate = injection_rate
        self.config = config
        self.rng = random.Random(config.seed)

        topo = self.topology
        # --- channel layout: identical ids to the reference engine ----------
        # One channel per directed link, then one injection channel per host.
        self.chan_of: Dict[Tuple[int, int], int] = {}
        cid = 0
        for u, v in topo.links:
            for a, b in ((u, v), (v, u)):
                self.chan_of[(a, b)] = cid
                cid += 1
        self.inj_base = cid
        self._host_switch: List[int] = [topo.host_switch(h)
                                        for h in range(topo.num_hosts)]
        self.num_channels = cid + topo.num_hosts
        # Channel owner as a slot index; -1 = free.
        self.owner: List[int] = [-1] * self.num_channels

        self.avail_delivery = [max(1, topo.hosts_per_switch)] * topo.num_switches

        # --- host state ------------------------------------------------------
        # Queue entries are (mid, dst_host, generated_cycle) tuples.
        self.queues: Dict[int, Deque[Tuple[int, int, int]]] = {}
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
        self._queued_total = 0
        # Injection ready set: h is a member iff its queue is non-empty AND
        # its injection channel is free — exactly the hosts the reference
        # engine's full queue scan would inject this cycle.  Iterated in
        # queues-dict order via _host_pos so worms join ``order`` in the
        # reference sequence.
        self._inj_ready: set = set()
        self._host_pos = {h: i for i, h in enumerate(self.queues)}
        # Host-indexed mirrors of the dicts above for the hot loops (list
        # indexing beats dict hashing); only active hosts' entries are
        # ever touched.
        nh = topo.num_hosts
        self._queue_list: List[Optional[Deque[Tuple[int, int, int]]]] = \
            [None] * nh
        self._parked_list = [False] * nh
        for h, q in self.queues.items():
            self._queue_list[h] = q

        # --- worm slots (struct of arrays) -----------------------------------
        # Every active worm owns >= 1 channel, so num_channels slots suffice;
        # +1 keeps the free list non-empty at the theoretical maximum.
        n_slots = self.num_channels + 1
        self._n_slots = n_slots
        # Chain rows: head column only advances (one bump per acquired
        # channel; shortest legal continuations bound acquisitions by the
        # switch count + the injection channel), tail column only advances
        # (release).  Width leaves slack so the overflow guard never fires
        # on legal routes.
        self._row_w = row_w = topo.num_switches + 4
        self._chain = [0] * (n_slots * row_w)
        self._occ = [0] * (n_slots * row_w)
        self._tcol = [0] * n_slots          # absolute index of the tail entry
        self._clen = [0] * n_slots          # held-channel count
        self._to_inject = [0] * n_slots
        self._consumed = [0] * n_slots
        self._head_sw = [0] * n_slots
        self._dst_sw = [0] * n_slots
        self._phase: List[Phase] = [Phase.UP] * n_slots
        self._draining = [False] * n_slots
        self._injected_at = [0] * n_slots
        self._generated_at = [0] * n_slots
        self._awake = [False] * n_slots
        self._epoch = [0] * n_slots
        self._arb_blocked = [0] * n_slots   # 0 none / 1 head / 2 delivery
        self._sealed = [False] * n_slots
        self._free_slots = list(range(n_slots - 1, -1, -1))
        #: Active worm slots, in the reference engine's ``self.active`` order.
        self.order: List[int] = []
        # The non-sealed subsequence of ``order``: the only slots the
        # per-cycle scan must visit (sealed worms are replayed, dormant
        # ones are skipped by their awake flag).  Freshly sealed slots
        # linger until the next completion batch compacts the list.
        self._live: List[int] = []

        # Dormancy wake watchers: lists of (slot, epoch) pairs.
        self._chan_watch: List[List[Tuple[int, int]]] = \
            [[] for _ in range(self.num_channels)]
        self._deliv_watch: List[List[Tuple[int, int]]] = \
            [[] for _ in range(topo.num_switches)]

        # Sealed-drain replay state: channel-release events applied at the
        # top of their cycle, completion events popped during the move
        # phase, and the completion-cycle releases of each sealed slot
        # (those are applied when the completion pops, which is exactly
        # when the reference engine frees them).
        # cycle -> channel ids freed at the top of that cycle.  A dict, not
        # a heap: while any entry is pending its worm's completion event
        # keeps ``order`` non-empty, so no cycle is skipped and every key
        # is visited exactly at its own cycle.  Within-cycle order is
        # unobservable (releases only clear ``owner`` and fire idempotent
        # wakes), so a plain list per cycle suffices.
        self._release_events: Dict[int, List[int]] = {}
        self._completions_due: List[Tuple[int, int]] = []   # (cycle, slot)
        self._final_cids: Dict[int, List[int]] = {}
        # Per-host log1p(-rate) for the inlined geometric gap draw; 0.0
        # flags rate >= 1 (gap is the constant 1, but the draw still
        # happens — the reference consumes u before branching).
        self._gap_denom = [0.0] * topo.num_hosts
        for h, r in self._host_rate.items():
            if r < 1.0:
                self._gap_denom[h] = math.log1p(-r)

        # (head_switch, phase, dst) -> ((cid, neighbor, phase), ...) in the
        # reference free-list construction order (hop order).  Shared
        # across every engine instance on this routing table (the content
        # is a pure function of table + adaptive), so a second simulator
        # starts with the store already warm.
        self._cand_cache: Dict[Tuple[int, Phase, int],
                               Tuple[Tuple[int, int, Phase], ...]] = \
            routing_table.candidate_cache(config.adaptive)
        # Per-slot memo of the current (head_switch, phase, dst) candidate
        # tuple, refreshed at injection and at every hop grant — the only
        # places the key can change — so the per-cycle arbitration scan
        # indexes a list instead of hashing a fresh key tuple.
        self._slot_cands: List[Tuple[Tuple[int, int, Phase], ...]] = \
            [()] * n_slots
        self._initial_phase = routing_table.routing.initial_phase()

        # --- bookkeeping -----------------------------------------------------
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

    # ------------------------------------------------------------------ #
    # header arbitration
    # ------------------------------------------------------------------ #

    def _candidates(self, head_sw: int, phase: Phase,
                    dst_sw: int) -> Tuple[Tuple[int, int, Phase], ...]:
        key = (head_sw, phase, dst_sw)
        cands = self._cand_cache.get(key)
        if cands is None:
            hops = self.table.hops(head_sw, phase, dst_sw)
            if not hops:
                raise RuntimeError(
                    f"no legal continuation toward switch {dst_sw} at "
                    f"({head_sw}, {phase.name})"
                )
            if not self.config.adaptive:
                hops = hops[:1]
            cands = tuple((self.chan_of[(head_sw, w)], w, ph)
                          for w, ph in hops)
            self._cand_cache[key] = cands
        return cands

    # ------------------------------------------------------------------ #
    # flit movement
    # ------------------------------------------------------------------ #

    def _seal(self, slot: int, cycle: int) -> None:
        """Fast-forward a draining worm's deterministic remainder.

        With one virtual channel a draining worm is fully decoupled: its
        chain is frozen (no further arbitration, no RNG), the head drains
        one flit per cycle whenever one is buffered, and exclusive channel
        ownership means no other worm can touch its state.  The whole
        remaining trajectory is replayed here in a local loop over a copy
        of the worm's occupancy row.  A channel freed during the reference
        move phase of cycle ``r`` is first observable at the top of cycle
        ``r + 1``, so releases become heap events applied there; releases
        on the completion cycle are applied when the completion event pops
        (the reference frees them in the same move phase that records the
        completion).  Measured-window consumption is credited in bulk with
        an exact per-cycle window test — sealed worms keep ``order``
        non-empty, so no quiescence skip can jump the window.
        """
        t = self._tcol[slot]
        c = self._clen[slot]
        chain = self._chain
        locc = self._occ[t:t + c]
        ti = self._to_inject[slot]
        cons = self._consumed[slot]
        cap = self.config.buffer_flits
        length = self.config.message_length
        w0 = self.config.warmup_cycles
        w1 = w0 + self.config.measure_cycles

        if min(locc) > 0:
            # Bubble-free pipe: a perfect conveyor.  The head consumes one
            # flit every cycle (its feeder is never empty), which frees one
            # downstream slot per cycle, so *every* channel forwards one
            # flit per cycle until it has passed everything behind it —
            # channel j (tail-first) forwards ``S_j = to_inject +
            # occ[0..j]`` flits and empties on cycle ``cycle + S_j - 1``.
            # S is strictly increasing (every occ >= 1), so only the head
            # channel releases on the completion cycle.  The whole schedule
            # is closed-form: O(chain) instead of O(flits * chain).
            rem = ti + sum(locc)
            comp_c = cycle + rem - 1
            lo = cycle if cycle > w0 else w0
            hi = comp_c if comp_c < w1 - 1 else w1 - 1
            events = self._release_events
            final: List[int] = []
            s = ti
            for j in range(c):
                s += locc[j]
                r = cycle + s - 1
                if r < comp_c:
                    el = events.get(r + 1)
                    if el is None:
                        events[r + 1] = [chain[t + j]]
                    else:
                        el.append(chain[t + j])
                else:
                    final.append(chain[t + j])
            self.flits_consumed_measured += hi - lo + 1 if hi >= lo else 0
            self._final_cids[slot] = final
            heapq.heappush(self._completions_due, (comp_c, slot))
            self._sealed[slot] = True
            self._awake[slot] = False
            self._epoch[slot] += 1
            self._live.remove(slot)
            return

        meas = 0
        releases: List[Tuple[int, int]] = []
        tl = 0
        hl = c - 1
        k = cycle
        limit = cycle + (c + 2) * length + 8
        while True:
            # Same within-cycle order as the reference move phase:
            # drain, head-first shift, source injection, tail release.
            if locc[hl] > 0:
                locc[hl] -= 1
                cons += 1
                if w0 <= k < w1:
                    meas += 1
            for i in range(hl, tl, -1):
                if locc[i - 1] > 0 and locc[i] < cap:
                    locc[i - 1] -= 1
                    locc[i] += 1
            if ti > 0 and locc[tl] < cap:
                locc[tl] += 1
                ti -= 1
            while tl <= hl and ti == 0 and locc[tl] == 0:
                releases.append((k, chain[t + tl]))
                tl += 1
            if cons >= length:
                break
            k += 1
            if k > limit:  # pragma: no cover - progress guard
                raise AssertionError(f"sealed worm {slot} failed to drain")
        if tl != hl + 1:  # pragma: no cover - invariant guard
            raise AssertionError(
                f"sealed worm {slot} completed still holding channels"
            )
        self.flits_consumed_measured += meas
        events = self._release_events
        final: List[int] = []
        for r, cid in releases:
            if r < k:
                el = events.get(r + 1)
                if el is None:
                    events[r + 1] = [cid]
                else:
                    el.append(cid)
            else:
                final.append(cid)
        self._final_cids[slot] = final
        heapq.heappush(self._completions_due, (k, slot))
        self._sealed[slot] = True
        self._awake[slot] = False
        self._epoch[slot] += 1  # invalidate stale watcher entries
        self._live.remove(slot)

    def _finish_completions(self, completions: List[Tuple[int, int, int]],
                            measuring: bool, cycle: int) -> None:
        """Record completion statistics in the reference rotation order and
        recycle the finished slots.

        ``completions`` holds ``(rotation_key, slot, raw_order_index)``
        triples; sorting by rotation key reproduces the reference's
        statistics order, and the raw indices let the finished slots be
        deleted from ``order`` without re-scanning it.
        """
        completions.sort()
        if measuring:
            # RunningStats.add and ReservoirSampler.add inlined — same
            # arithmetic, same draw logic — this runs once per delivered
            # message and the call overhead is measurable at saturation.
            ls = self.latency_stats
            ts = self.total_latency_stats
            res = self.latency_samples
            sample = res._sample
            rcap = res.capacity
            res_rand = res._rng.randrange
            injected_at = self._injected_at
            generated_at = self._generated_at
            self.completed_in_window += len(completions)
            for _, slot, _ in completions:
                lat = cycle - injected_at[slot]
                n = ls.count + 1
                ls.count = n
                delta = lat - ls._mean
                m = ls._mean + delta / n
                ls._mean = m
                ls._m2 += delta * (lat - m)
                if lat < ls._min:
                    ls._min = lat
                if lat > ls._max:
                    ls._max = lat
                tot = cycle - generated_at[slot]
                n = ts.count + 1
                ts.count = n
                delta = tot - ts._mean
                m = ts._mean + delta / n
                ts._mean = m
                ts._m2 += delta * (tot - m)
                if tot < ts._min:
                    ts._min = tot
                if tot > ts._max:
                    ts._max = tot
                rc = res.count + 1
                res.count = rc
                if len(sample) < rcap:
                    sample.append(lat)
                else:
                    j = res_rand(rc)
                    if j < rcap:
                        sample[j] = lat
        order = self.order
        for _, slot, _ in completions:
            self._awake[slot] = False
            self._sealed[slot] = False
            self._draining[slot] = False
            self._epoch[slot] += 1  # invalidate any stale watcher entries
            self._free_slots.append(slot)
        if len(completions) == 1:
            del order[completions[0][2]]
        else:
            for idx in sorted((comp[2] for comp in completions),
                              reverse=True):
                del order[idx]

    # ------------------------------------------------------------------ #
    # main loop
    # ------------------------------------------------------------------ #

    def step(self) -> None:
        """Advance the network by exactly one cycle (never skips)."""
        self._advance(self.cycle + 1, False)

    def run(self) -> SimulationResult:
        """Run warmup + measurement and return the measured point.

        Quiescent stretches — no active worm, nothing queued, no pending
        sealed-release event, next arrival in the future — are provable
        no-ops in the reference engine (no heap pop, no injection, no
        arbitration, no movement, no RNG draw), so the clock jumps
        straight to the next arrival deadline.
        """
        total = self.config.warmup_cycles + self.config.measure_cycles
        with _trace.span("engine.run", engine=self.ENGINE_NAME,
                         rate=self.rate, cycles=total) as sp:
            self._advance(total, True)
            result = self._result()
            sp.set(accepted=result.accepted_flits_per_switch_cycle,
                   avg_latency=result.avg_latency)
        record_engine_metrics(result)
        return result

    def _advance(self, target: int, allow_skip: bool) -> None:
        """The batched kernel.

        One locals-hoisted loop runs every cycle up to ``target`` with the
        four reference phases inlined (arrivals, injections, arbitration,
        movement), sealing worms the cycle they acquire a delivery channel
        and — when ``allow_skip`` — jumping quiescent stretches.  Phase
        wall-times and arbitration counters accumulate in locals and are
        flushed to ``self.perf`` once on exit.
        """
        perf = self.perf
        perf_counter = time.perf_counter
        rng = self.rng
        rng_random = rng.random
        rng_randrange = rng.randrange
        rng_shuffle = rng.shuffle
        heappush = heapq.heappush
        heappop = heapq.heappop
        ceil = math.ceil
        log = math.log

        cfg = self.config
        cap = cfg.buffer_flits
        length = cfg.message_length
        qcap = cfg.queue_capacity
        record = cfg.record_trace
        w0 = cfg.warmup_cycles
        w1 = w0 + cfg.measure_cycles

        owner = self.owner
        arrivals = self._arrivals
        queues = self._queue_list
        parked = self._parked_list
        gap_denom = self._gap_denom
        traffic_dest = self.traffic.dest_for
        trace = self.trace
        inj_base = self.inj_base
        inj_ready = self._inj_ready
        host_pos_get = self._host_pos.__getitem__
        host_switch = self._host_switch
        free_slots = self._free_slots
        row_w = self._row_w
        initial_phase = self._initial_phase

        chain = self._chain
        occ = self._occ
        tcol = self._tcol
        clen = self._clen
        to_inject = self._to_inject
        consumed = self._consumed
        head_sw = self._head_sw
        dst_sw = self._dst_sw
        phase = self._phase
        draining = self._draining
        injected_at = self._injected_at
        generated_at = self._generated_at
        awake = self._awake
        arb_blocked = self._arb_blocked
        sealed = self._sealed
        epoch = self._epoch
        avail_delivery = self.avail_delivery
        cand_cache = self._cand_cache
        slot_cands = self._slot_cands
        chan_watch = self._chan_watch
        deliv_watch = self._deliv_watch
        events = self._release_events
        comp_due = self._completions_due
        final_cids = self._final_cids

        live = self._live
        order = self.order
        cycle = self.cycle
        queued_total = self._queued_total
        next_mid = self._next_mid
        generated = self.generated

        t_arr = t_inj = t_arb = t_mov = 0.0
        executed = 0
        skipped = 0
        arb_requests = 0
        arb_conflicts = 0
        delivery_conflicts = 0
        consumed_measured = 0

        while cycle < target:
            # Sealed worms keep ``order`` non-empty until their completion
            # event pops, and their release events all land by then, so an
            # empty order + empty queues + empty event heap really is
            # quiescent.
            if allow_skip and not order and queued_total == 0 and not events:
                nxt = arrivals[0][0] if arrivals else target
                if nxt > cycle:
                    new_c = nxt if nxt < target else target
                    skipped += new_c - cycle
                    cycle = new_c
                    if cycle >= target:
                        break

            t0 = perf_counter()

            # ---- sealed channel releases due this cycle -----------------
            # The reference frees these during the previous cycle's move
            # phase; nothing observes them before this point.
            if events:
                rel = events.pop(cycle, None)
                if rel is not None:
                    for cid in rel:
                        owner[cid] = -1
                        wl = chan_watch[cid]
                        if wl:
                            for s2, e2 in wl:
                                if epoch[s2] == e2:
                                    awake[s2] = True
                                    epoch[s2] = e2 + 1
                            wl.clear()
                        if cid >= inj_base and queues[cid - inj_base]:
                            inj_ready.add(cid - inj_base)

            # ---- arrivals -----------------------------------------------
            while arrivals and arrivals[0][0] <= cycle:
                h = heappop(arrivals)[1]
                q = queues[h]
                if len(q) >= qcap:
                    parked[h] = True
                    continue
                dst = traffic_dest(h, rng)
                mid = next_mid
                next_mid += 1
                generated += 1
                if record:
                    trace.append((cycle, h, dst, length))
                q.append((mid, dst, cycle))
                queued_total += 1
                if owner[inj_base + h] < 0:
                    inj_ready.add(h)
                u = rng_random()
                d = gap_denom[h]
                if d:
                    gap = ceil(log(u if u > 1e-300 else 1e-300) / d)
                    if gap < 1:
                        gap = 1
                else:
                    gap = 1
                heappush(arrivals, (cycle + gap, h))

            t1 = perf_counter()

            # ---- injections ---------------------------------------------
            if inj_ready:
                # Reference injection order is host order; a single ready
                # host (the common case) needs no sort.
                for h in (inj_ready if len(inj_ready) == 1
                          else sorted(inj_ready, key=host_pos_get)):
                    q = queues[h]
                    cid = inj_base + h
                    mid, dst, gen_at = q.popleft()
                    queued_total -= 1
                    if parked[h]:
                        parked[h] = False
                        heappush(arrivals, (cycle + 1, h))
                    slot = free_slots.pop()
                    base = slot * row_w
                    chain[base] = cid
                    occ[base] = 0
                    tcol[slot] = base
                    clen[slot] = 1
                    to_inject[slot] = length
                    consumed[slot] = 0
                    hs_i = host_switch[h]
                    ds_i = host_switch[dst]
                    head_sw[slot] = hs_i
                    dst_sw[slot] = ds_i
                    phase[slot] = initial_phase
                    if hs_i != ds_i:
                        nc = cand_cache.get((hs_i, initial_phase, ds_i))
                        slot_cands[slot] = (
                            nc if nc is not None
                            else self._candidates(hs_i, initial_phase, ds_i))
                    draining[slot] = False
                    injected_at[slot] = cycle
                    generated_at[slot] = gen_at
                    awake[slot] = True
                    arb_blocked[slot] = 0
                    owner[cid] = slot
                    order.append(slot)
                    live.append(slot)
                inj_ready.clear()

            t2 = perf_counter()

            # ---- arbitration --------------------------------------------
            # ``live`` is the non-sealed subsequence of ``order``, so this
            # scan visits exactly the worms the reference arbitrates over,
            # in the reference sequence; dormant ones fail the awake flag.
            awake_list = [s for s in live if awake[s]]

            if awake_list:
                requests: Dict[int, List[Tuple[int, int, Phase]]] = {}
                delivery_requests: Dict[int, List[int]] = {}

                for slot in awake_list:
                    c = clen[slot]
                    if draining[slot] or c == 0 or occ[tcol[slot] + c - 1] == 0:
                        continue
                    hs = head_sw[slot]
                    ds = dst_sw[slot]
                    arb_blocked[slot] = 0
                    if hs == ds:
                        dr = delivery_requests.get(hs)
                        if dr is None:
                            delivery_requests[hs] = [slot]
                        else:
                            dr.append(slot)
                        continue
                    free = [cand for cand in slot_cands[slot]
                            if owner[cand[0]] < 0]
                    if not free:
                        arb_blocked[slot] = 1
                        continue
                    cid, w, ph = (free[rng_randrange(len(free))]
                                  if len(free) > 1 else free[0])
                    r = requests.get(cid)
                    if r is None:
                        requests[cid] = [(slot, w, ph)]
                    else:
                        r.append((slot, w, ph))

                for cid, reqs in requests.items():
                    arb_requests += 1
                    if len(reqs) > 1:
                        arb_conflicts += 1
                        slot, w, ph = reqs[rng_randrange(len(reqs))]
                    else:
                        slot, w, ph = reqs[0]
                    owner[cid] = slot
                    j = tcol[slot] + clen[slot]
                    if j >= (slot + 1) * row_w:  # pragma: no cover - guard
                        raise AssertionError(
                            f"chain row overflow for slot {slot}"
                        )
                    chain[j] = cid
                    occ[j] = 0
                    clen[slot] += 1
                    head_sw[slot] = w
                    phase[slot] = ph
                    ds = dst_sw[slot]
                    if w != ds:
                        key = (w, ph, ds)
                        nc = cand_cache.get(key)
                        slot_cands[slot] = (nc if nc is not None
                                            else self._candidates(w, ph, ds))

                for sw, reqs in delivery_requests.items():
                    avail = avail_delivery[sw]
                    if avail <= 0:
                        for slot in reqs:
                            arb_blocked[slot] = 2
                        continue
                    if len(reqs) > avail:
                        delivery_conflicts += 1
                        rng_shuffle(reqs)
                        reqs = reqs[:avail]
                    for slot in reqs:
                        draining[slot] = True
                        avail_delivery[sw] -= 1

            t3 = perf_counter()

            # ---- movement -----------------------------------------------
            n_active = len(order)
            start = cycle % n_active if n_active else 0
            completions: Optional[List[Tuple[int, int, int]]] = None

            for slot in awake_list:
                if draining[slot]:
                    # Delivery granted this cycle: the rest of this worm's
                    # life is deterministic — replay it once and move on.
                    # Common case inline: a bubble-free pipe is a perfect
                    # conveyor with a closed-form schedule (derivation on
                    # ``_seal``, which also handles the bubbled fallback).
                    t = tcol[slot]
                    c = clen[slot]
                    row = occ[t:t + c]
                    if 0 in row:
                        self._seal(slot, cycle)
                        continue
                    s_acc = to_inject[slot]
                    comp_c = cycle + s_acc + sum(row) - 1
                    lo = cycle if cycle > w0 else w0
                    hi = comp_c if comp_c < w1 - 1 else w1 - 1
                    if hi >= lo:
                        consumed_measured += hi - lo + 1
                    fin: List[int] = []
                    for j in range(c):
                        s_acc += row[j]
                        r = cycle + s_acc - 1
                        if r < comp_c:
                            el = events.get(r + 1)
                            if el is None:
                                events[r + 1] = [chain[t + j]]
                            else:
                                el.append(chain[t + j])
                        else:
                            fin.append(chain[t + j])
                    final_cids[slot] = fin
                    heappush(comp_due, (comp_c, slot))
                    sealed[slot] = True
                    awake[slot] = False
                    epoch[slot] += 1
                    live.remove(slot)
                    continue
                t = tcol[slot]
                c = clen[slot]
                moved = False

                # Pipelined shift, head side first so each flit moves at
                # most once per cycle (non-draining worms never consume).
                if c > 1:
                    for i in range(t + c - 1, t, -1):
                        if occ[i - 1] > 0 and occ[i] < cap:
                            occ[i - 1] -= 1
                            occ[i] += 1
                            moved = True

                ti = to_inject[slot]
                if ti > 0 and occ[t] < cap:
                    occ[t] += 1
                    ti -= 1
                    to_inject[slot] = ti
                    moved = True

                while c and ti == 0 and occ[t] == 0:
                    cid = chain[t]
                    owner[cid] = -1
                    wl = chan_watch[cid]
                    if wl:
                        for s2, e2 in wl:
                            if epoch[s2] == e2:
                                awake[s2] = True
                                epoch[s2] = e2 + 1
                        wl.clear()
                    if cid >= inj_base and queues[cid - inj_base]:
                        inj_ready.add(cid - inj_base)
                    t += 1
                    c -= 1
                    moved = True
                tcol[slot] = t
                clen[slot] = c

                if moved:
                    continue
                ab = arb_blocked[slot]
                if ab == 2:
                    # Delivery-blocked sleep; the re-check closes the race
                    # with a delivery channel returned earlier this phase.
                    ds2 = dst_sw[slot]
                    if avail_delivery[ds2] == 0:
                        awake[slot] = False
                        deliv_watch[ds2].append((slot, epoch[slot]))
                elif ab:
                    # Head-blocked sleep; the memo is current (refreshed at
                    # every hop grant) and the re-check closes the race
                    # with a channel released earlier this phase.
                    cands = slot_cands[slot]
                    for cand in cands:
                        if owner[cand[0]] < 0:
                            break
                    else:
                        awake[slot] = False
                        e2 = epoch[slot]
                        for cand in cands:
                            chan_watch[cand[0]].append((slot, e2))

            # Sealed-worm completions due this cycle: apply the
            # completion-cycle channel releases, return the delivery
            # channel, and slot the statistics into the reference
            # rotation order.
            while comp_due and comp_due[0][0] <= cycle:
                slot = heappop(comp_due)[1]
                for cid in final_cids.pop(slot):
                    owner[cid] = -1
                    wl = chan_watch[cid]
                    if wl:
                        for s2, e2 in wl:
                            if epoch[s2] == e2:
                                awake[s2] = True
                                epoch[s2] = e2 + 1
                        wl.clear()
                    if cid >= inj_base and queues[cid - inj_base]:
                        inj_ready.add(cid - inj_base)
                ds = dst_sw[slot]
                avail_delivery[ds] += 1
                wl = deliv_watch[ds]
                if wl:
                    for s2, e2 in wl:
                        if epoch[s2] == e2:
                            awake[s2] = True
                            epoch[s2] = e2 + 1
                    wl.clear()
                if completions is None:
                    completions = []
                idx = order.index(slot)
                completions.append(((idx - start) % n_active, slot, idx))
            if completions:
                self._finish_completions(completions, w0 <= cycle < w1,
                                         cycle)

            t4 = perf_counter()
            t_arr += t1 - t0
            t_inj += t2 - t1
            t_arb += t3 - t2
            t_mov += t4 - t3
            executed += 1
            cycle += 1

        self.cycle = cycle
        self._queued_total = queued_total
        self._next_mid = next_mid
        self.generated = generated
        self.flits_consumed_measured += consumed_measured
        perf.arrivals_seconds += t_arr
        perf.injection_seconds += t_inj
        perf.arbitration_seconds += t_arb
        perf.flit_move_seconds += t_mov
        perf.cycles_executed += executed
        perf.cycles_skipped += skipped
        perf.arb_requests += arb_requests
        perf.arb_conflicts += arb_conflicts
        perf.delivery_conflicts += delivery_conflicts

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
        """Verify conservation and exclusivity; raises ``AssertionError``.

        Sealed worms are exempt from the per-slot checks: their row state
        is frozen at seal time while their channels release through timed
        events, so conservation holds against the *replayed* trajectory
        rather than the stale arrays.
        """
        length = self.config.message_length
        sealed = self._sealed
        seen: Dict[int, int] = {}
        for slot in self.order:
            if sealed[slot]:
                continue
            t = self._tcol[slot]
            c = self._clen[slot]
            in_network = length - self._to_inject[slot] - self._consumed[slot]
            assert sum(self._occ[t:t + c]) == in_network, slot
            for j in range(t, t + c):
                cid = self._chain[j]
                assert self.owner[cid] == slot, (slot, cid)
                assert cid not in seen, f"channel {cid} in two chains"
                seen[cid] = slot
                assert 0 <= self._occ[j] <= self.config.buffer_flits
        active = set(self.order)
        for cid, own in enumerate(self.owner):
            if own >= 0 and own not in active:
                raise AssertionError(f"channel {cid} owned by inactive slot")
        # A dormant worm must be genuinely blocked: waking it spuriously is
        # harmless, failing to wake it would stall the run.
        for slot in self.order:
            if self._awake[slot] or sealed[slot]:
                continue
            assert not self._draining[slot], slot
            if self._arb_blocked[slot] == 1:
                cands = self._candidates(self._head_sw[slot],
                                         self._phase[slot],
                                         self._dst_sw[slot])
                assert all(self.owner[cc[0]] >= 0 for cc in cands), slot
            elif self._arb_blocked[slot] == 2:
                assert self.avail_delivery[self._dst_sw[slot]] == 0, slot


__all__ = ["FastWormholeNetworkSimulator"]
