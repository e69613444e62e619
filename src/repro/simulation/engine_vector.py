"""Numpy-vectorized many-replication engine (``engine="vector"``).

The bit-identical engines (``reference`` and ``fast``) pin the scalar
RNG/arbitration draw order, so they advance one replication at a time.
This module is the statistical tier, the many-seed kernel: it trades
that contract for a relaxed one — **statistical equivalence** — to
unlock real vectorization:

- state is a flat struct-of-arrays arena with a leading replication axis
  (``gslot = rep * S + slot``, ``gchan = rep * C + cid``), and every phase
  of the wormhole cycle (arrivals, injection, arbitration, flit movement)
  advances *all live replications per numpy array op* instead of one busy
  replication per Python iteration;
- randomness comes from a counter-based per-replication stream: each draw
  is a SplitMix64-style hash of ``(stream key, cycle, purpose, index)``,
  so it vectorizes across replications, is deterministic given
  ``(seed, engine="vector")`` and is independent of batch composition —
  but it is **not** draw-order-identical to the reference engine;
- arbitration is vectorized: per-cycle random keys per requester and a
  group-max (lexsort) over contenders per channel replaces the reference's
  sequential ``rng.choice``/``rng.shuffle`` scan.  The *distributions* are
  identical (uniform winner among contenders, uniform free-candidate
  choice, uniform delivery subset); the individual coin flips are not.

The contract is shipped as code: :mod:`repro.simulation.equivalence`
checks mean latency and delivered throughput per (mapping, rate) point
across many seeds (Welch's t-test + confidence-interval overlap) plus
rank preservation of the paper's OP-vs-random mapping ordering, and
``tests/simulation/test_engine_equivalence.py`` enforces it in CI.

Cycle semantics (identical to the reference, per simulated cycle):
arrivals → injections → arbitration → flit movement.  For
``virtual_channels == 1`` (the paper's setting) the reference's physical
link budgets are no-ops and worms are decoupled within the move phase, so
phase-wise vectorization across worms is exact: drain-all, then a
head-first column shift, then source-feed-all, then cascading tail
release, then completion — the same per-worm order the reference's
backward scan produces.  Occupancy rows are **head-aligned** (column 0 is
the head channel, higher columns trail toward the tail); positions at or
beyond a worm's chain length always hold zero flits, so the dense column
ops need no per-worm masks.  Multi-VC configurations fall back to the
reference engine: :func:`~repro.simulation.engine.make_simulator` builds
it and :func:`simulate_batch_vector` loops it, so their results are the
oracle's own and trivially equivalent.

Batch compatibility rules (checked by :func:`check_batch_compatible`):
all members share one :class:`~repro.routing.tables.RoutingTable` object
(same topology, same routing) and one ``virtual_channels`` value;
everything else — seed, rate, traffic, message length, buffer depth,
measurement windows — may vary per member.
"""

from __future__ import annotations

import math
import random
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.routing.base import Phase
from repro.routing.tables import RoutingTable
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import (
    EnginePerf,
    make_simulator,
    record_engine_metrics,
)
from repro.simulation.metrics import SimulationResult
from repro.simulation.traffic import (
    IntraClusterTraffic,
    TrafficPattern,
    UniformTraffic,
)
from repro.util.rng import derive_seed
from repro.util.stats import RunningStats


class BatchCompatibilityError(ValueError):
    """Raised when a set of replications cannot share one batch kernel."""


def check_batch_compatible(jobs: Sequence[Tuple[RoutingTable, TrafficPattern,
                                                float, SimulationConfig]]) -> None:
    """Validate that ``jobs`` may run as one batch; raise a clear error.

    ``jobs`` are ``(table, traffic, rate, config)`` tuples.  The rules are
    the module-level compatibility rules: one shared routing-table object
    and one ``virtual_channels`` value.
    """
    if not jobs:
        raise BatchCompatibilityError(
            "simulate_batch_vector needs at least one job")
    table0 = jobs[0][0]
    vcs0 = jobs[0][3].virtual_channels
    for i, (table, _traffic, _rate, cfg) in enumerate(jobs):
        if table is not table0:
            raise BatchCompatibilityError(
                f"job {i} uses a different routing table/topology than job 0 "
                f"({table.topology.name!r} vs {table0.topology.name!r}); "
                "batched replications must share one RoutingTable object — "
                "split the batch by topology first"
            )
        if cfg.virtual_channels != vcs0:
            raise BatchCompatibilityError(
                f"job {i} has virtual_channels={cfg.virtual_channels} but "
                f"job 0 has {vcs0}; a batch must agree on virtual_channels"
            )


# --------------------------------------------------------------------- #
# counter-based RNG
# --------------------------------------------------------------------- #

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_INV53 = 2.0 ** -53

# Draw purposes (kept < 16; packed into the low counter bits).
_P_GAP = 1      # geometric inter-arrival gap
_P_DEST = 2     # destination draw
_P_CHOOSE = 3   # free-candidate choice at arbitration
_P_WINKEY = 4   # contention key per channel request
_P_DELIV = 5    # delivery-subset key


def _mix(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, vectorized over uint64 arrays."""
    x = x + _GOLDEN
    x = x ^ (x >> _U64(30))
    x = x * _MIX1
    x = x ^ (x >> _U64(27))
    x = x * _MIX2
    x = x ^ (x >> _U64(31))
    return x


def _counter(cycles: np.ndarray, purpose: int, idx: np.ndarray) -> np.ndarray:
    """Injective uint64 counter for (cycle, purpose, index < 2**16)."""
    return ((cycles.astype(_U64) << _U64(20))
            + (idx.astype(_U64) << _U64(4)) + _U64(purpose))


def _u01(keys: np.ndarray, cycles: np.ndarray, purpose: int,
         idx: np.ndarray) -> np.ndarray:
    """Deterministic uniforms in [0, 1) from per-replication streams.

    ``keys`` are the uint64 stream keys of the events' replications;
    ``cycles``/``idx`` identify the event within the stream.  Each
    (key, cycle, purpose, idx) tuple maps to one fixed uniform — the
    counter-based analogue of a per-replication generator, but computable
    for a whole event batch in a handful of array ops.  The golden-ratio
    pre-multiply spreads the sequential counters across the uint64 space
    exactly as SplitMix64 does between finalizer calls, so one finalizer
    round suffices (this inner loop runs every simulated cycle).
    """
    x = _mix(keys + _counter(cycles, purpose, idx) * _GOLDEN)
    return (x >> _U64(11)).astype(np.float64) * _INV53


def _u01_pre(pre: np.ndarray, purpose_g: np.uint64,
             idx_g: np.ndarray) -> np.ndarray:
    """:func:`_u01` with the counter terms pre-multiplied.

    ``counter * GOLDEN`` distributes over the packed fields mod 2**64, so
    ``keys + ((cyc << 20) + (idx << 4) + p) * GOLDEN`` splits into a
    per-replication-per-cycle term (``pre``), a static per-index term
    (``idx_g``) and a purpose constant — bit-identical draws in two adds
    plus the finalizer instead of re-packing the counter per call.  The
    finalizer (:func:`_mix`) is inlined: this runs five times per
    simulated cycle, where one extra Python frame is measurable.
    """
    x = pre + idx_g + purpose_g + _GOLDEN
    x = x ^ (x >> _U64(30))
    x = x * _MIX1
    x = x ^ (x >> _U64(27))
    x = x * _MIX2
    x = x ^ (x >> _U64(31))
    return (x >> _U64(11)).astype(np.float64) * _INV53


def _ubits_pre(pre: np.ndarray, purpose_g: np.uint64,
               idx_g: np.ndarray) -> np.ndarray:
    """Raw 64-bit hash words of :func:`_u01_pre`'s draws.

    Arbitration needs *ordering* keys, not uniforms: the full word is a
    monotone refinement of the 53-bit float (equal floats can only come
    from equal high bits), so comparing words picks the same winner
    while skipping the float conversion.
    """
    x = pre + idx_g + purpose_g + _GOLDEN
    x = x ^ (x >> _U64(30))
    x = x * _MIX1
    x = x ^ (x >> _U64(27))
    x = x * _MIX2
    return x ^ (x >> _U64(31))


def _purpose_g(purpose: int) -> np.uint64:
    """``purpose * GOLDEN`` mod 2**64 (wraparound is the point)."""
    return _U64((purpose * int(_GOLDEN)) & 0xFFFFFFFFFFFFFFFF)


#: Purpose constants, pre-multiplied for :func:`_u01_pre`.
_PG_GAP = _purpose_g(_P_GAP)
_PG_DEST = _purpose_g(_P_DEST)
_PG_CHOOSE = _purpose_g(_P_CHOOSE)
_PG_WINKEY = _purpose_g(_P_WINKEY)
_PG_DELIV = _purpose_g(_P_DELIV)

_EMPTY_I = np.zeros(0, dtype=np.int64)

#: int32 "never" sentinel for arrival clocks (see _VectorCore.__init__).
_FAR32 = np.int32((1 << 31) - 8)


def _hash_int(key: int, cycle: int, purpose: int, idx: int) -> int:
    """Scalar counterpart of :func:`_u01`'s hash (seeds fallback draws)."""
    a = np.array([cycle], dtype=np.int64)
    b = np.array([idx], dtype=np.int64)
    return int(_mix(_U64(key) + _counter(a, purpose, b) * _GOLDEN)[0])


# --------------------------------------------------------------------- #
# the vectorized core
# --------------------------------------------------------------------- #


class _VectorCore:
    """Flattened multi-replication state + the vectorized lockstep kernel.

    All members share one routing table and ``virtual_channels == 1``
    (enforced by :func:`check_batch_compatible` plus the vcs gate in the
    entry points).  Seeds, rates, traffic patterns, message lengths,
    buffer depths and measurement windows may vary per member.
    """

    def __init__(self, table: RoutingTable,
                 members: Sequence[Tuple[TrafficPattern, float,
                                         SimulationConfig]]):
        self.table = table
        self.topology = topo = table.topology
        R = len(members)
        self.R = R

        # --- shared channel layout (identical cids to the reference) ----
        chan_of: Dict[Tuple[int, int], int] = {}
        n_chan = 0
        for u, v in topo.links:
            for a, b in ((u, v), (v, u)):
                chan_of[(a, b)] = n_chan
                n_chan += 1
        self.inj_base = n_chan
        self.NH = NH = topo.num_hosts
        self.NSW = NSW = topo.num_switches
        self.C = C = n_chan + NH
        # Worm slots per replication.  Every concurrent worm owns at
        # least one channel, so C + 1 slots always suffice — but typical
        # concurrency is far below that bound, and every dense per-slot
        # mask pays for the whole pool.  Start small and let
        # _grow_slots double the pool on demand; the growth discipline
        # keeps slot-id handout (hence every slot-keyed RNG draw)
        # bit-identical to a pool born at full size.
        self.S_cap = C + 1
        self.S = S = min(self.S_cap, 32)
        self.N = N = R * S
        self.host_switch = np.array(
            [topo.host_switch(h) for h in range(NH)], dtype=np.int64)
        self._initial_phase = int(table.routing.initial_phase())

        # Dense candidate tables, shared per table via the engine cache.
        (self.cand_cid, self.cand_sw, self.cand_ph, self.cand_n,
         self.K, max_dist, self.rev_cnt, self.rev_off,
         self.rev_flat) = _dense_candidates(table, chan_of)
        self.T = self.NSW * 2 * self.NSW
        # Chain length <= route length + 1 (injection channel); slack so
        # the overflow guard never fires on legal routes.
        self.W = W = max_dist + 3

        # --- per-slot worm state (position 0 = head channel) ------------
        # Row-per-worm layout: one worm's whole pipeline is a contiguous
        # W-element row, so per-worm gathers touch one cache line.  The
        # move phase streams these blocks every cycle, so the narrowest
        # safe dtype wins real bandwidth: occupancies are bounded by the
        # per-channel buffer depth, chain entries by the channel count.
        max_buf = max(cfg.buffer_flits for _t, _r, cfg in members)
        occ_dt = np.int8 if max_buf <= 127 else np.int16
        chain_dt = np.int16 if C <= 32000 else np.int32
        self.occ = np.zeros((N, W), dtype=occ_dt)
        self.chain = np.zeros((N, W), dtype=chain_dt)
        self.clen = np.zeros(N, dtype=np.int32)
        self.active = np.zeros(N, dtype=bool)
        self.draining = np.zeros(N, dtype=bool)
        self.to_inject = np.zeros(N, dtype=np.int32)
        self.consumed = np.zeros(N, dtype=np.int32)
        self.need = np.zeros(N, dtype=np.int32)
        self.head_sw = np.zeros(N, dtype=np.int64)
        self.dst_sw = np.zeros(N, dtype=np.int64)
        self.ckey = np.full(N, -1, dtype=np.int64)
        self.phase = np.zeros(N, dtype=np.int8)
        self.injected_at = np.zeros(N, dtype=np.int64)
        self.generated_at = np.zeros(N, dtype=np.int64)
        self.slot_local = np.tile(np.arange(S, dtype=np.int64), R)
        self.rep_slot = np.repeat(np.arange(R, dtype=np.int64), S)
        self._arangeK = np.arange(self.K, dtype=np.int64)[None, :]
        self._occ_flat = self.occ.reshape(-1)
        self._chain_flat = self.chain.reshape(-1)
        # Static pre-multiplied RNG index terms (see _u01_pre).
        self._slotg = (self.slot_local.astype(_U64) << _U64(4)) * _GOLDEN
        self._hostg = (np.arange(NH, dtype=_U64) << _U64(4)) * _GOLDEN
        # Bit weights for the move phase's word-packed pipeline shift:
        # the narrowest unsigned type that fits W - 1 boundary bits.
        bits = max(W - 1, 1)
        wdt = (np.uint8 if bits <= 8 else np.uint16 if bits <= 16
               else np.uint32 if bits <= 32 else np.uint64)
        self._bitw = (np.uint64(1) << np.arange(bits,
                                                dtype=np.uint64)).astype(wdt)
        caps = {cfg.buffer_flits for _t, _r, cfg in members}
        self._cap_all = caps.pop() if len(caps) == 1 else None

        # --- channels, delivery, hosts ----------------------------------
        # One sentinel column beyond the real channels, permanently
        # "owned": candidate-table padding points at it, so the owner
        # gather marks padded entries busy with no validity mask.
        self.CO = CO = C + 1
        self.owner = np.full((R, CO), -1, dtype=np.int64)
        self.owner[:, C] = N
        self.owner_flat = self.owner.reshape(-1)
        # Packed-argsort layout for arbitration: group id in the high
        # bits, winner-key hash bits below.  A single uint64 stable
        # argsort takes numpy's radix path, several times faster than
        # the equivalent two-key lexsort at per-cycle sizes.
        self._gbits_c = _U64((R * CO).bit_length())
        self._gshift_c = _U64(64) - self._gbits_c
        self._gbits_d = _U64((R * NSW).bit_length())
        self._gshift_d = _U64(64) - self._gbits_d
        self.avail_deliv = np.zeros((R, NSW), dtype=np.int32)
        self.avail_flat = self.avail_deliv.reshape(-1)

        # --- event-driven re-evaluation masks ---------------------------
        # A worm found with zero free candidate channels cannot contend,
        # and the only owned->free transition is the tail-release cascade
        # — so it stays ``parked`` until a released channel flags its
        # (replication, table-entry) wake bit.  Likewise a worm that lost
        # a delivery round left its switch with zero free delivery slots,
        # parking it until a completion there raises one.  The two park
        # reasons are disjoint (a worm is in channel *or* delivery phase)
        # and share one mask; the separate wake lists below remember
        # which event un-parks each worm.  ``settled`` worms had no flit
        # motion last cycle and no head/drain/feed event since, so the
        # pipelined shift can skip their rows.  All of it is pure
        # work-skipping: the skipped worms could not have changed any
        # state, and the counter-based RNG draws of the remaining
        # contenders do not depend on who else is evaluated, so results
        # are unchanged bit for bit.
        self.parked = np.zeros(N, dtype=bool)
        self.settled = np.zeros(N, dtype=bool)
        # ``eligible`` caches ``active & ~draining & ~parked`` — the
        # arbitration-requester superset — maintained incrementally at
        # the few sites that flip those flags, so the per-cycle
        # requester scan is one dense read instead of four.
        self.eligible = np.zeros(N, dtype=bool)
        self.wake_flat = np.zeros(R * self.T, dtype=bool)
        # Wake bits written since the last arbitration pass; clearing
        # exactly these beats a full-array memset every cycle.
        self._wake_hot: List[np.ndarray] = []
        self.dwake_flat = np.zeros(R * NSW, dtype=bool)
        self._wake_dirty = False
        self._dwake_dirty = False
        # Compact parked-slot indices so wake checks touch only parked
        # worms instead of scanning all N slots (stale entries — parked
        # worms of retired replications — are dropped lazily).  The
        # parallel ``*_key`` arrays carry each parked worm's wake-bit
        # index, computed once at park time.
        self._blocked_arr = np.zeros(0, dtype=np.int64)
        self._blocked_key = np.zeros(0, dtype=np.int64)
        self._dblocked_arr = np.zeros(0, dtype=np.int64)
        self._dblocked_key = np.zeros(0, dtype=np.int64)
        # Injection is trigger-driven: a host can only become injectable
        # when it enqueues a message (arrivals) or its injection channel
        # is released (tail cascade), so those events queue candidate
        # flat host indices instead of the dense (qlen, owner) scan.
        self._inj_try = _EMPTY_I
        self._arr_new = _EMPTY_I

        # --- steady-state drain fast-forward ----------------------------
        # A draining worm whose cycle was "drain one, shift every
        # boundary, feed one" sits at an occupancy fixed point: the same
        # decisions recur next cycle, and nothing outside the worm can
        # perturb it (it owns its channels exclusively, holds its
        # delivery slot, and makes no arbitration requests while
        # draining).  Such worms are advanced arithmetically for the
        # next ``to_inject - 1`` cycles — ``streaming`` rows leave the
        # dense move masks, a per-replication counter keeps the
        # delivered-flit accounting cycle-exact, and a calendar keyed by
        # iteration index re-materializes each worm one cycle before its
        # source runs dry.  Pure work-skipping: no draw order changes.
        self.streaming = np.zeros(N, dtype=bool)
        self._stream_start = np.zeros(N, dtype=np.int64)
        self.stream_cnt = np.zeros(R, dtype=np.int64)
        self._stream_cal: Dict[int, List[np.ndarray]] = {}
        self._n_stream = 0
        # mask[clen] has bits 0..clen-2 set: the packed-word signature of
        # "every boundary moved" for a chain of that length.
        self._stream_mask = np.array(
            [(1 << max(c - 1, 0)) - 1 for c in range(self.W + 1)],
            dtype=self._bitw.dtype)

        qcaps = [cfg.queue_capacity for _t, _r, cfg in members]
        self.QC = QC = max(qcaps)
        # Arrival clocks: int32 when every replication finishes below
        # the sentinel (always, in practice) — the dense due-compare is
        # the one per-cycle op that touches all R * NH host cells.
        # Gap draws land beyond the horizon clamp to the sentinel; they
        # could only have fired after ~2**31 stepped cycles.
        tmax = max(int(cfg.warmup_cycles + cfg.measure_cycles)
                   for _t, _r, cfg in members)
        if tmax < int(_FAR32) - 2:
            self._arr_far = int(_FAR32)
            arr_dt = np.int32
        else:
            self._arr_far = int(_FAR)
            arr_dt = np.int64
        self.next_arr = np.full((R, NH), self._arr_far, dtype=arr_dt)
        self.qlen = np.zeros((R, NH), dtype=np.int32)
        self.qhead = np.zeros((R, NH), dtype=np.int32)
        self.qdst = np.zeros((R, NH, QC), dtype=np.int32)
        self.qgen = np.zeros((R, NH, QC), dtype=np.int64)
        self.gap_denom = np.zeros((R, NH), dtype=np.float64)
        # Flat views: host events index with ri * NH + hi, which keeps
        # the hot phases on 1-D fancy indexing.
        self.next_arr_flat = self.next_arr.reshape(-1)
        self.qlen_flat = self.qlen.reshape(-1)
        self.qhead_flat = self.qhead.reshape(-1)
        self.qdst_flat = self.qdst.reshape(-1)
        self.qgen_flat = self.qgen.reshape(-1)

        # --- per-replication scalars ------------------------------------
        self.clock = np.zeros(R, dtype=np.int64)
        self.live = np.ones(R, dtype=bool)
        self.rep_key = np.zeros(R, dtype=np.uint64)
        self.length = np.zeros(R, dtype=np.int32)
        self.qcap = np.array(qcaps, dtype=np.int32)
        self.w0 = np.zeros(R, dtype=np.int64)
        self.w1 = np.zeros(R, dtype=np.int64)
        self.total = np.zeros(R, dtype=np.int64)
        self.adaptive = np.zeros(R, dtype=bool)
        self.record = np.zeros(R, dtype=bool)
        self.queued = np.zeros(R, dtype=np.int64)
        self.active_cnt = np.zeros(R, dtype=np.int64)
        self.free_top = np.full(R, S, dtype=np.int64)
        self.free_slots = np.tile(
            np.arange(S - 1, -1, -1, dtype=np.int64), (R, 1))
        self.executed = np.zeros(R, dtype=np.int64)
        self.skipped = np.zeros(R, dtype=np.int64)
        self.arb_req = np.zeros(R, dtype=np.int64)
        self.arb_conf = np.zeros(R, dtype=np.int64)
        self.deliv_conf = np.zeros(R, dtype=np.int64)
        self.generated_cnt = np.zeros(R, dtype=np.int64)
        self.consumed_measured = np.zeros(R, dtype=np.int64)
        self.completed_in_window = np.zeros(R, dtype=np.int64)
        self.offered = np.zeros(R, dtype=np.float64)

        self.traffics: List[TrafficPattern] = []
        self.configs: List[SimulationConfig] = []
        self.rates: List[float] = []
        self.traces: List[List[Tuple[int, int, int, int]]] = []
        self.perfs: List[EnginePerf] = []

        # Destination-draw modes: 0 = per-host peer table (pure
        # intracluster), 1 = uniform-minus-self, 2 = scalar dest_for
        # fallback (hotspots, intercluster mixes, custom patterns).
        self.dest_mode = np.full(R, 2, dtype=np.int8)
        self.uni_n = np.zeros(R, dtype=np.int64)
        dest_tabs: List[Optional[List[List[int]]]] = []

        init_events: List[Tuple[int, int, float]] = []   # (r, h, rate)
        any_rate1 = False
        for r, (traffic, rate, cfg) in enumerate(members):
            if rate < 0:
                raise ValueError(
                    f"injection_rate must be >= 0, got {rate}")
            self.traffics.append(traffic)
            self.configs.append(cfg)
            self.rates.append(rate)
            self.traces.append([])
            self.perfs.append(EnginePerf())
            self.rep_key[r] = _U64(derive_seed(cfg.seed, "vector-stream"))
            self.length[r] = cfg.message_length
            self.w0[r] = cfg.warmup_cycles
            self.w1[r] = cfg.warmup_cycles + cfg.measure_cycles
            self.total[r] = self.w1[r]
            self.adaptive[r] = cfg.adaptive
            self.record[r] = cfg.record_trace
            self.avail_deliv[r, :] = max(1, topo.hosts_per_switch)

            offered = 0.0
            for h in traffic.active_hosts():
                hr = rate * traffic.rate_scale(h)
                if hr > 1.0:
                    raise ValueError(
                        f"host {h} injection rate {hr} exceeds "
                        f"1 message/cycle")
                offered += hr * cfg.message_length
                if hr > 0:
                    if hr < 1.0:
                        self.gap_denom[r, h] = math.log1p(-hr)
                    else:
                        any_rate1 = True
                    init_events.append((r, h, hr))
            self.offered[r] = offered / NSW

            dest_tab: Optional[List[List[int]]] = None
            if (type(traffic) is IntraClusterTraffic
                    and traffic.intercluster_fraction == 0.0):
                self.dest_mode[r] = 0
                dest_tab = [[] for _ in range(NH)]
                for h2, c2 in traffic.cluster_of.items():
                    dest_tab[h2] = [d for d in
                                    traffic.hosts_by_cluster[c2] if d != h2]
            elif type(traffic) is UniformTraffic:
                self.dest_mode[r] = 1
                self.uni_n[r] = traffic.topology.num_hosts
            dest_tabs.append(dest_tab)

        # Dense per-host peer tables for mode-0 replications.
        dmax = max((len(p) for tab in dest_tabs if tab is not None
                    for p in tab), default=1)
        self.dest_tab = np.zeros((R, NH, dmax), dtype=np.int32)
        self.dest_n = np.zeros((R, NH), dtype=np.int64)
        for r, tab in enumerate(dest_tabs):
            if tab is None:
                continue
            for h, peers in enumerate(tab):
                self.dest_n[r, h] = len(peers)
                self.dest_tab[r, h, :len(peers)] = peers

        # Per-slot broadcasts of per-replication config (rebuilt by
        # _grow_slots when the pool expands).
        self._buf_rep = np.array(
            [cfg.buffer_flits for _t, _r, cfg in members], dtype=occ_dt)
        self.cap_slot = np.repeat(self._buf_rep, S)
        self.adaptive_slot = np.repeat(self.adaptive, S)
        self._any_record = bool(self.record.any())
        self._any_rate1 = any_rate1
        self._all_adaptive = bool(self.adaptive.all())
        # Which destination-draw modes this batch actually uses; a
        # homogeneous batch takes a maskless fast path in _draw_dests.
        self._dest_modes = tuple(sorted(set(self.dest_mode.tolist())))
        # Per-replication RNG base for the current cycle (see _u01_pre);
        # refreshed at the top of every lockstep iteration.  The clock is
        # all zeros here, matching the init gap draws below.
        self._kc = self.rep_key + (
            self.clock.astype(_U64) << _U64(20)) * _GOLDEN

        # First arrivals: one gap draw per active host at cycle 0.
        if init_events:
            ri = np.array([e[0] for e in init_events], dtype=np.int64)
            hi = np.array([e[1] for e in init_events], dtype=np.int64)
            self.next_arr[ri, hi] = self._gap_draw(
                ri, hi, np.zeros(ri.size, dtype=np.int64))

        self.iterations = 0
        self._lat_chunks: List[Tuple[np.ndarray, np.ndarray,
                                     np.ndarray]] = []
        self._lat_cache = None
        self._t_arrivals = 0.0
        self._t_injection = 0.0
        self._t_arbitration = 0.0
        self._t_move = 0.0

    # ------------------------------------------------------------------ #
    # arrivals & injection
    # ------------------------------------------------------------------ #

    def _gap_draw(self, ri: np.ndarray, hi: np.ndarray,
                  cyc: np.ndarray) -> np.ndarray:
        """Geometric inter-arrival gaps (>= 1) for Bernoulli(rate) hosts."""
        u = _u01_pre(self._kc[ri], _PG_GAP, self._hostg[hi])
        denom = self.gap_denom[ri, hi]
        if not self._any_rate1:
            gap = np.ceil(
                np.log(np.maximum(u, 1e-300)) / denom).astype(np.int64)
            return np.minimum(cyc + np.maximum(gap, 1), self._arr_far)
        safe = np.where(denom < 0.0, denom, -1.0)
        gap = np.ceil(
            np.log(np.maximum(u, 1e-300)) / safe).astype(np.int64)
        gap = np.maximum(gap, 1)
        # denom == 0 flags rate >= 1: a message every cycle.
        return np.minimum(cyc + np.where(denom < 0.0, gap, 1),
                          self._arr_far)

    def _draw_dests(self, ri: np.ndarray, hi: np.ndarray,
                    cyc: np.ndarray) -> np.ndarray:
        u = _u01_pre(self._kc[ri], _PG_DEST, self._hostg[hi])
        if self._dest_modes == (1,):
            # Homogeneous uniform traffic: no mode masks needed.
            n = self.uni_n[ri] - 1
            d = np.minimum((u * n).astype(np.int64), n - 1)
            d += d >= hi
            return d
        if self._dest_modes == (0,):
            n = self.dest_n[ri, hi]
            k = np.minimum((u * n).astype(np.int64), n - 1)
            return self.dest_tab[ri, hi, k].astype(np.int64)
        dst = np.empty(ri.size, dtype=np.int64)
        mode = self.dest_mode[ri]
        m0 = mode == 0
        if m0.any():
            n = self.dest_n[ri[m0], hi[m0]]
            k = np.minimum((u[m0] * n).astype(np.int64), n - 1)
            dst[m0] = self.dest_tab[ri[m0], hi[m0], k]
        m1 = mode == 1
        if m1.any():
            n = self.uni_n[ri[m1]] - 1
            d = np.minimum((u[m1] * n).astype(np.int64), n - 1)
            d += d >= hi[m1]
            dst[m1] = d
        m2 = mode == 2
        if m2.any():
            # Scalar fallback: a fresh deterministic stream per event fed
            # through the pattern's own dest_for (same distribution as
            # the reference; different draws).
            for j in np.flatnonzero(m2):
                r = int(ri[j])
                seed = _hash_int(int(self.rep_key[r]), int(cyc[j]),
                                 _P_DEST, int(hi[j]))
                dst[j] = self.traffics[r].dest_for(
                    int(hi[j]), random.Random(seed))
        return dst

    def _arrivals_phase(self) -> None:
        self._arr_new = _EMPTY_I
        due = ((self.next_arr
                <= self.clock.astype(self.next_arr.dtype)[:, None])
               & self.live[:, None])
        idx = due.reshape(-1).nonzero()[0]
        if not idx.size:
            return
        NH = self.NH
        ri = idx // NH
        hi = idx - ri * NH
        cyc = self.clock[ri]
        full = self.qlen_flat[idx] >= self.qcap[ri]
        if full.any():
            # Queue full: retry next cycle without drawing (reference
            # defers the whole arrival, destination included).
            self.next_arr_flat[idx[full]] = cyc[full] + 1
            ok = ~full
            idx, ri, hi, cyc = idx[ok], ri[ok], hi[ok], cyc[ok]
            if not idx.size:
                return
        dst = self._draw_dests(ri, hi, cyc)
        pos = self.qhead_flat[idx] + self.qlen_flat[idx]
        pos -= np.where(pos >= self.QC, self.QC, 0)
        qpos = idx * self.QC + pos
        self.qdst_flat[qpos] = dst
        self.qgen_flat[qpos] = cyc
        self.qlen_flat[idx] += 1
        counts = np.bincount(ri, minlength=self.R)
        self.generated_cnt += counts
        self.queued += counts
        if self._any_record:
            rec = self.record[ri]
            for r, h, d, t in zip(ri[rec], hi[rec], dst[rec], cyc[rec]):
                self.traces[int(r)].append(
                    (int(t), int(h), int(d), int(self.length[int(r)])))
        self.next_arr_flat[idx] = self._gap_draw(ri, hi, cyc)
        self._arr_new = idx

    def _injection_phase(self) -> None:
        # A host can inject only if it holds a message (qlen > 0) and its
        # injection channel is free — a state reachable solely through an
        # enqueue (this cycle's arrivals) or an injection-channel release
        # (last cycle's tail cascade), so only those candidates need the
        # check instead of a dense (qlen, owner) scan.  Both sources are
        # duplicate-free; merged they may overlap, so unique() also
        # restores the ascending order the free-slot pop below relies on.
        arr, rel = self._arr_new, self._inj_try
        if rel.size:
            self._inj_try = _EMPTY_I
            cand = (np.unique(np.concatenate((rel, arr)))
                    if arr.size else np.sort(rel))
        else:
            cand = arr
        if not cand.size:
            return
        S, C = self.S, self.C
        NH = self.NH
        ri = cand // NH
        hi = cand - ri * NH
        ok = ((self.qlen_flat[cand] > 0)
              & (self.owner_flat[ri * self.CO + self.inj_base + hi] < 0)
              & self.live[ri])
        if not ok.all():
            cand, ri, hi = cand[ok], ri[ok], hi[ok]
            if not cand.size:
                return
        idx = cand
        pos = self.qhead_flat[idx]
        qpos = idx * self.QC + pos
        dst_h = self.qdst_flat[qpos].astype(np.int64)
        gen = self.qgen_flat[qpos]
        self.qhead_flat[idx] = (pos + 1) % self.QC
        self.qlen_flat[idx] -= 1
        counts = np.bincount(ri, minlength=self.R)
        self.queued -= counts
        if (counts > self.free_top).any():
            self._grow_slots(int((counts - self.free_top).max()))
            S = self.S
        # Pop one free slot per worm: rank within the (sorted) rep runs.
        rank = np.arange(ri.size) - np.searchsorted(ri, ri)
        sl = self.free_slots[ri, self.free_top[ri] - 1 - rank]
        self.free_top -= counts
        g = ri * S + sl
        cid = self.inj_base + hi
        hs = self.host_switch[hi]
        ds = self.host_switch[dst_h]
        self.occ[g] = 0
        self.chain[g, 0] = cid
        self.clen[g] = 1
        self.to_inject[g] = self.length[ri]
        self.need[g] = self.length[ri]
        self.consumed[g] = 0
        self.head_sw[g] = hs
        self.dst_sw[g] = ds
        self.phase[g] = self._initial_phase
        self.draining[g] = False
        self.active[g] = True
        self.settled[g] = False
        self.parked[g] = False
        self.eligible[g] = True
        self.injected_at[g] = self.clock[ri]
        self.generated_at[g] = gen
        self.ckey[g] = np.where(
            hs == ds, -1,
            (hs * 2 + self._initial_phase) * self.NSW + ds)
        self.owner_flat[ri * self.CO + cid] = g
        self.active_cnt += counts

    def _grow_slots(self, shortfall: int) -> None:
        """Expand every replication's worm-slot pool, bit-identically.

        The pool starts far below the C + 1 hard bound because dense
        per-slot masks pay for every slot whether occupied or not.  When
        an injection burst needs more free slots than some replication
        has left, the pool (at least) doubles.  Results are unchanged
        bit for bit: the new slots join the *bottom* of each free stack
        holding ``S_new-1 .. S_old`` in descending order — exactly the
        untouched deep region a stack born at ``S_new`` would still
        hold, since pops below ``S_old`` were impossible before now.
        The handed-out sequence of slot-local ids (which keys every
        per-worm RNG draw) is therefore identical to a static pool's.
        """
        R, W = self.R, self.W
        S_old = self.S
        S_new = min(self.S_cap, max(2 * S_old, S_old + shortfall))
        add = S_new - S_old

        for name in ("occ", "chain"):
            a = getattr(self, name)
            new = np.zeros((R * S_new, W), dtype=a.dtype)
            new.reshape(R, S_new, W)[:, :S_old] = a.reshape(R, S_old, W)
            setattr(self, name, new)
        self._occ_flat = self.occ.reshape(-1)
        self._chain_flat = self.chain.reshape(-1)
        for name in ("clen", "active", "draining", "to_inject",
                     "consumed", "need", "head_sw", "dst_sw", "ckey",
                     "phase", "injected_at", "generated_at", "parked",
                     "settled", "eligible", "streaming", "_stream_start"):
            a = getattr(self, name)
            new = np.zeros(R * S_new, dtype=a.dtype)
            new.reshape(R, S_new)[:, :S_old] = a.reshape(R, S_old)
            setattr(self, name, new)

        self.slot_local = np.tile(np.arange(S_new, dtype=np.int64), R)
        self.rep_slot = np.repeat(np.arange(R, dtype=np.int64), S_new)
        self._slotg = (self.slot_local.astype(_U64) << _U64(4)) * _GOLDEN
        self.cap_slot = np.repeat(self._buf_rep, S_new)
        self.adaptive_slot = np.repeat(self.adaptive, S_new)

        # Remap stored global slot ids (r * S_old + l -> r * S_new + l).
        # The parked-wake *keys* are replication-based and unaffected.
        def remap(g: np.ndarray) -> np.ndarray:
            r = g // S_old
            return r * S_new + (g - r * S_old)

        m = self.owner >= 0
        m[:, self.C] = False          # sentinel column is not a slot id
        mf = m.reshape(-1)
        self.owner_flat[mf] = remap(self.owner_flat[mf])
        self.owner[:, self.C] = R * S_new
        self._blocked_arr = remap(self._blocked_arr)
        self._dblocked_arr = remap(self._dblocked_arr)

        nfs = np.empty((R, S_new), dtype=np.int64)
        nfs[:, :add] = np.arange(S_new - 1, S_old - 1, -1,
                                 dtype=np.int64)[None, :]
        nfs[:, add:] = self.free_slots
        self.free_slots = nfs
        self.free_top += add
        for key, lst in self._stream_cal.items():
            self._stream_cal[key] = [remap(a) for a in lst]
        self.S = S_new
        self.N = R * S_new

    def _unstream(self, g: np.ndarray, as_of: int) -> None:
        """Fold a streamed worm's skipped cycles back into its state.

        ``as_of`` is the last iteration whose per-cycle drain has been
        accounted through ``stream_cnt`` — ``iterations - 1`` when
        called from the calendar pop (the current cycle runs normally),
        ``iterations`` when forcing materialization between cycles.
        Unstreaming early is semantically neutral: the worm re-enters
        the dense masks and re-derives the very cycles it would have
        skipped.
        """
        streamed = (as_of - self._stream_start[g]).astype(np.int32)
        self.consumed[g] += streamed
        self.to_inject[g] -= streamed
        self.streaming[g] = False
        self.stream_cnt -= np.bincount(self.rep_slot[g], minlength=self.R)
        self._n_stream -= g.size

    # ------------------------------------------------------------------ #
    # arbitration
    # ------------------------------------------------------------------ #

    def _arbitration_phase(self) -> None:
        if self._wake_dirty:
            lst, keys = self._blocked_arr, self._blocked_key
            if lst.size:
                alive = self.parked[lst]
                lst, keys = lst[alive], keys[alive]
                hit = self.wake_flat[keys]
                woken = lst[hit]
                self.parked[woken] = False
                self.eligible[woken] = True
                keep = ~hit
                self._blocked_arr = lst[keep]
                self._blocked_key = keys[keep]
            for hot in self._wake_hot:
                self.wake_flat[hot] = False
            self._wake_hot.clear()
            self._wake_dirty = False
        if self._dwake_dirty:
            lst, keys = self._dblocked_arr, self._dblocked_key
            if lst.size:
                alive = self.parked[lst]
                lst, keys = lst[alive], keys[alive]
                hit = self.dwake_flat[keys]
                woken = lst[hit]
                self.parked[woken] = False
                self.eligible[woken] = True
                keep = ~hit
                self._dblocked_arr = lst[keep]
                self._dblocked_key = keys[keep]
            self.dwake_flat[:] = False
            self._dwake_dirty = False
        # Requesters: active, un-parked, non-draining worms with a flit
        # at the head (the maintained ``eligible`` mask); the
        # head-occupancy and channel/delivery split run on the compact
        # candidate set (one contiguous worm row each) instead of dense
        # strided reads.
        cand = self.eligible.nonzero()[0]
        if not cand.size:
            return
        cand = cand[self.occ[cand, 0] > 0]
        if not cand.size:
            return
        cm = self.ckey[cand] >= 0
        req = cand[cm]
        if req.size:
            self._channel_requests(req)
        did = cand[~cm]
        if did.size:
            self._delivery_requests(did)

    def _channel_requests(self, req: np.ndarray) -> None:
        S, C = self.S, self.C
        ck = self.ckey[req]
        nc = self.cand_n[ck]
        if (nc == 0).any():
            bad = req[nc == 0][0]
            raise RuntimeError(
                f"no legal continuation toward switch "
                f"{int(self.dst_sw[bad])} at ({int(self.head_sw[bad])}, "
                f"{Phase(int(self.phase[bad])).name})")
        cc = self.cand_cid[ck]                                 # [k, K]
        rep = self.rep_slot[req]
        own = self.owner_flat[rep[:, None] * self.CO + cc]
        if self._all_adaptive:
            # Padded columns point at the sentinel channel (always
            # owned), so busy-filtering doubles as the validity mask.
            free = own < 0
        else:
            lim = np.where(self.adaptive_slot[req], self.K, 1)
            free = (self._arangeK < lim[:, None]) & (own < 0)
        nfree = free.sum(axis=1)
        has = nfree > 0
        if has.all():
            rq, rep_q, fr, nf, ckq = req, rep, free, nfree, ck
        else:
            # Fully owned candidate sets: park until a release wakes the
            # (replication, table-entry) pair.  Parked worms never drew
            # or contended, so skipping them is free of side effects.
            miss = ~has
            newly = req[miss]
            self.parked[newly] = True
            self.eligible[newly] = False
            self._blocked_arr = np.concatenate((self._blocked_arr, newly))
            self._blocked_key = np.concatenate(
                (self._blocked_key, rep[miss] * self.T + ck[miss]))
            if not has.any():
                return
            rows = has.nonzero()[0]
            rq = req[rows]
            rep_q = rep[rows]
            fr = free[rows]
            nf = nfree[rows]
            ckq = ck[rows]
        # Uniform choice among this worm's currently-free candidates.
        kc_q = self._kc[rep_q]
        slot_g = self._slotg[rq]
        u = _u01_pre(kc_q, _PG_CHOOSE, slot_g)
        sel = (u * nf).astype(np.int64)
        cum = np.cumsum(fr, axis=1)
        pick = np.argmax(fr & (cum == (sel + 1)[:, None]), axis=1)
        cid_q = self.cand_cid[ckq, pick]
        sw_q = self.cand_sw[ckq, pick].astype(np.int64)
        ph_q = self.cand_ph[ckq, pick].astype(np.int64)
        gcid = rep_q * self.CO + cid_q
        # One uniform winner per contended channel: random keys, group
        # max via lexsort (last entry of each gcid run wins).
        kb = _ubits_pre(kc_q, _PG_WINKEY, slot_g)
        order = np.argsort((gcid.astype(_U64) << self._gshift_c)
                           | (kb >> self._gbits_c), kind="stable")
        gs = gcid[order]
        last = np.empty(gs.size, dtype=bool)
        last[:-1] = gs[1:] != gs[:-1]
        last[-1] = True
        b_idx = last.nonzero()[0]
        sizes = np.diff(np.concatenate(([-1], b_idx)))
        rep_g = gs[last] // self.CO
        self.arb_req += np.bincount(rep_g, minlength=self.R)
        if (sizes > 1).any():
            self.arb_conf += np.bincount(rep_g[sizes > 1],
                                         minlength=self.R)
        win = order[last]
        w = rq[win]
        cidw = cid_q[win]
        sww = sw_q[win]
        phw = ph_q[win]
        # Grant: head-aligned row shift right, new head in position 0.
        # Fancy-indexed gathers copy, so the shifted block is read before
        # the overlapping write.
        mxc = int(self.clen[w].max())
        if mxc + 1 >= self.W:
            raise RuntimeError("worm chain overflow (route longer than "
                               "the routing table's distance bound)")
        self.occ[w, 1:mxc + 1] = self.occ[w, :mxc]
        self.chain[w, 1:mxc + 1] = self.chain[w, :mxc]
        self.occ[w, 0] = 0
        self.chain[w, 0] = cidw
        self.clen[w] += 1
        self.head_sw[w] = sww
        self.phase[w] = phw.astype(np.int8)
        self.owner_flat[gcid[win]] = w
        self.settled[w] = False
        self.ckey[w] = np.where(
            sww == self.dst_sw[w], -1,
            (sww * 2 + phw) * self.NSW + self.dst_sw[w])

    def _delivery_requests(self, didx: np.ndarray) -> None:
        rep = self.rep_slot[didx]
        gsw = rep * self.NSW + self.dst_sw[didx]
        kb = _ubits_pre(self._kc[rep], _PG_DELIV, self._slotg[didx])
        order = np.argsort((gsw.astype(_U64) << self._gshift_d)
                           | (kb >> self._gbits_d), kind="stable")
        gss = gsw[order]
        first = np.empty(gss.size, dtype=bool)
        first[0] = True
        first[1:] = gss[1:] != gss[:-1]
        grp_start = np.maximum.accumulate(
            np.where(first, np.arange(gss.size), 0))
        rank = np.arange(gss.size) - grp_start
        avail = self.avail_flat[gss]
        grant = rank < avail
        winners = didx[order[grant]]
        if winners.size:
            self.draining[winners] = True
            self.settled[winners] = False
            self.eligible[winners] = False
            np.add.at(self.avail_flat, gss[grant], -1)
        lose = ~grant
        losers = didx[order[lose]]
        if losers.size:
            # Losing a round means the switch ran out of delivery slots
            # (grant is rank < avail), so park until a completion there
            # raises avail again.
            self.parked[losers] = True
            self.eligible[losers] = False
            self._dblocked_arr = np.concatenate(
                (self._dblocked_arr, losers))
            self._dblocked_key = np.concatenate(
                (self._dblocked_key, gss[lose]))
        # Reference counts one conflict per (switch, cycle) round that
        # had to truncate — i.e. avail > 0 and more requesters than slots.
        f_idx = first.nonzero()[0]
        sizes = np.diff(np.concatenate((f_idx, [gss.size])))
        g_avail = avail[f_idx]
        over = (g_avail > 0) & (sizes > g_avail)
        if over.any():
            rep_over = gss[f_idx[over]] // self.NSW
            self.deliv_conf += np.bincount(rep_over, minlength=self.R)

    # ------------------------------------------------------------------ #
    # flit movement
    # ------------------------------------------------------------------ #

    def _move_phase(self, in_w: np.ndarray) -> None:
        N, S, C = self.N, self.S, self.C
        occ_flat = self._occ_flat
        # Re-materialize streamed worms whose skip window ends this
        # cycle, then account one delivered flit per still-streaming
        # worm (they each drain exactly one per skipped cycle).  Stale
        # calendar entries (worms unstreamed early by an invariant check
        # or a retirement freeze) drop out via the ``streaming`` mask.
        if self._stream_cal:
            ex = self._stream_cal.pop(self.iterations, None)
            if ex is not None:
                exa = np.concatenate(ex) if len(ex) > 1 else ex[0]
                exa = exa[self.streaming[exa]]
                if exa.size:
                    self._unstream(exa, self.iterations - 1)
        if self._n_stream:
            self.consumed_measured += self.stream_cnt * in_w
        # Flit motion is confined to unsettled worms: a worm that moved
        # nothing last cycle and saw no grant/drain/injection since has
        # the same occupancies, so every step below would be inert on it.
        msk = self.active & ~self.settled
        if self._n_stream:
            msk &= ~self.streaming
        act = msk.nonzero()[0]
        d_idx = _EMPTY_I
        if act.size:
            occ_a = self.occ[act]
            cv = self._cap_all
            cap_a = self.cap_slot[act] if cv is None else None
            # 1. drain one flit from every draining head with flits.
            drn = self.draining[act] & (occ_a[:, 0] > 0)
            occ_a[:, 0] -= drn
            d_idx = act[drn]
            if d_idx.size:
                self.consumed[d_idx] += 1
                dm = np.bincount(self.rep_slot[d_idx], minlength=self.R)
                self.consumed_measured += dm * in_w
            # A worm settles iff none of the three motion sources fired:
            # occupancies only change through drain, boundary crossings
            # and source feed, and any crossing chain with the drain idle
            # leaves a net +1 at its lowest boundary — so the signal
            # union equals occupancy-diff detection bit for bit, without
            # keeping a pre-image copy of the occupancy block.
            moved = drn.copy()
            # 2. head-first pipelined shift: one flit crosses boundary j
            #    (slot j into j-1) iff slot j has a flit and slot j-1 is
            #    below capacity *after* boundary j-1 moved — the
            #    recurrence mv_j = A_j & (B_{j-1} | mv_{j-1}).  That
            #    collapses to mv_j = A_j & (B_0 | ... | B_{j-1}): the
            #    two sides differ only when the chain is broken by a
            #    position with A = 0 and B = 0, and an empty position
            #    (A = 0) always has spare capacity (B = 1).  The
            #    prefix-OR runs bit-parallel: pack each worm's B row
            #    into one machine word (matmul with bit weights), OR in
            #    doubling shifts within the word, unpack once.  A zero
            #    packed mv word doubles as the per-worm "no motion"
            #    signal.  Positions at or beyond a worm's length hold
            #    zeros and stay inert.
            mx = int(self.clen[act].max())
            if mx > 1:
                m = mx - 1
                w = self._bitw[:m]
                B = (occ_a[:, :m] < cv if cv is not None
                     else occ_a[:, :m] < cap_a[:, None])
                pref = B @ w
                sh = 1
                while sh < m:
                    pref |= pref << sh
                    sh <<= 1
                mvb = ((occ_a[:, 1:mx] > 0) @ w) & pref
                mv = (mvb[:, None] & w) != 0
                occ_a[:, :m] += mv
                occ_a[:, 1:mx] -= mv
                moved |= mvb != 0
            # 3. source feed into the tail channel.
            ti = self.to_inject[act]
            fa = (ti > 0).nonzero()[0]
            fok = _EMPTY_I
            if fa.size:
                t = self.clen[act[fa]] - 1
                ok = (occ_a[fa, t] < cv if cv is not None
                      else occ_a[fa, t] < cap_a[fa])
                fok = fa[ok]
                occ_a[fok, t[ok]] += 1
                self.to_inject[act[fok]] -= 1
                ti[fok] -= 1
            self.occ[act] = occ_a
            moved[fok] = True
            self.settled[act] = ~moved
            # Steady-state detection: the occupancy row is unchanged iff
            # every position's net flow cancels, which (with the drain
            # live) forces drain, feed and all clen-1 boundary moves to
            # have fired — i.e. the packed move word equals the full
            # mask for the worm's length.  With >= 2 source flits left
            # the identical state recurs for the next to_inject - 1
            # cycles, so the worm skips them wholesale and returns with
            # one flit still to feed (hence it can neither release a
            # channel nor complete while streamed).
            st = drn & (ti >= 2)
            if st.any():
                fedm = np.zeros(act.size, dtype=bool)
                fedm[fok] = True
                st &= fedm
                if mx > 1:
                    st &= mvb == self._stream_mask[self.clen[act]]
                si = st.nonzero()[0]
                if si.size:
                    g = act[si]
                    k = ti[si].astype(np.int64) - 1
                    self.streaming[g] = True
                    self._stream_start[g] = self.iterations
                    self.stream_cnt += np.bincount(self.rep_slot[g],
                                                   minlength=self.R)
                    self._n_stream += si.size
                    cal = self._stream_cal
                    for kv in np.unique(k):
                        key = self.iterations + int(kv) + 1
                        cal.setdefault(key, []).append(g[k == kv])
        # 4. cascading tail release once the source is exhausted.  An
        # active exhausted worm always enters the cycle with a nonzero
        # tail (feed tops the tail up through the cycle that drains the
        # source, and the cascade below pops every hole it can reach),
        # so only this cycle's motion can empty one — the moved subset
        # covers all release candidates.
        chain_flat = self._chain_flat
        cand = act[moved & (ti == 0)] if act.size else act
        freed_rep: List[np.ndarray] = []
        freed_cid: List[np.ndarray] = []
        guard = 0
        W = self.W
        while cand.size:
            t = cand * W + (self.clen[cand] - 1)
            rel = cand[occ_flat[t] == 0]
            if not rel.size:
                break
            cidr = chain_flat[rel * W + (self.clen[rel] - 1)]
            rep_r = self.rep_slot[rel]
            self.owner_flat[rep_r * self.CO + cidr] = -1
            freed_rep.append(rep_r)
            freed_cid.append(cidr)
            self.clen[rel] -= 1
            self.settled[rel] = False
            cand = rel[self.clen[rel] > 0]
            guard += 1
            if guard > self.W:
                raise RuntimeError("tail-release cascade did not settle")
        if freed_rep:
            # Flag the (replication, table-entry) pairs that list a
            # released channel as a candidate, so parked worms there are
            # re-evaluated next cycle (injection channels appear in no
            # candidate set and need no wake — instead their hosts, if
            # they still queue messages, become injection candidates).
            fr = np.concatenate(freed_rep)
            fc = np.concatenate(freed_cid).astype(np.int64)
            inter = fc < self.inj_base
            if not inter.all():
                inj = ~inter
                hosts = fr[inj] * self.NH + (fc[inj] - self.inj_base)
                hosts = hosts[self.qlen_flat[hosts] > 0]
                if hosts.size:
                    self._inj_try = (np.concatenate((self._inj_try, hosts))
                                     if self._inj_try.size else hosts)
            if inter.any():
                fr, fc = fr[inter], fc[inter]
                cnt = self.rev_cnt[fc]
                tot = int(cnt.sum())
                if tot:
                    ends = np.cumsum(cnt)
                    pos = (np.arange(tot, dtype=np.int64)
                           - np.repeat(ends - cnt, cnt)
                           + np.repeat(self.rev_off[fc], cnt))
                    entries = (np.repeat(fr, cnt) * self.T
                               + self.rev_flat[pos])
                    self.wake_flat[entries] = True
                    self._wake_hot.append(entries)
                    self._wake_dirty = True
        # 5. completions.  A completing worm drained its last flit this
        #    phase, so it is draining and therefore never settled — the
        #    ``act`` subset covers every candidate.
        # Completion requires a drain this very cycle (``consumed`` only
        # advances there), so the drained subset covers every candidate.
        cidx = d_idx[self.consumed[d_idx] >= self.need[d_idx]]
        if cidx.size:
            rep_c = self.rep_slot[cidx]
            self.active[cidx] = False
            self.draining[cidx] = False
            self.settled[cidx] = True
            gsw_c = rep_c * self.NSW + self.dst_sw[cidx]
            np.add.at(self.avail_flat, gsw_c, 1)
            # A freed delivery slot can admit parked requesters at this
            # switch next cycle.
            self.dwake_flat[gsw_c] = True
            self._dwake_dirty = True
            counts = np.bincount(rep_c, minlength=self.R)
            self.active_cnt -= counts
            rank = np.arange(cidx.size) - np.searchsorted(rep_c, rep_c)
            self.free_slots[rep_c, self.free_top[rep_c] + rank] = \
                self.slot_local[cidx]
            self.free_top += counts
            inw = in_w[rep_c]
            if inw.any():
                cs = cidx[inw]
                rw = rep_c[inw]
                cw = self.clock[rw]
                self._lat_chunks.append(
                    (rw, cw - self.injected_at[cs],
                     cw - self.generated_at[cs]))
                self._lat_cache = None
                self.completed_in_window += np.bincount(
                    rw, minlength=self.R)

    # ------------------------------------------------------------------ #
    # the lockstep loop
    # ------------------------------------------------------------------ #

    def advance(self, *, allow_skip: bool = True,
                max_iterations: Optional[int] = None) -> None:
        """Advance every live replication one busy cycle per iteration.

        Idle replications (no worms, empty queues) jump their clock to
        the next arrival when ``allow_skip``; finished ones retire via
        the live mask, so a heterogeneous batch costs array ops only for
        replications that still have work.
        """
        iters = 0
        while self.live.any():
            if max_iterations is not None and iters >= max_iterations:
                break
            iters += 1
            self.iterations += 1
            in_w = ((self.clock >= self.w0) & (self.clock < self.w1)
                    & self.live)
            self._kc = self.rep_key + (
                self.clock.astype(_U64) << _U64(20)) * _GOLDEN
            t0 = time.perf_counter()
            self._arrivals_phase()
            t1 = time.perf_counter()
            self._injection_phase()
            t2 = time.perf_counter()
            self._arbitration_phase()
            t3 = time.perf_counter()
            self._move_phase(in_w)
            t4 = time.perf_counter()
            self._t_arrivals += t1 - t0
            self._t_injection += t2 - t1
            self._t_arbitration += t3 - t2
            self._t_move += t4 - t3

            self.executed += self.live
            self.clock += self.live
            if allow_skip:
                idle = (self.live & (self.active_cnt == 0)
                        & (self.queued == 0))
                ii = np.flatnonzero(idle)
                if ii.size:
                    target = np.minimum(self.next_arr[ii].min(axis=1),
                                        self.total[ii])
                    target = np.maximum(target, self.clock[ii])
                    self.skipped[ii] += target - self.clock[ii]
                    self.clock[ii] = target
            done = self.live & (self.clock >= self.total)
            if done.any():
                self.live &= ~done
                if self.R > 1:
                    # Freeze retired members: clearing their worm rows
                    # removes them from every dense mask and keeps the
                    # occupancy columns inert.  (Skipped for a batch of
                    # one so step() can resume past total.)
                    S = self.S
                    self.active.reshape(self.R, S)[done] = False
                    self.draining.reshape(self.R, S)[done] = False
                    self.parked.reshape(self.R, S)[done] = False
                    self.eligible.reshape(self.R, S)[done] = False
                    self.settled.reshape(self.R, S)[done] = True
                    strm = self.streaming.reshape(self.R, S)[done]
                    if strm.any():
                        self._n_stream -= int(strm.sum())
                        self.streaming.reshape(self.R, S)[done] = False
                        self.stream_cnt[done] = 0
                    self.active_cnt[done] = 0
                    for r in np.flatnonzero(done):
                        lo = int(r) * S
                        self.occ[lo:lo + S] = 0
                        self.clen[lo:lo + S] = 0

    # ------------------------------------------------------------------ #
    # results, perf, invariants
    # ------------------------------------------------------------------ #

    def _lat_arrays(self, r: int) -> Tuple[np.ndarray, np.ndarray]:
        if self._lat_cache is None:
            if self._lat_chunks:
                reps = np.concatenate([c[0] for c in self._lat_chunks])
                lats = np.concatenate([c[1] for c in self._lat_chunks])
                tots = np.concatenate([c[2] for c in self._lat_chunks])
                order = np.argsort(reps, kind="stable")
                reps = reps[order]
                bounds = np.searchsorted(reps, np.arange(self.R + 1))
                self._lat_cache = (lats[order], tots[order], bounds)
            else:
                empty = np.zeros(0, dtype=np.int64)
                self._lat_cache = (empty, empty,
                                   np.zeros(self.R + 1, dtype=np.int64))
        lats, tots, bounds = self._lat_cache
        lo, hi = int(bounds[r]), int(bounds[r + 1])
        return lats[lo:hi], tots[lo:hi]

    @staticmethod
    def _running_stats(arr: np.ndarray) -> RunningStats:
        st = RunningStats()
        if arr.size:
            mean = float(arr.mean())
            st.count = int(arr.size)
            st._mean = mean
            st._m2 = float(((arr - mean) ** 2).sum())
            st._min = int(arr.min())
            st._max = int(arr.max())
        return st

    def fill_perf(self, r: int) -> EnginePerf:
        perf = self.perfs[r]
        share = 1.0 / self.R
        perf.arrivals_seconds = self._t_arrivals * share
        perf.injection_seconds = self._t_injection * share
        perf.arbitration_seconds = self._t_arbitration * share
        perf.flit_move_seconds = self._t_move * share
        perf.cycles_executed = int(self.executed[r])
        perf.cycles_skipped = int(self.skipped[r])
        perf.arb_requests = int(self.arb_req[r])
        perf.arb_conflicts = int(self.arb_conf[r])
        perf.delivery_conflicts = int(self.deliv_conf[r])
        return perf

    def result(self, r: int) -> SimulationResult:
        cfg = self.configs[r]
        measure = cfg.measure_cycles
        perf = self.fill_perf(r)
        lats, tots = self._lat_arrays(r)
        lat_stats = self._running_stats(lats)
        if lats.size:
            pcts = {f"p{q}": float(np.percentile(lats, q))
                    for q in (50, 95, 99)}
        else:
            # Explicit empty result — mirrors ReservoirSampler.percentiles()
            # so the scalar engines and the vector engine keep identical
            # payload shapes when a run delivers no messages.
            pcts = {}
        return SimulationResult(
            offered_flits_per_switch_cycle=float(self.offered[r]),
            accepted_flits_per_switch_cycle=(
                float(self.consumed_measured[r]) / measure / self.NSW),
            avg_latency=lat_stats.mean,
            latency=lat_stats,
            total_latency=self._running_stats(tots),
            latency_percentiles=pcts,
            messages_completed=int(self.completed_in_window[r]),
            messages_generated=int(self.generated_cnt[r]),
            flits_consumed_measured=int(self.consumed_measured[r]),
            cycles_measured=measure,
            warmup_cycles=cfg.warmup_cycles,
            meta={
                "topology": self.topology.name,
                "routing": self.table.routing.name,
                "rate_msgs_per_host_cycle": self.rates[r],
                "adaptive": cfg.adaptive,
                "engine": "vector",
                **perf.meta_counters(),
            },
            perf=perf.wall_times(),
        )

    def check_invariants(self, r: int) -> None:
        """Conservation/exclusivity checks for one member's worm state."""
        S, C, N = self.S, self.C, self.N
        lo = r * S
        strm = self.streaming[lo:lo + S]
        if strm.any():
            # Fold streamed (skipped) cycles into consumed/to_inject so
            # the conservation sums below see materialized state; the
            # worms then simply resume per-cycle processing.
            self._unstream(np.flatnonzero(strm) + lo, self.iterations)
        occ_flat = self.occ.reshape(-1)
        chain_flat = self.chain.reshape(-1)
        seen: Dict[int, int] = {}
        for g in np.flatnonzero(self.active[lo:lo + S]) + lo:
            g = int(g)
            clen = int(self.clen[g])
            assert clen >= 1, g
            row = [int(occ_flat[g * self.W + j]) for j in range(self.W)]
            in_network = int(self.need[g] - self.to_inject[g]
                             - self.consumed[g])
            assert sum(row[:clen]) == in_network, g
            assert all(v == 0 for v in row[clen:]), g
            for j in range(clen):
                cid = int(chain_flat[g * self.W + j])
                assert int(self.owner_flat[r * self.CO + cid]) == g, (g, cid)
                assert cid not in seen, f"channel {cid} in two chains"
                seen[cid] = g
                assert 0 <= row[j] <= int(self.cap_slot[g])
        active = {int(g) for g in
                  np.flatnonzero(self.active[lo:lo + S]) + lo}
        for cid in range(C):
            own = int(self.owner_flat[r * self.CO + cid])
            if own >= 0 and own not in active:
                raise AssertionError(
                    f"channel {cid} owned by inactive slot {own}")


#: "Never" sentinel for hosts that do not inject.
_FAR = np.int64(1) << np.int64(62)


def _dense_candidates(table: RoutingTable,
                      chan_of: Dict[Tuple[int, int], int]):
    """Dense (head*2+phase)*NSW+dst → padded candidate tables (memoized).

    Built once per routing table per process and shared by every vector
    core via :meth:`RoutingTable.engine_cache` — the vectorized analogue
    of the scalar engines' shared :meth:`RoutingTable.candidate_cache`.
    """
    cache = table.engine_cache(("vector-dense-candidates",))
    tables = cache.get("tables")
    if tables is not None:
        return tables
    nsw = table.topology.num_switches
    keys: List[List[Tuple[int, int, int]]] = []
    kmax = 1
    for s in range(nsw):
        for p in (0, 1):
            for d in range(nsw):
                cands: List[Tuple[int, int, int]] = []
                if s != d:
                    for w, ph in table.hops(s, Phase(p), d):
                        cands.append((chan_of[(s, w)], w, int(ph)))
                keys.append(cands)
                kmax = max(kmax, len(cands))
    t = len(keys)
    # Padding entries hold the sentinel channel id (one past the real
    # channels): the vector core keeps that owner cell permanently busy,
    # so padded candidates drop out of the free mask on their own.
    n_hosts = table.topology.num_hosts
    pad_cid = (max(chan_of.values()) + 1 if chan_of else 0) + n_hosts
    cand_cid = np.full((t, kmax), pad_cid, dtype=np.int64)
    cand_sw = np.zeros((t, kmax), dtype=np.int32)
    cand_ph = np.zeros((t, kmax), dtype=np.int8)
    cand_n = np.zeros(t, dtype=np.int64)
    for i, cands in enumerate(keys):
        cand_n[i] = len(cands)
        for j, (cid, w, ph) in enumerate(cands):
            cand_cid[i, j] = cid
            cand_sw[i, j] = w
            cand_ph[i, j] = ph
    dist = table.routing.distances()
    finite = np.asarray(dist, dtype=float)
    max_dist = int(np.nanmax(np.where(np.isfinite(finite), finite, 0.0)))
    # Reverse map channel -> table entries containing it (CSR layout),
    # for the blocked-worm wake lists: when a channel is released, only
    # the (replication, entry) pairs listed here can gain a free
    # candidate, so only their blocked worms need re-evaluation.
    n_chan = max(chan_of.values()) + 1 if chan_of else 0
    rev_lists: List[List[int]] = [[] for _ in range(n_chan)]
    for i, cands in enumerate(keys):
        for cid, _w, _ph in cands:
            rev_lists[cid].append(i)
    rev_cnt = np.array([len(x) for x in rev_lists], dtype=np.int64)
    rev_off = np.zeros(n_chan + 1, dtype=np.int64)
    np.cumsum(rev_cnt, out=rev_off[1:])
    rev_flat = np.array([i for x in rev_lists for i in x], dtype=np.int64)
    tables = (cand_cid, cand_sw, cand_ph, cand_n, kmax, max_dist,
              rev_cnt, rev_off, rev_flat)
    cache["tables"] = tables
    return tables


# --------------------------------------------------------------------- #
# engine seam: solo wrapper, factory, bulk API
# --------------------------------------------------------------------- #


class VectorWormholeNetworkSimulator:
    """Single-replication engine view over a vector core.

    The drop-in ``engine="vector"`` object built by ``make_simulator``: a
    batch of one, so solo callers (probes, stepwise tests, the CLI) use
    the vectorized kernel through the ordinary engine seam.  Results are
    deterministic for a given seed but only *statistically equivalent* to
    the bit-identical engines — see the module docstring.  For real
    vector wins hand many compatible jobs to :func:`simulate_batch_vector`.
    """

    ENGINE_NAME = "vector"

    def __init__(self, routing_table: RoutingTable, traffic: TrafficPattern,
                 injection_rate: float,
                 config: SimulationConfig = SimulationConfig()):
        if config.virtual_channels != 1:
            raise ValueError(
                "VectorWormholeNetworkSimulator requires virtual_channels"
                " == 1; build via make_simulator, which runs multi-VC"
                " configs on the reference engine"
            )
        self.table = routing_table
        self.topology = routing_table.topology
        self.traffic = traffic
        self.rate = injection_rate
        self.config = config
        self._core = _VectorCore(routing_table,
                                 [(traffic, injection_rate, config)])

    @property
    def cycle(self) -> int:
        return int(self._core.clock[0])

    @property
    def generated(self) -> int:
        return int(self._core.generated_cnt[0])

    @property
    def trace(self) -> List[Tuple[int, int, int, int]]:
        return self._core.traces[0]

    @property
    def perf(self) -> EnginePerf:
        return self._core.fill_perf(0)

    def step(self) -> None:
        """Advance exactly one cycle (no quiescence skipping)."""
        core = self._core
        target = int(core.clock[0]) + 1
        saved = int(core.total[0])
        if target > saved:
            core.total[0] = target
        core.live[0] = core.clock[0] < core.total[0]
        # Stepping may revive a replication that already ran past its
        # total, whose queued-host injection triggers were dropped while
        # it was dead — re-seed them (batch of one, so the scan is tiny).
        pending = np.flatnonzero(core.qlen_flat > 0)
        if pending.size:
            core._inj_try = np.union1d(core._inj_try, pending)
        core.advance(allow_skip=False, max_iterations=1)
        core.total[0] = max(saved, int(core.clock[0]))
        core.live[0] = core.clock[0] < core.total[0]

    def run(self) -> SimulationResult:
        """Run warmup + measurement and return the measured point."""
        core = self._core
        total = self.config.warmup_cycles + self.config.measure_cycles
        with _trace.span("engine.run", engine=self.ENGINE_NAME,
                         rate=self.rate, cycles=total) as sp:
            core.advance(allow_skip=True)
            result = core.result(0)
            sp.set(accepted=result.accepted_flits_per_switch_cycle,
                   avg_latency=result.avg_latency)
        _record_vector_metrics(core)
        record_engine_metrics(result)
        return result

    def _result(self) -> SimulationResult:
        return self._core.result(0)

    def check_invariants(self) -> None:
        """Run the core's conservation/exclusivity checks on this member."""
        self._core.check_invariants(0)


def _record_vector_metrics(core: _VectorCore) -> None:
    """Vector-specific observability counters (no-op when telemetry off)."""
    if _metrics.current_registry() is None:
        return
    _metrics.inc("engine.vector.cycles", float(core.iterations))
    _metrics.observe("engine.vector.batch_reps", float(core.R))
    if core.iterations:
        # Mean array-op batch size: live replications per lockstep cycle.
        _metrics.observe("engine.vector.live_reps_per_cycle",
                         float(core.executed.sum()) / core.iterations)


def simulate_batch_vector(
    jobs: Sequence[Tuple[RoutingTable, TrafficPattern, float,
                         SimulationConfig]],
) -> List[SimulationResult]:
    """Simulate every ``(table, traffic, rate, config)`` job as one
    vectorized batch.

    Returns one :class:`SimulationResult` per job, in order.  Each
    member's result is deterministic given its seed and independent of
    the batch composition (per-replication counter RNG streams, disjoint
    state partitions), but only statistically equivalent to the
    bit-identical engines.  Multi-VC jobs run one by one on the reference
    engine.  Raises :class:`BatchCompatibilityError` unless the jobs
    share one routing-table object and one ``virtual_channels`` value.
    """
    jobs = list(jobs)
    check_batch_compatible(jobs)
    table = jobs[0][0]
    vcs = jobs[0][3].virtual_channels
    with _trace.span("engine.vector", engine="vector", members=len(jobs),
                     vcs=vcs) as sp:
        if vcs == 1:
            core = _VectorCore(table, [(traffic, rate, cfg)
                                       for _t, traffic, rate, cfg in jobs])
            core.advance(allow_skip=True)
            results = [core.result(r) for r in range(core.R)]
            _record_vector_metrics(core)
            for res in results:
                record_engine_metrics(res)
        else:
            # Each reference run records its own engine metrics.
            results = [make_simulator(table, traffic, rate, cfg).run()
                       for _t, traffic, rate, cfg in jobs]
        sp.set(completed=sum(res.messages_completed for res in results))
    return results


__all__ = [
    "BatchCompatibilityError",
    "VectorWormholeNetworkSimulator",
    "check_batch_compatible",
    "simulate_batch_vector",
]
