"""Benchmark: recovery latency after worker kill + degraded-mode throughput.

Two phases against live loopback daemons, both quantifying the
self-healing tier rather than raw speed:

* **recovery** — SIGKILL every pool worker, then immediately submit and
  time how long the supervised restart + re-dispatch path takes to
  produce a byte-correct reply, versus the fault-free baseline latency
  measured on the same daemon.
* **degraded** — trip the circuit breaker with a crash-looping executor,
  then drive concurrent submits at the open breaker and measure how fast
  the daemon sheds them with typed ``degraded`` + ``retry_after`` errors
  (overload protection must be cheap), confirming ``ping`` stays live.

Writes ``benchmarks/BENCH_chaos.json``.  The assertions below are the
only gate: a restart per kill, a ``retry_after`` on every reject and a
live ``ping``.  Recovery latency is recorded, not bounded.
"""

import json
import os
import threading
import time
from pathlib import Path

from conftest import run_once

from repro.chaos import ChaoticExecutor, crash_at, kill_workers
from repro.service import (
    BreakerConfig,
    ScheduleRequest,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    execute_request,
    running_service,
)
from repro.topology.irregular import random_irregular_topology

BENCH_PATH = Path(__file__).parent / "BENCH_chaos.json"

KILLS = int(os.environ.get("REPRO_BENCH_CHAOS_KILLS", 4))
DEGRADED_CLIENTS = int(os.environ.get("REPRO_BENCH_CHAOS_CLIENTS", 8))
DEGRADED_ROUNDS = int(os.environ.get("REPRO_BENCH_CHAOS_ROUNDS", 25))
WORKERS = 2


def _requests(n, base_seed):
    topo = random_irregular_topology(8, seed=101, name="bench-chaos8")
    return [ScheduleRequest.build(topo, clusters=4, seed=base_seed + i)
            for i in range(n)]


def _canon(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _recovery_phase():
    """Baseline latency, then KILLS rounds of kill-all-workers -> submit."""
    config = ServiceConfig(port=0, workers=WORKERS, max_redispatch=2,
                           request_deadline=60.0)
    baseline, recovery, restarts = [], [], 0
    requests = _requests(2 + 2 * KILLS, base_seed=500)
    with running_service(config) as service:
        with ServiceClient(*service.address, timeout=300.0) as client:
            # Warm the pool and measure the fault-free floor.
            for request in requests[:2]:
                t0 = time.perf_counter()
                reply = client.submit(request)
                baseline.append(time.perf_counter() - t0)
                assert _canon(reply["result"]) \
                    == _canon(execute_request(request.to_dict()))
            for round_index in range(KILLS):
                killed = kill_workers(service.pool)
                assert killed >= 1, "no live workers to kill"
                request = requests[2 + 2 * round_index]
                t0 = time.perf_counter()
                reply = client.submit(request)
                recovery.append(time.perf_counter() - t0)
                assert _canon(reply["result"]) \
                    == _canon(execute_request(request.to_dict())), \
                    "post-kill reply diverged"
        restarts = service.status().supervisor["restarts"]
    return {
        "kills": KILLS,
        "baseline_latency_ms": round(
            1000 * sum(baseline) / len(baseline), 3),
        "recovery_latency_ms_mean": round(
            1000 * sum(recovery) / len(recovery), 3),
        "recovery_latency_ms_max": round(1000 * max(recovery), 3),
        "supervisor_restarts": restarts,
    }


def _degraded_phase(tmp_dir):
    """Open the breaker, then measure typed-reject throughput at it."""
    executor = ChaoticExecutor(crash_at(*range(1, 200)),
                               str(Path(tmp_dir) / "latch"), once=False)
    config = ServiceConfig(
        port=0, workers=WORKERS, executor=executor,
        max_redispatch=0, request_deadline=60.0,
        breaker=BreakerConfig(failure_threshold=1, reset_timeout=120.0))
    trip_request = _requests(1, base_seed=900)[0]
    load_requests = _requests(DEGRADED_CLIENTS, base_seed=910)
    rejects = []
    errors = []
    lock = threading.Lock()
    barrier = threading.Barrier(DEGRADED_CLIENTS + 1)
    with running_service(config) as service:
        host, port = service.address
        with ServiceClient(host, port, timeout=300.0) as client:
            # One doomed submit crashes its job and opens the breaker.
            try:
                client.submit(trip_request)
            except ServiceError as exc:
                assert exc.code in ("crashed", "degraded"), exc.code
            assert service.supervisor.breaker.state == "open"

            def hammer(idx):
                try:
                    with ServiceClient(host, port, timeout=60.0) as cli:
                        barrier.wait()
                        for _ in range(DEGRADED_ROUNDS):
                            try:
                                cli.submit(load_requests[idx])
                                with lock:
                                    errors.append(
                                        f"client {idx}: submit was accepted "
                                        "at an open breaker")
                            except ServiceError as exc:
                                with lock:
                                    rejects.append(
                                        exc.extra.get("retry_after"))
                except Exception as exc:
                    with lock:
                        errors.append(f"client {idx}: {exc!r}")
                    try:
                        barrier.abort()
                    except Exception:
                        pass

            threads = [threading.Thread(target=hammer, args=(i,),
                                        daemon=True)
                       for i in range(DEGRADED_CLIENTS)]
            for t in threads:
                t.start()
            barrier.wait()
            t0 = time.perf_counter()
            for t in threads:
                t.join()
            wall = time.perf_counter() - t0
            ping_ok = bool(client.ping().get("ok"))
    assert not errors, errors
    total = DEGRADED_CLIENTS * DEGRADED_ROUNDS
    assert len(rejects) == total
    return {
        "clients": DEGRADED_CLIENTS,
        "rounds_per_client": DEGRADED_ROUNDS,
        "rejects": len(rejects),
        "reject_throughput_rps": round(total / wall, 2),
        "retry_after_present": all(r is not None and r > 0
                                   for r in rejects),
        "ping_ok_while_degraded": ping_ok,
    }


def _render(recovery, degraded):
    lines = ["chaos benchmark",
             f"  baseline latency:      "
             f"{recovery['baseline_latency_ms']:.1f} ms",
             f"  recovery latency mean: "
             f"{recovery['recovery_latency_ms_mean']:.1f} ms "
             f"(max {recovery['recovery_latency_ms_max']:.1f} ms over "
             f"{recovery['kills']} kills)",
             f"  supervisor restarts:   {recovery['supervisor_restarts']}",
             f"  degraded rejects:      {degraded['rejects']} at "
             f"{degraded['reject_throughput_rps']:.0f} rejects/s",
             f"  retry_after present:   {degraded['retry_after_present']}",
             f"  ping while degraded:   {degraded['ping_ok_while_degraded']}"]
    return "\n".join(lines)


def test_bench_chaos(benchmark, record, tmp_path):
    recovery = _recovery_phase()
    degraded = run_once(benchmark, lambda: _degraded_phase(tmp_path))

    record("chaos_bench", _render(recovery, degraded))

    assert recovery["supervisor_restarts"] >= KILLS
    assert degraded["retry_after_present"]
    assert degraded["ping_ok_while_degraded"]

    payload = {
        "benchmark": "chaos",
        "workers": WORKERS,
        "recovery": recovery,
        "degraded": degraded,
        "invariant_ok": True,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n{json.dumps(payload, indent=2)}\n[written to {BENCH_PATH.name}]")
