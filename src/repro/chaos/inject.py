"""Fault injectors: the chaotic executor, worker killer, and wire proxy.

Three injection points, one per layer of the service stack:

- :class:`ChaoticExecutor` replaces the daemon's batch executor
  (``ServiceConfig.executor``) and misbehaves *inside the worker
  process* according to a :mod:`repro.chaos.plan` — crash (``os._exit``),
  hang, raise, or run slow — before delegating to the real
  :func:`repro.service.batch.execute_batch`.  It is picklable (it
  crosses the pool boundary) and uses **file-based once-latches** so a
  fault keyed to batch *N* fires exactly once even though the re-dispatch
  of batch *N* runs in a *different, fresh* worker process that shares no
  memory with the crashed one.
- :func:`kill_workers` SIGKILLs a pool's live worker processes from the
  outside — the "node loss mid-batch" fault no in-process injector can
  fake.
- :class:`ChaosProxy` sits between a client and the daemon as a real TCP
  proxy and mangles *reply* frames per a seeded wire plan: tear (partial
  bytes then close), drop (close before the reply), or garbage (replace
  the frame).  Client→server bytes pass through untouched — the flood of
  *malformed requests* is driven directly by the harness, where each
  mutated frame is deterministic.

Nothing here is imported by production code; the service stack stays
chaos-free unless a test, the ``repro chaos`` CLI, or a bench wires an
injector in explicitly.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.chaos.plan import FaultAction
from repro.obs import trace as _trace
from repro.parallel import WorkerPool
from repro.service.batch import execute_batch
from repro.service.store import ResultStore

#: Exit code a chaos-crashed worker dies with (distinguishable from
#: signals and from Python tracebacks in post-mortems).
CRASH_EXIT_CODE = 13


class ChaoticExecutor:
    """A picklable batch executor that injects planned faults.

    Drop-in for ``ServiceConfig.executor``: called as ``(seq, payloads)``
    with the daemon's batch sequence number.  When ``plan``
    holds an action for ``seq`` — and its once-latch (a file created
    ``O_CREAT | O_EXCL`` under ``latch_dir``) is won — the action fires
    *in the worker process*:

    - ``crash`` — ``os._exit(13)``: the process dies mid-batch, the pool
      breaks, the supervisor must restart and re-dispatch;
    - ``hang`` — sleep ``delay`` seconds (set it beyond the service
      deadline to simulate a wedged worker);
    - ``error`` — raise ``RuntimeError`` (the job's own failure path);
    - ``slow`` — sleep ``delay`` then execute normally.

    The latch is what makes ``crash`` testable at all: the re-dispatched
    batch carries the *same* sequence number, runs in a fresh process,
    finds the latch file already claimed, and executes cleanly.  With
    ``once=False`` the latch is skipped and the fault fires on every
    attempt — the crash-loop fuel for circuit-breaker scenarios.
    """

    def __init__(self, plan: Dict[int, FaultAction], latch_dir: str, *,
                 once: bool = True):
        self.plan = {int(k): v for k, v in plan.items()}
        self.latch_dir = str(latch_dir)
        self.once = once

    def _claim(self, seq: int) -> bool:
        """Win the once-latch for ``seq`` (True exactly once per seq)."""
        if not self.once:
            return True
        os.makedirs(self.latch_dir, exist_ok=True)
        path = os.path.join(self.latch_dir, f"fault-{seq}")
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        os.close(fd)
        return True

    def __call__(self, seq: int,
                 payloads: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Run one batch, injecting the planned fault for ``seq`` first."""
        action = self.plan.get(int(seq))
        if action is not None and self._claim(seq):
            if action.kind == "crash":
                os._exit(CRASH_EXIT_CODE)
            if action.kind == "hang":
                time.sleep(action.delay)
            elif action.kind == "error":
                raise RuntimeError(
                    f"chaos: injected worker error on batch {seq}")
            elif action.kind == "slow":
                time.sleep(action.delay)
        return execute_batch(payloads)


def kill_workers(pool: WorkerPool, *, sig: int = signal.SIGKILL) -> int:
    """SIGKILL a pool's live worker processes; returns how many died.

    The external node-loss fault: unlike :class:`ChaoticExecutor`'s
    ``crash`` (which a worker does to itself at a planned batch), this
    murders every worker from outside at an arbitrary moment — in-flight
    batches break, and the supervisor must restart and re-dispatch.
    """
    executor = getattr(pool, "_executor", None)
    if executor is None:
        return 0
    killed = 0
    for proc in list(getattr(executor, "_processes", {}).values()):
        if proc.is_alive() and proc.pid is not None:
            try:
                os.kill(proc.pid, sig)
                killed += 1
            except (ProcessLookupError, OSError):  # pragma: no cover - raced
                pass
    _trace.event("chaos.workers_killed", count=killed)
    return killed


def corrupt_store_entry(store: ResultStore, key: str) -> bool:
    """Flip a stored response behind the store's back; True if it existed.

    Mutates the entry's value dict *in place*, leaving its integrity
    digest stale — exactly the damage a buggy sharer or a bit-flip would
    do.  The store's digest check must then detect the mismatch on the
    next :meth:`~repro.service.store.ResultStore.get`, drop the entry
    and force a recompute instead of serving the corrupted payload.
    """
    with store._lock:
        entry = store._entries.get(key)
        if entry is None:
            return False
        value = entry[1]
        value["f_g"] = -1e18            # a score no scheduler produces
        value["_chaos"] = "corrupted"
    _trace.event("chaos.store_corrupted", key=key[:12])
    return True


class ChaosProxy:
    """A real TCP proxy that mangles server→client reply frames.

    Sits on an ephemeral loopback port (``.address``), forwards every
    client byte upstream untouched, and runs each *reply* frame through
    ``reply_plan(conn_index, frame_index) -> action``:

    - ``"forward"`` — pass the frame through;
    - ``"tear"``   — send roughly half the frame's bytes, then kill the
      connection (the client sees a torn reply);
    - ``"drop"``   — kill the connection without sending anything (the
      classic died-between-submit-and-reply fault);
    - ``"garbage"``— replace the frame with a non-JSON line.

    Connection indices are assigned in accept order and frame indices
    per connection, so with a pure ``reply_plan`` (see
    :func:`repro.chaos.plan.wire_action`) the proxy's behaviour is a
    deterministic function of the seed for a sequential client.
    """

    def __init__(self, upstream_host: str, upstream_port: int, *,
                 reply_plan: Callable[[int, int], str]):
        self._upstream = (upstream_host, int(upstream_port))
        self._reply_plan = reply_plan
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.2)
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._open_sockets: List[socket.socket] = []
        self._conn_index = 0
        self.faults_injected = 0
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="chaos-proxy-accept", daemon=True)
        self._accept_thread.start()

    # -------------------------------------------------------------- #

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                client, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with self._lock:
                conn_index = self._conn_index
                self._conn_index += 1
            try:
                upstream = socket.create_connection(self._upstream,
                                                    timeout=30.0)
            except OSError:
                client.close()
                continue
            self._track(client)
            self._track(upstream)
            threading.Thread(target=self._pump_raw,
                             args=(client, upstream),
                             name=f"chaos-proxy-up-{conn_index}",
                             daemon=True).start()
            threading.Thread(target=self._pump_frames,
                             args=(upstream, client, conn_index),
                             name=f"chaos-proxy-down-{conn_index}",
                             daemon=True).start()

    def _track(self, sock: socket.socket) -> None:
        with self._lock:
            self._open_sockets.append(sock)

    def _pump_raw(self, src: socket.socket, dst: socket.socket) -> None:
        """client → upstream: verbatim passthrough."""
        try:
            while True:
                data = src.recv(65536)
                if not data:
                    break
                dst.sendall(data)
        except OSError:
            pass
        finally:
            self._shutdown_pair(src, dst)

    def _pump_frames(self, src: socket.socket, dst: socket.socket,
                     conn_index: int) -> None:
        """upstream → client: frame-aware, applies the reply plan."""
        frame_index = 0
        rfile = src.makefile("rb")
        try:
            while True:
                frame = rfile.readline()
                if not frame:
                    break
                action = self._reply_plan(conn_index, frame_index)
                frame_index += 1
                if action == "forward":
                    dst.sendall(frame)
                    continue
                self.faults_injected += 1
                _trace.event("chaos.proxy_fault", action=action,
                             conn=conn_index, frame=frame_index - 1)
                if action == "tear":
                    dst.sendall(frame[:max(1, len(frame) // 2)])
                elif action == "garbage":
                    dst.sendall(b"!!chaos-garbage!!\n")
                # tear/drop/garbage all end the connection: the client
                # must reconnect, which is the point.
                break
        except OSError:
            pass
        finally:
            rfile.close()
            self._shutdown_pair(src, dst)

    @staticmethod
    def _shutdown_pair(a: socket.socket, b: socket.socket) -> None:
        # shutdown() before close(): a sibling pump thread blocked in
        # recv() on the same socket holds the kernel file open, so a bare
        # close() would defer the FIN until that recv returns — the peer
        # would wait out its full socket timeout instead of seeing EOF.
        for sock in (a, b):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass

    # -------------------------------------------------------------- #

    def close(self) -> None:
        """Stop accepting and tear down every proxied connection."""
        self._stop.set()
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            sockets, self._open_sockets = self._open_sockets, []
        for sock in sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> "ChaosProxy":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


__all__ = [
    "CRASH_EXIT_CODE",
    "ChaoticExecutor",
    "ChaosProxy",
    "corrupt_store_entry",
    "kill_workers",
]
