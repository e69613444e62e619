"""Result-store tests: TTL with a stepped clock, LRU eviction, counters."""

from __future__ import annotations

import threading

import pytest

from repro.obs import MetricsRegistry, use_registry
from repro.service.store import ResultStore


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def counts():
    """The ``service.store.*`` counts on a fresh active registry."""
    registry = MetricsRegistry()

    def _counts(kind: str) -> float:
        counters = registry.snapshot()["counters"]
        return counters.get(f"service.store.{kind}", 0)

    with use_registry(registry):
        yield _counts


class TestBasics:
    def test_put_get_round_trip(self, clock):
        store = ResultStore(clock=clock)
        store.put("a", {"v": 1})
        assert store.get("a") == {"v": 1}
        assert "a" in store and len(store) == 1

    def test_missing_key_is_a_miss(self, clock, counts):
        store = ResultStore(clock=clock)
        assert store.get("nope") is None
        assert counts("misses") == 1

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ResultStore(ttl=0)
        with pytest.raises(ValueError):
            ResultStore(max_entries=0)


class TestTTL:
    def test_entries_expire(self, clock, counts):
        store = ResultStore(ttl=10.0, clock=clock)
        store.put("a", {"v": 1})
        clock.advance(10.0)
        assert store.get("a") == {"v": 1}  # exactly at TTL: still alive
        clock.advance(0.1)
        assert store.get("a") is None
        assert counts("expirations") == 1
        assert "a" not in store

    def test_put_refreshes_the_clock(self, clock):
        store = ResultStore(ttl=10.0, clock=clock)
        store.put("a", {"v": 1})
        clock.advance(9.0)
        store.put("a", {"v": 2})
        clock.advance(9.0)
        assert store.get("a") == {"v": 2}

    def test_ttl_none_never_expires(self, clock):
        store = ResultStore(ttl=None, clock=clock)
        store.put("a", {"v": 1})
        clock.advance(1e9)
        assert store.get("a") == {"v": 1}


class TestLRU:
    def test_capacity_evicts_least_recently_used(self, clock, counts):
        store = ResultStore(ttl=None, max_entries=2, clock=clock)
        store.put("a", {"v": 1})
        store.put("b", {"v": 2})
        store.get("a")               # b is now the LRU entry
        store.put("c", {"v": 3})
        assert store.get("b") is None
        assert store.get("a") == {"v": 1}
        assert counts("evictions") == 1


class TestStats:
    def test_hit_rate(self, clock, counts):
        store = ResultStore(clock=clock)
        store.put("a", {})
        store.get("a")
        store.get("a")
        store.get("x")
        assert (counts("hits"), counts("misses")) == (2, 1)

    def test_clear_keeps_counters(self, clock, counts):
        store = ResultStore(clock=clock)
        store.put("a", {})
        store.get("a")
        store.clear()
        assert len(store) == 0
        assert counts("hits") == 1


class TestThreadSafety:
    def test_concurrent_put_get(self):
        store = ResultStore(ttl=None, max_entries=64)
        errors = []

        def hammer(tid: int) -> None:
            try:
                for i in range(200):
                    key = f"k{(tid * 7 + i) % 32}"
                    store.put(key, {"tid": tid, "i": i})
                    store.get(key)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(store) <= 64
