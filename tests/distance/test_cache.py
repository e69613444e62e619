"""Tests for the distance/routing-table cache."""

import pytest

from repro.obs.metrics import MetricsRegistry, use_registry
from repro.distance.cache import (
    TableCache,
    cached_distance_table,
    cached_routing_table,
    configure_cache,
    routing_cache_key,
    topology_fingerprint,
)
from repro.distance.table import build_distance_table
from repro.routing.tables import RoutingTable
from repro.routing.updown import UpDownRouting
from repro.topology.graph import Topology
from repro.topology.irregular import random_irregular_topology


def _ring(n=6, name="ring"):
    return Topology(n, [(i, (i + 1) % n) for i in range(n)], name=name)


class TestFingerprint:
    def test_equal_content_equal_fingerprint(self):
        # Identity and name do not matter, only structure.
        assert topology_fingerprint(_ring(name="a")) == topology_fingerprint(
            _ring(name="b")
        )

    def test_removing_link_changes_fingerprint(self, topo8):
        u, v = topo8.links[0]
        assert topology_fingerprint(topo8) != topology_fingerprint(
            topo8.without_link(u, v)
        )

    def test_adding_link_changes_fingerprint(self):
        base = _ring()
        chord = Topology(6, list(base.links) + [(0, 3)])
        assert topology_fingerprint(base) != topology_fingerprint(chord)

    def test_host_count_changes_fingerprint(self):
        a = Topology(6, [(i, (i + 1) % 6) for i in range(6)], hosts_per_switch=2)
        b = Topology(6, [(i, (i + 1) % 6) for i in range(6)], hosts_per_switch=4)
        assert topology_fingerprint(a) != topology_fingerprint(b)

    def test_different_sizes_differ(self):
        assert topology_fingerprint(_ring(6)) != topology_fingerprint(_ring(8))


class TestRoutingCacheKey:
    def test_distance_kinds_get_distinct_keys(self, routing8):
        assert routing_cache_key(routing8, "distance:equivalent") != \
            routing_cache_key(routing8, "distance:hops")

    def test_root_is_part_of_the_key(self, topo8):
        a = UpDownRouting(topo8, root=0)
        b = UpDownRouting(topo8, root=1)
        assert routing_cache_key(a, "x") != routing_cache_key(b, "x")


class TestTableCache:
    def test_hit_and_miss_accounting(self):
        cache = TableCache(maxsize=4)
        builds = []
        for _ in range(3):
            cache.get_or_build("k", lambda: builds.append(1) or "v")
        st = cache.stats()
        assert len(builds) == 1
        assert (st.hits, st.misses, st.evictions) == (2, 1, 0)
        assert st.hit_rate == pytest.approx(2 / 3)

    def test_lru_eviction(self):
        cache = TableCache(maxsize=2)
        cache.get_or_build("a", lambda: 1)
        cache.get_or_build("b", lambda: 2)
        cache.get_or_build("a", lambda: 1)   # refresh a — b is now LRU
        cache.get_or_build("c", lambda: 3)   # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats().evictions == 1
        assert len(cache) == 2

    def test_clear_resets_everything(self):
        cache = TableCache(maxsize=2)
        cache.get_or_build("a", lambda: 1)
        cache.get_or_build("a", lambda: 1)
        cache.clear()
        st = cache.stats()
        assert (st.hits, st.misses, st.size) == (0, 0, 0)

    def test_invalid_maxsize(self):
        with pytest.raises(ValueError):
            TableCache(maxsize=0)


class TestRegistryCounters:
    """Each lookup ticks cache.<name>.{hits,misses,evictions} counters."""

    def test_hits_misses_and_evictions_counted(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            cache = TableCache(maxsize=2, name="test")
            cache.get_or_build("a", lambda: 1)   # miss
            cache.get_or_build("a", lambda: 1)   # hit
            cache.get_or_build("b", lambda: 2)   # miss
            cache.get_or_build("c", lambda: 3)   # miss + eviction of a
        counters = reg.snapshot()["counters"]
        assert counters["cache.test.hits"] == 1.0
        assert counters["cache.test.misses"] == 3.0
        assert counters["cache.test.evictions"] == 1.0
        # Registry agrees with the cache's own accounting.
        st = cache.stats()
        assert (st.hits, st.misses, st.evictions) == (1, 3, 1)

    def test_default_cache_name_is_tables(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            TableCache(maxsize=2).get_or_build("k", lambda: 1)
        assert reg.snapshot()["counters"]["cache.tables.misses"] == 1.0

    def test_no_registry_means_no_error(self):
        cache = TableCache(maxsize=2)
        assert cache.get_or_build("k", lambda: 41 + 1) == 42
        assert cache.stats().misses == 1


class TestCachedBuilders:
    def test_distance_table_built_once(self, routing8):
        cache = TableCache()
        t1 = cached_distance_table(routing8, cache=cache)
        t2 = cached_distance_table(routing8, cache=cache)
        assert t1 is t2
        assert cache.stats().misses == 1 and cache.stats().hits == 1

    def test_cached_value_matches_direct_build(self, routing8):
        cached = cached_distance_table(routing8, cache=TableCache())
        direct = build_distance_table(routing8)
        n = direct.num_nodes
        assert all(
            cached[i, j] == direct[i, j] for i in range(n) for j in range(n)
        )

    def test_kinds_are_separate_entries(self, routing8):
        cache = TableCache()
        eq = cached_distance_table(routing8, kind="equivalent", cache=cache)
        hops = cached_distance_table(routing8, kind="hops", cache=cache)
        assert eq is not hops
        assert cache.stats().misses == 2

    def test_unknown_kind_rejected(self, routing8):
        with pytest.raises(ValueError):
            cached_distance_table(routing8, kind="euclid", cache=TableCache())

    def test_topology_mutation_misses(self, topo8):
        cache = TableCache()
        cached_distance_table(UpDownRouting(topo8), cache=cache)
        u, v = topo8.links[0]
        degraded = topo8.without_link(u, v)
        cached_distance_table(UpDownRouting(degraded), cache=cache)
        assert cache.stats().misses == 2 and cache.stats().hits == 0

    def test_equal_topologies_share_entry(self):
        cache = TableCache()
        r1 = UpDownRouting(random_irregular_topology(8, seed=7))
        r2 = UpDownRouting(random_irregular_topology(8, seed=7))
        assert r1.topology is not r2.topology
        t1 = cached_distance_table(r1, cache=cache)
        t2 = cached_distance_table(r2, cache=cache)
        assert t1 is t2

    def test_routing_table_cached(self, routing8):
        cache = TableCache()
        rt1 = cached_routing_table(routing8, cache=cache)
        rt2 = cached_routing_table(routing8, cache=cache)
        assert rt1 is rt2
        assert isinstance(rt1, RoutingTable)


class TestModuleCacheToggle:
    def test_enabled_cache_shares(self, routing8):
        configure_cache(clear=True)
        assert cached_distance_table(routing8) is cached_distance_table(routing8)
