"""Per-source supports and batched solves against the per-pair oracle.

``shortest_path_supports`` computes one source's shortest-path link sets
in a single array expression, and ``build_distance_table`` solves the
resistor networks of all sources in stacked pseudoinverses of equal-size
networks.  The oracles below are the per-pair computations they replaced:
a state-edge scan per pair over a state graph and BFS of their own, built
only from the public ``is_up`` and ``topology.links``, and one dense
Laplacian and ``pinv`` per pair.  Results must be equal bit for bit.
"""

from collections import deque
from functools import lru_cache
from typing import Dict, List

import numpy as np
import pytest

from repro.distance import resistance
from repro.distance.resistance import equivalent_resistance, table_resistances
from repro.distance.table import build_distance_table
from repro.routing.base import Phase
from repro.routing.minimal import MinimalRouting
from repro.routing.updown import UpDownRouting
from repro.topology.irregular import random_irregular_topology


@lru_cache(maxsize=None)
def _state_edges(routing):
    """Up*/down* state graph rebuilt from the public ``is_up``: an up hop
    keeps phase UP, a down hop from either phase lands in DOWN."""
    edges = []
    for u, v in routing.topology.links:
        for a, b in ((u, v), (v, u)):
            if routing.is_up(a, b):
                edges.append(((a, Phase.UP), (b, Phase.UP)))
            else:
                edges.append(((a, Phase.UP), (b, Phase.DOWN)))
                edges.append(((a, Phase.DOWN), (b, Phase.DOWN)))
    return tuple(edges)


def _queue_bfs(edges, sources):
    """Hop distance from the nearest source to every reached state."""
    succ = {}
    for x, y in edges:
        succ.setdefault(x, []).append(y)
    dist = {s: 0 for s in sources}
    queue = deque(sources)
    while queue:
        x = queue.popleft()
        for y in succ.get(x, ()):
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def oracle_updown_links(routing, src, dst):
    """Scan every state edge for one pair: forward BFS from ``(src, UP)``,
    backward BFS to either phase of ``dst``."""
    if src == dst:
        return frozenset()
    edges = _state_edges(routing)
    df = _queue_bfs(edges, [(src, Phase.UP)])
    db = _queue_bfs([(y, x) for x, y in edges], [(dst, Phase.UP), (dst, Phase.DOWN)])
    total = min(df[(dst, p)] for p in Phase if (dst, p) in df)
    return frozenset(
        (min(x[0], y[0]), max(x[0], y[0])) for x, y in edges
        if x in df and y in db and df[x] + 1 + db[y] == total
    )


def oracle_minimal_links(routing, src, dst, d):
    """Test every link in both directions against hop distances ``d``."""
    if src == dst:
        return frozenset()
    dsrc, ddst, total = d[src], d[dst], int(d[src, dst])
    return frozenset(
        (u, v) for u, v in routing.topology.links
        if dsrc[u] + 1 + ddst[v] == total or dsrc[v] + 1 + ddst[u] == total
    )


def oracle_resistance(links, a, b):
    """One dense Laplacian over the sorted nodes, one ``pinv``."""
    adj: Dict[int, List[int]] = {}
    for u, v in links:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    index = {node: i for i, node in enumerate(sorted(adj))}
    lap = np.zeros((len(index), len(index)))
    for u, v in links:
        iu, iv = index[u], index[v]
        lap[iu, iu] += 1.0
        lap[iv, iv] += 1.0
        lap[iu, iv] -= 1.0
        lap[iv, iu] -= 1.0
    pinv = np.linalg.pinv(lap, hermitian=True)
    ia, ib = index[a], index[b]
    return float(pinv[ia, ia] + pinv[ib, ib] - 2.0 * pinv[ia, ib])


def oracle_table(routing, oracle_links):
    n = routing.topology.num_switches
    t = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            t[i, j] = t[j, i] = oracle_resistance(oracle_links(routing, i, j), i, j)
    return t


def routings(n, seed, degree):
    """Up*/down* from three roots and minimal routing, each with its oracle."""
    topo = random_irregular_topology(n, degree=degree, seed=seed)
    for root in (None, 0, n - 1):
        yield UpDownRouting(topo, root=root), oracle_updown_links
    d = topo.hop_distances()
    yield MinimalRouting(topo), lambda r, i, j: oracle_minimal_links(r, i, j, d)


@pytest.mark.parametrize("n, seed, degree", [
    (8, 1, 3), (10, 2, 4), (16, 3, 3), (24, 4, 4), (34, 5, 3), (48, 6, 3),
])
def test_supports_and_table_match_oracle(n, seed, degree):
    for routing, oracle_links in routings(n, seed, degree):
        links = routing.topology.links
        for src in range(n):
            supports = routing.shortest_path_supports(src)
            assert supports.shape == (n, len(links))
            for dst in range(n):
                row = frozenset(links[k] for k in np.flatnonzero(supports[dst]))
                assert row == oracle_links(routing, src, dst), (routing.name, src, dst)
        table = build_distance_table(routing).values
        assert np.array_equal(table, oracle_table(routing, oracle_links)), routing.name


def test_equivalent_resistance_matches_oracle():
    rng = np.random.default_rng(3)
    for _ in range(30):
        path = {(i, i + 1) for i in range(11)}  # keeps the network connected
        extra = {tuple(sorted(int(x) for x in rng.choice(12, 2, replace=False)))
                 for _ in range(int(rng.integers(0, 20)))}
        links = sorted(path | extra)
        for a, b in ((0, 11), (3, 4), (7, 2)):
            assert equivalent_resistance(links, a, b) == oracle_resistance(links, a, b)


@pytest.mark.parametrize("stack_entries", [1, 1 << 30],
                         ids=["one-network", "whole-table"])
def test_table_does_not_depend_on_the_stack_cap(monkeypatch, stack_entries):
    """Every network solved alone, or each size in one stack for the whole
    table: the same bits as the default cap."""
    cases = [routing for routing, _ in routings(48, 6, 3)]
    cases.append(UpDownRouting(random_irregular_topology(64, degree=4, seed=7)))
    default = [build_distance_table(routing).values for routing in cases]
    monkeypatch.setattr(resistance, "_STACK_ENTRIES", stack_entries)
    for routing, want in zip(cases, default):
        assert np.array_equal(build_distance_table(routing).values, want)


def test_support_missing_an_endpoint_raises():
    ends = np.array([(0, 1), (1, 2), (2, 3)])
    supports = np.array([[True, False, False],    # 0 -> 1: connected
                         [True, False, False]])   # 0 -> 2: 2 is not on it
    sources = [(0, np.array([1, 2]), supports)]
    with pytest.raises(ValueError, match="nodes 0 and 2 are not connected"):
        table_resistances(4, ends, sources)
