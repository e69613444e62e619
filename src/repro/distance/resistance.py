"""Equivalent electrical resistance of unit-resistor networks.

The classical identity used throughout: with ``L`` the graph Laplacian of
the resistor network and ``L⁺`` its Moore-Penrose pseudoinverse,

    R(a, b) = L⁺[a,a] + L⁺[b,b] - 2 L⁺[a,b].

The distance table needs one resistance per switch pair, each over its own
small network (the links on the pair's shortest legal paths).
:func:`support_resistances` solves all of one source's networks together:
it groups them by node count and makes one stacked
``np.linalg.pinv(..., hermitian=True)`` call per group.  Each Laplacian is
built over its sorted nodes with integer-valued entries, so every value is
bit-equal to a solve of that network alone; :func:`equivalent_resistance`
is the batch of one.  Memory is bounded per solve: a stack holds at most
``_STACK_ENTRIES`` matrix entries (2 MB of float64) unless a single
network is larger, and nothing is ever stacked across sources.
"""

from __future__ import annotations

import math
from typing import Iterable, List

import numpy as np

from repro.topology.graph import Link, bfs_distances

#: Most matrix entries in one stacked pseudoinverse; a larger group of
#: same-size networks is solved in several calls.
_STACK_ENTRIES = 1 << 18


def _component_nodes(links: List[Link], anchor: int) -> List[int]:
    """Nodes of the connected component of ``anchor`` in the link set."""
    nodes = sorted({anchor}.union(*links))
    index = {x: i for i, x in enumerate(nodes)}
    adj: List[List[int]] = [[] for _ in nodes]
    for u, v in links:
        adj[index[u]].append(index[v])
        adj[index[v]].append(index[u])
    reached = bfs_distances(adj, [index[anchor]]) >= 0
    return [x for x, r in zip(nodes, reached) if r]


def _laplacians(count: int, size: int, owner: np.ndarray, iu: np.ndarray,
                iv: np.ndarray) -> np.ndarray:
    """Stack of ``count`` unit-resistor Laplacians over ``size`` nodes each.

    Link ``k`` joins local nodes ``iu[k]`` and ``iv[k]`` of network
    ``owner[k]``.  Every entry is a sum of ±1 terms, hence exact in any
    summation order.
    """
    base = owner * (size * size)
    index = np.concatenate([base + iu * (size + 1), base + iv * (size + 1),
                            base + iu * size + iv, base + iv * size + iu])
    weight = np.repeat([1.0, 1.0, -1.0, -1.0], iu.size)
    flat = np.bincount(index, weights=weight, minlength=count * size * size)
    return flat.reshape(count, size, size)


def _solve(laps: np.ndarray, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """Resistance between local nodes ``ia[m]`` and ``ib[m]`` of ``laps[m]``."""
    pinv = np.linalg.pinv(laps, hermitian=True)
    m = np.arange(len(laps))
    return pinv[m, ia, ia] + pinv[m, ib, ib] - 2.0 * pinv[m, ia, ib]


def equivalent_resistance(links: Iterable[Link], a: int, b: int) -> float:
    """Equivalent resistance between ``a`` and ``b``, each link = 1 Ω.

    Node labels may be arbitrary ints; only the component containing ``a``
    is considered.  Raises ``ValueError`` when ``b`` is not connected to
    ``a`` (infinite resistance would otherwise propagate NaNs into the
    distance table silently).
    """
    if a == b:
        return 0.0
    links = list(links)
    component = _component_nodes(links, a)
    if b not in component:
        raise ValueError(f"nodes {a} and {b} are not connected by the given links")
    members = set(component)
    ends = np.array([link for link in links if link[0] in members],
                    dtype=np.int64).reshape(-1, 2)
    nodes = np.array(component, dtype=np.int64)
    iu, iv = np.searchsorted(nodes, ends).T
    lap = _laplacians(1, nodes.size, np.zeros(iu.size, dtype=np.int64), iu, iv)
    ia, ib = np.searchsorted(nodes, [a, b])
    return float(_solve(lap, np.array([ia]), np.array([ib]))[0])


def support_resistances(num_nodes: int, ends: np.ndarray, src: int,
                        dsts: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """Equivalent resistance ``src → dsts[m]`` across the links ``supports[m]``.

    ``ends`` is the ``(L, 2)`` array of link endpoints and ``supports`` a
    boolean ``(M, L)`` link selection per destination.  Each selection must
    be connected, as a shortest-path support is.  Equal, bit for bit, to
    :func:`equivalent_resistance` on each selection.
    """
    rows, links = np.nonzero(supports)
    member = np.zeros((len(dsts), num_nodes), dtype=bool)
    member[rows, ends[links, 0]] = True
    member[rows, ends[links, 1]] = True
    m = np.arange(len(dsts))
    linked = member[m, src] & member[m, dsts]
    if not linked.all():
        raise ValueError(f"nodes {src} and {int(dsts[~linked][0])} are not "
                         "connected by the given links")
    local = np.cumsum(member, axis=1, dtype=np.int32)
    local -= 1  # node -> its index in the sorted support
    sizes = member.sum(axis=1)
    out = np.empty(len(dsts))
    pos = np.empty(len(dsts), dtype=np.int64)
    # np.bincount, not np.unique: on numpy 2.4 the first np.unique call
    # raises peak RSS by ~1.5 MB.
    for size in np.flatnonzero(np.bincount(sizes)):
        group = np.flatnonzero(sizes == size)
        parts = math.ceil(group.size * size * size / _STACK_ENTRIES)
        for chunk in np.array_split(group, parts):
            pos.fill(-1)
            pos[chunk] = np.arange(chunk.size)
            sel = pos[rows] >= 0
            r, k = rows[sel], links[sel]
            laps = _laplacians(chunk.size, int(size), pos[r],
                               local[r, ends[k, 0]], local[r, ends[k, 1]])
            out[chunk] = _solve(laps, local[chunk, src], local[chunk, dsts[chunk]])
    return out


def resistance_matrix(num_nodes: int, links: Iterable[Link]) -> np.ndarray:
    """All-pairs equivalent resistance of one connected unit-resistor network.

    Utility for tests and for the "raw resistance" ablation (resistance over
    the *whole* topology rather than per-pair shortest-path subnetworks).
    ``inf`` marks disconnected pairs.
    """
    links = list(links)
    iu, iv = np.array(links, dtype=np.int64).reshape(-1, 2).T
    lap = _laplacians(1, num_nodes, np.zeros(iu.size, dtype=np.int64), iu, iv)[0]
    pinv = np.linalg.pinv(lap, hermitian=True)
    d = np.diag(pinv)
    r = d[:, None] + d[None, :] - 2.0 * pinv

    # Mark cross-component pairs as inf (pinv silently returns finite
    # garbage for them because the Laplacian is block diagonal).
    adj: List[List[int]] = [[] for _ in range(num_nodes)]
    for u, v in links:
        adj[u].append(v)
        adj[v].append(u)
    linked = np.array([bfs_distances(adj, [s]) >= 0 for s in range(num_nodes)])
    r = np.where(linked, r, np.inf)
    np.fill_diagonal(r, 0.0)
    return r


__all__ = ["equivalent_resistance", "resistance_matrix", "support_resistances"]
