"""Equivalent electrical resistance of unit-resistor networks.

With ``L`` the graph Laplacian of the resistor network, ground node ``a``
(replace its row and column of ``L`` by the identity's) and inject a unit
current at ``b``: the potential ``x`` solving the grounded system gives

    R(a, b) = x[b].

The distance table needs one resistance per switch pair, each over its own
small network (the links on the pair's shortest legal paths).
:func:`table_resistances` takes those networks source by source and keeps
the pending ones of each node count together across all sources.  Once a
size's pending networks fill a stack of ``_STACK_ENTRIES`` matrix entries
(32 KB of float64; one network per stack if it is larger), they are solved
in one stacked ``np.linalg.solve`` call; what is left is solved at the end.
``solve`` treats each matrix of a stack on its own, and each Laplacian is
built over its sorted nodes with integer-valued entries, so every value is
bit-equal to a solve of that network alone, whatever the stacking;
:func:`equivalent_resistance` is the batch of one.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.topology.graph import Link, bfs_distances

#: Most matrix entries in one stacked solve; pending same-size
#: networks are solved once they fill a stack.
_STACK_ENTRIES = 1 << 12

#: Pending networks of one size, as two int arrays: per link its local
#: endpoints and its network's index among the pending ones, ``(3, links)``;
#: per network its local source and destination and the table cell
#: ``(src, dst)`` it fills, ``(4, networks)``.
_Pending = Tuple[np.ndarray, np.ndarray]


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


def _solve(laps: np.ndarray, ia: np.ndarray,
           ib: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Resistance between local nodes ``ia[m]`` and ``ib[m]`` of ``laps[m]``,
    and whether each network is connected.  Grounds ``laps`` in place.

    A network is connected when the unit current injected at ``ib[m]``
    all leaves through the ground ``ia[m]``: ``(L·x)[ia[m]] == -1``.  A
    disconnected network is singular once grounded; when ``solve`` finds
    one exactly singular it fails the whole stack, so the networks are
    then solved one by one.
    """
    m = np.arange(len(laps))
    source_rows = laps[m, ia]
    laps[m, ia, :] = 0.0
    laps[m, :, ia] = 0.0
    laps[m, ia, ia] = 1.0
    rhs = np.zeros(laps.shape[:2] + (1,))
    rhs[m, ib] = 1.0
    try:
        x = np.linalg.solve(laps, rhs)[..., 0]
    except np.linalg.LinAlgError:
        x = np.full(laps.shape[:2], np.nan)
        for k in m:
            try:
                x[k] = np.linalg.solve(laps[k], rhs[k])[:, 0]
            except np.linalg.LinAlgError:
                pass
    current = np.einsum("mj,mj->m", source_rows, x)
    connected = np.isfinite(x).all(axis=1) & (np.abs(current + 1.0) <= 1e-9)
    return x[m, ib], connected


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
    r, _ = _solve(lap, np.array([ia]), np.array([ib]))
    return float(r[0])


def _solve_stacks(size: int, links: np.ndarray, nets: np.ndarray, final: bool,
                  out: np.ndarray) -> _Pending:
    """Solve pending ``size``-node networks in stacks that fill the cap.

    A stack holds ``_STACK_ENTRIES // size²`` networks, and at least one.
    Writes each resistance to ``out[src, dst]`` and ``out[dst, src]``, and
    raises ``ValueError`` for a network that is not connected.  Only full
    stacks are solved unless ``final``; returns what is left.
    """
    iu, iv, owner = links
    ia, ib, src, dst = nets
    stack = max(1, _STACK_ENTRIES // (size * size))
    start = lstart = 0
    while ia.size - start >= stack or (final and start < ia.size):
        stop = min(start + stack, ia.size)
        lstop = int(np.searchsorted(owner, stop))
        laps = _laplacians(stop - start, size, owner[lstart:lstop] - start,
                           iu[lstart:lstop], iv[lstart:lstop])
        r, connected = _solve(laps, ia[start:stop], ib[start:stop])
        if not connected.all():
            bad = start + int(np.argmin(connected))
            raise ValueError(f"nodes {src[bad]} and {dst[bad]} are not "
                             "connected by the given links")
        out[src[start:stop], dst[start:stop]] = r
        out[dst[start:stop], src[start:stop]] = r
        start, lstart = stop, lstop
    links = links[:, lstart:]
    links[2] -= start
    return links, nets[:, start:]


def table_resistances(num_nodes: int, ends: np.ndarray,
                      sources: Iterable[Tuple[int, np.ndarray, np.ndarray]]
                      ) -> np.ndarray:
    """Symmetric table of equivalent resistances over link selections.

    Each item ``(src, dsts, supports)`` of ``sources`` holds a boolean
    ``(M, L)`` link selection per destination ``dsts[m]`` over the
    ``(L, 2)`` endpoint array ``ends``.  Each selection must be connected,
    as a shortest-path support is; ``ValueError`` names a pair whose
    selection is not.  Returns the ``(num_nodes, num_nodes)``
    matrix with the resistance ``src ↔ dsts[m]`` across ``supports[m]`` at
    both ``[src, dsts[m]]`` and ``[dsts[m], src]``, zero elsewhere.  Each
    entry equals, bit for bit, :func:`equivalent_resistance` on its
    selection.
    """
    out = np.zeros((num_nodes, num_nodes))
    none: _Pending = (np.empty((3, 0), dtype=np.int64),
                      np.empty((4, 0), dtype=np.int64))
    pending: Dict[int, _Pending] = {}
    for src, dsts, supports in sources:
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
        sizes = local[:, -1] + 1
        # One stable sort each groups the networks and their links by size;
        # within a size both keep destination order, so owners ascend.
        order = np.argsort(sizes, kind="stable")
        rank = np.empty_like(order)
        rank[order] = m
        by_size = np.argsort(sizes[rows], kind="stable")
        rows, links = rows[by_size], links[by_size]
        link_rows = np.stack([local[rows, ends[links, 0]],
                              local[rows, ends[links, 1]], rank[rows]])
        net_rows = np.stack([local[order, src], local[order, dsts[order]],
                             np.full(order.size, src), dsts[order]])
        # np.bincount, not np.unique: on numpy 2.4 the first np.unique call
        # raises peak RSS by ~1.5 MB.
        per_size = np.bincount(sizes)
        grouped = np.flatnonzero(per_size)
        net_end = np.cumsum(per_size[grouped])
        link_end = np.cumsum(np.bincount(sizes[rows], minlength=per_size.size)[grouped])
        n0 = l0 = 0
        for size, n1, l1 in zip(grouped.tolist(), net_end.tolist(), link_end.tolist()):
            held_links, held_nets = pending.get(size, none)
            size_links = np.concatenate([held_links, link_rows[:, l0:l1]], axis=1)
            size_links[2, held_links.shape[1]:] += held_nets.shape[1] - n0
            size_nets = np.concatenate([held_nets, net_rows[:, n0:n1]], axis=1)
            pending[size] = _solve_stacks(size, size_links, size_nets, False, out)
            n0, l0 = n1, l1
    for size, (held_links, held_nets) in pending.items():
        _solve_stacks(size, held_links, held_nets, True, out)
    return out


def resistance_matrix(num_nodes: int, links: Iterable[Link]) -> np.ndarray:
    """All-pairs equivalent resistance of one connected unit-resistor network.

    All pairs at once through the Moore-Penrose pseudoinverse ``L⁺`` of the
    Laplacian: ``R(a, b) = L⁺[a,a] + L⁺[b,b] - 2 L⁺[a,b]``.

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


__all__ = ["equivalent_resistance", "resistance_matrix", "table_resistances"]
