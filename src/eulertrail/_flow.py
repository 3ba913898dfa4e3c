"""Generic network-flow kernels.

Plain Edmonds-Karp augmentation over explicit edge lists, used on the
split-node networks of ``degree_bounded_subgraph``.
"""

from __future__ import annotations


def max_flow(
    n: int, edges: list[tuple[int, int, int]], s: int, t: int
) -> tuple[int, list[int], frozenset[int]]:
    """Max flow on a small-capacity network.

    ``edges`` holds (tail, head, capacity).  Returns the flow value, a
    per-edge flow list in input order, and the set of nodes reachable
    from s in the final residual network (the source side of a min cut).
    """
    cap: list[int] = []
    to: list[int] = []
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v, c in edges:
        adj[u].append(len(cap))
        to.append(v)
        cap.append(c)
        adj[v].append(len(cap))
        to.append(u)
        cap.append(0)
    value = 0
    while True:
        prev_edge = [-1] * n
        prev_edge[s] = -2
        queue = [s]
        while queue and prev_edge[t] == -1:
            nxt: list[int] = []
            for v in queue:
                for e in adj[v]:
                    w = to[e]
                    if cap[e] > 0 and prev_edge[w] == -1:
                        prev_edge[w] = e
                        if w == t:
                            break
                        nxt.append(w)
                if prev_edge[t] != -1:
                    break
            queue = nxt
        if prev_edge[t] == -1:
            reached = frozenset(v for v in range(n) if prev_edge[v] != -1) | {s}
            return value, [cap[2 * i + 1] for i in range(len(edges))], reached
        bottleneck = None
        v = t
        while v != s:
            e = prev_edge[v]
            bottleneck = cap[e] if bottleneck is None else min(bottleneck, cap[e])
            v = to[e ^ 1]
        v = t
        while v != s:
            e = prev_edge[v]
            cap[e] -= bottleneck
            cap[e ^ 1] += bottleneck
            v = to[e ^ 1]
        value += bottleneck


def circulation_with_cut(
    n: int, edges: list[tuple[int, int, int, int]]
) -> tuple[list[int] | None, frozenset[int]]:
    """Circulation meeting per-edge [lower, upper] bounds.

    ``edges`` holds (tail, head, lower, upper).  On success returns the
    per-edge flows and an empty set; on failure returns None plus the
    nodes (among 0..n-1) on the source side of the certifying cut in the
    lower-bound reduction.
    """
    excess = [0] * n
    reduced: list[tuple[int, int, int]] = []
    for u, v, lo, hi in edges:
        if lo > hi:
            return None, frozenset(range(n))
        reduced.append((u, v, hi - lo))
        excess[v] += lo
        excess[u] -= lo
    s, t = n, n + 1
    need = 0
    for v in range(n):
        if excess[v] > 0:
            reduced.append((s, v, excess[v]))
            need += excess[v]
        elif excess[v] < 0:
            reduced.append((v, t, -excess[v]))
    value, flows, reached = max_flow(n + 2, reduced, s, t)
    if value != need:
        return None, frozenset(v for v in reached if v < n)
    return [flows[i] + edges[i][2] for i in range(len(edges))], frozenset()


def degree_bounded_subgraph(
    n: int,
    arcs: list[tuple[int, int]],
    lo: list[int],
    hi: list[int],
    surplus: list[int] | None = None,
) -> tuple[list[tuple[int, int]] | None, frozenset[int], frozenset[int]]:
    """Pick each of ``arcs`` at most once under per-vertex degree bounds.

    At every vertex v the picked arcs leave ``surplus[v]`` (0 by default)
    more times than they enter, and between ``lo[v]`` and ``hi[v]`` of
    them pass through v.  Returns the picked arcs in input order and two
    empty sets; when no choice exists, None plus the vertices whose entry
    side and whose exit side lie on the source side of the blocking cut.

    Solved as a circulation on the split-node network: node v is the
    entry side of vertex v, node n + v its exit side, arc (u, v) runs from
    n + u to v, and vertex v's own edge from v to n + v carries the
    through traffic.  Surplus enters exit sides from a source and leaves
    entry sides into a sink, with a return edge from sink to source.
    """
    edges = [(n + u, v, 0, 1) for u, v in arcs]
    edges += [(v, n + v, lo[v], hi[v]) for v in range(n)]
    nodes = 2 * n
    if surplus is not None:
        src, snk = 2 * n, 2 * n + 1
        nodes += 2
        for v in range(n):
            if surplus[v] > 0:
                edges.append((src, n + v, surplus[v], surplus[v]))
            elif surplus[v] < 0:
                edges.append((v, snk, -surplus[v], -surplus[v]))
        edges.append((snk, src, 0, sum(s for s in surplus if s > 0)))
    flows, reached = circulation_with_cut(nodes, edges)
    if flows is None:
        entry = frozenset(v for v in reached if v < n)
        exit_ = frozenset(v - n for v in reached if n <= v < 2 * n)
        return None, entry, exit_
    return [a for a, f in zip(arcs, flows) if f], frozenset(), frozenset()
