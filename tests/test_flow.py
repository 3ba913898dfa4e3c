import random

import pytest

from eulertrail._flow import _circulate
from eulertrail.digraph import _mask_of, _row_arcs, _rows_of
from eulertrail.errors import PreconditionError


def through_and_balance(n: int, arcs) -> tuple[list[int], list[int]]:
    """Per vertex: picked arcs passing through it, and out- minus in-degree."""
    outs, ins = [0] * n, [0] * n
    for u, v in arcs:
        outs[u] += 1
        ins[v] += 1
    return [min(o, i) for o, i in zip(outs, ins)], [o - i for o, i in zip(outs, ins)]


# the complete digraph on 4 vertices
K4 = [(u, v) for u in range(4) for v in range(4) if u != v]


def test_feasible_pick_meets_bounds_and_balance() -> None:
    lo, hi = [1, 1, 1, 1], [1, 2, 1, 1]
    offered = _rows_of(K4, 4)
    picked, entry, exit_ = _circulate(offered, lo, hi)
    assert picked is not None and entry == exit_ == 0
    assert offered == _rows_of(K4, 4)  # the offer is left as it was
    assert all(p & ~o == 0 for p, o in zip(picked, offered))
    through, balance = through_and_balance(4, _row_arcs(picked))
    assert all(a <= t <= b for a, t, b in zip(lo, through, hi))
    assert balance == [0, 0, 0, 0]


def test_surplus_sets_out_minus_in() -> None:
    # a path 0 -> ... -> 3 through both middle vertices
    surplus = [1, 0, 0, -1]
    lo, hi = [0, 1, 1, 0], [0, 1, 1, 0]
    picked, _, _ = _circulate(_rows_of(K4, 4), lo, hi, surplus)
    assert picked is not None
    arcs = _row_arcs(picked)
    through, balance = through_and_balance(4, arcs)
    assert balance == surplus
    assert through == [0, 1, 1, 0]
    assert len(arcs) == 3


def test_infeasible_pick_reports_the_cut_sides() -> None:
    # vertex 2 has no out-arc, so it cannot carry traffic
    arcs = [(0, 1), (1, 0), (1, 2)]
    picked, entry, exit_ = _circulate(_rows_of(arcs, 3), [1, 1, 1], [2, 2, 2])
    assert picked is None
    # the traffic vertex 2 must carry is stranded on its exit side
    assert entry == 0 and exit_ == 1 << 2


def test_lower_bound_above_upper_bound_is_infeasible() -> None:
    picked, _, _ = _circulate(_rows_of(K4, 4), [1, 2, 1, 1], [1, 1, 1, 1])
    assert picked is None


def test_unbalanced_surplus_is_refused() -> None:
    with pytest.raises(PreconditionError):
        _circulate(_rows_of(K4, 4), [0] * 4, [3] * 4, [1, 0, 0, 0])


# ---- reference: Edmonds-Karp and a lower-bound reduction on an edge list ----


def _reference_max_flow(n: int, edges, s: int, t: int):
    """Edmonds-Karp over an explicit edge list of (tail, head, capacity):
    the value, per-edge flows and the residual-reachable nodes from s."""
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


def _reference_circulation(n: int, edges):
    """Circulation meeting (tail, head, lower, upper) bounds: the per-edge
    flows, or None plus the source side of the reduction's cut."""
    excess = [0] * n
    reduced = []
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
    value, flows, reached = _reference_max_flow(n + 2, reduced, s, t)
    if value != need:
        return None, frozenset(v for v in reached if v < n)
    return [flows[i] + edges[i][2] for i in range(len(edges))], frozenset()


def _reference_subgraph(n: int, arcs, lo, hi, surplus=None):
    """``_circulate`` on the split-node edge list of sorted arcs: entry side
    v, exit side n + v, and a source, a sink and a return edge for the
    surplus."""
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
    flows, reached = _reference_circulation(nodes, edges)
    if flows is None:
        entry = frozenset(v for v in reached if v < n)
        exit_ = frozenset(v - n for v in reached if n <= v < 2 * n)
        return None, entry, exit_
    return [a for a, f in zip(arcs, flows) if f], frozenset(), frozenset()


def _random_case(rng: random.Random):
    """Sorted arcs, bounds and a balanced surplus (or None) on n = 0-30
    vertices, shaped like the factor, the forced-arc completion and the
    one-path completion, with the bounds crossed now and then."""
    n = rng.randint(0, 30)
    density = rng.random()
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < density]
    lo = [rng.choice((0, 1, 1, 2)) for _ in range(n)]
    hi = [a + rng.choice((0, 1, 2, n)) for a in lo]
    if n and rng.random() < 0.1:
        v = rng.randrange(n)
        hi[v] = lo[v] - 1
    surplus = None
    if n > 1 and rng.random() < 0.5:
        surplus = [0] * n
        for _ in range(rng.randint(0, n)):
            a, b = rng.sample(range(n), 2)
            surplus[a] += 1
            surplus[b] -= 1
    return n, arcs, lo, hi, surplus


def test_picks_and_cut_sides_match_the_edmonds_karp_reference() -> None:
    rng = random.Random(0)
    feasible = infeasible = 0
    for _ in range(3000):
        n, arcs, lo, hi, surplus = _random_case(rng)
        want = _reference_subgraph(n, arcs, lo, hi, surplus)
        picked, entry, exit_ = _circulate(_rows_of(arcs, n), lo, hi, surplus)
        if want[0] is None:
            assert (picked, entry, exit_) == (None, _mask_of(want[1]), _mask_of(want[2]))
            infeasible += 1
        else:
            assert (picked, entry, exit_) == (_rows_of(want[0], n), 0, 0)
            feasible += 1
    # both outcomes occur often
    assert feasible > 500 and infeasible > 500
