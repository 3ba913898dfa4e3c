import heapq
import json
import random
import sys
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eulertrail as et
from eulertrail.connectivity import (
    _arc_strong,
    _closure,
    _max_flow,
    _row_paths,
    shortest_walk,
)
from eulertrail.digraph import _mask_bits, _row_arcs, _rows_of
from eulertrail.oracle import enumerate_all_semicomplete
from instances import (
    backward_chain,
    complete,
    random_strong_semicomplete,
    reference_shortest_walk,
    strong_backward_chain,
    t4,
    three_cycle,
    transitive,
)

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.run import Caches  # noqa: E402


def test_is_strong() -> None:
    assert et.is_strong(three_cycle())
    assert et.is_strong(et.Digraph(1))
    assert not et.is_strong(transitive(3))
    assert not et.is_strong(et.Digraph(2))


def test_strong_components_topological_order() -> None:
    # two 3-cycles joined by a single forward arc
    arcs = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]
    comps = et.strong_components(et.Digraph(6, arcs))
    assert comps == [frozenset({0, 1, 2}), frozenset({3, 4, 5})]
    assert et.strong_components(three_cycle()) == [frozenset({0, 1, 2})]


def _reference_strong_components(d: et.Digraph) -> list[frozenset[int]]:
    """The component search as it was before it moved onto vertex masks:
    Kosaraju's two depth-first passes, then Kahn's sort of the component
    DAG with the smallest vertex id breaking ties."""
    n = d.n
    order: list[int] = []
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        iters = {root: d.out_neighbors(root)}
        path = [root]
        while path:
            v = path[-1]
            for w in iters[v]:
                if not seen[w]:
                    seen[w] = True
                    iters[w] = d.out_neighbors(w)
                    path.append(w)
                    break
            else:
                order.append(path.pop())
    comp_of = [-1] * n
    comps: list[set[int]] = []
    for root in reversed(order):
        if comp_of[root] != -1:
            continue
        cid = len(comps)
        bucket = {root}
        comp_of[root] = cid
        frontier = [root]
        while frontier:
            v = frontier.pop()
            for w in d.in_neighbors(v):
                if comp_of[w] == -1:
                    comp_of[w] = cid
                    bucket.add(w)
                    frontier.append(w)
        comps.append(bucket)
    k = len(comps)
    succ: list[set[int]] = [set() for _ in range(k)]
    indeg = [0] * k
    for u, v in d.arcs():
        cu, cv = comp_of[u], comp_of[v]
        if cu != cv and cv not in succ[cu]:
            succ[cu].add(cv)
            indeg[cv] += 1
    key = [min(c) for c in comps]
    heap = [(key[i], i) for i in range(k) if indeg[i] == 0]
    heapq.heapify(heap)
    result: list[frozenset[int]] = []
    while heap:
        _, i = heapq.heappop(heap)
        result.append(frozenset(comps[i]))
        for j in sorted(succ[i]):
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(heap, (key[j], j))
    return result


def _relabelled(d: et.Digraph, rng: random.Random) -> et.Digraph:
    perm = list(range(d.n))
    rng.shuffle(perm)
    return et.Digraph(d.n, [(perm[u], perm[v]) for u, v in d.arcs()])


def _component_inputs():
    """Seeded digraphs with 0 <= n <= 40: semicomplete ones, backward
    chains, transitive ones, and sparse ones that are not semicomplete,
    each also with its vertices relabelled at random."""
    rng = random.Random(7311)
    for n in range(41):
        for d in (
            et.gen_random_semicomplete(n, rng.random(), rng.randrange(1 << 30)),
            backward_chain(n, rng) if n >= 2 else transitive(n),
            transitive(n),
            et.Digraph(n, [(u, v) for u in range(n) for v in range(n)
                           if u != v and rng.random() < rng.choice((0.03, 0.08, 0.2))]),
        ):
            yield d
            yield _relabelled(d, rng)


def test_strong_components_match_the_kosaraju_reference() -> None:
    incomparable = 0
    for d in _component_inputs():
        comps = et.strong_components(d)
        assert comps == _reference_strong_components(d)
        # a later component with no arc from the one before it: the
        # smallest-vertex tie-break decided their order
        incomparable += any(
            not any(d.out_mask(u) >> v & 1 for u in a for v in b)
            for a, b in zip(comps, comps[1:])
        )
    assert incomparable > 20


def test_cut_arcs_frozen_values() -> None:
    assert et.cut_arcs(t4()) == frozenset({(0, 1), (2, 3), (3, 0)})
    assert et.cut_arcs(three_cycle()) == frozenset({(0, 1), (1, 2), (2, 0)})
    assert et.cut_arcs(et.gen_d3()) == frozenset({(0, 1), (1, 2), (2, 0)})
    assert et.cut_arcs(complete(4)) == frozenset()


def _reference_cut_arcs(d: et.Digraph) -> frozenset:
    """The arcs whose removal leaves d not strong, one search per arc."""
    return frozenset(a for a in d.arcs() if not et.is_strong(d.remove_arcs([a])))


def test_cut_arcs_match_the_per_arc_search() -> None:
    """The arc-connectivity shortcut and the per-arc search agree on
    digraphs with and without cut arcs, semicomplete or sparse."""
    rng = random.Random(9151)
    by_lambda = {1: 0, 2: 0}
    for i in range(240):
        n = rng.randint(2, 16)
        if i % 3 == 0:
            d = random_strong_semicomplete(n, rng.randrange(10**6))
        elif i % 3 == 1:
            d = backward_chain(n, rng)
        else:
            d = et.Digraph(n, [(u, v) for u in range(n) for v in range(n)
                               if u != v and rng.random() < 0.4])
        if not et.is_strong(d):
            with pytest.raises(et.PreconditionError):
                et.cut_arcs(d)
            continue
        assert et.cut_arcs(d) == _reference_cut_arcs(d), sorted(d.arcs())
        by_lambda[min(et.arc_connectivity(d), 2)] += 1
    assert by_lambda[1] > 40 and by_lambda[2] > 40, by_lambda


def _lambda_one_inputs() -> list[et.Digraph]:
    """Strong semicomplete digraphs with arc connectivity 1, n = 4-60:
    backward chains, and random ones with every out-arc but one of a
    random vertex x turned round, so that x has out-degree 1."""
    rng = random.Random(2046)
    found = []
    while len(found) < 40:
        n = rng.randint(4, 60)
        if len(found) % 2:
            d = strong_backward_chain(n, rng)
        else:
            base = random_strong_semicomplete(n, rng.randrange(10**6))
            x = rng.randrange(n)
            keep = rng.choice(list(base.out_neighbors(x)))
            d = et.Digraph(n, {(v, u) if u == x and v != keep else (u, v) for u, v in base.arcs()})
        if et.is_semicomplete(d) and et.is_strong(d) and et.arc_connectivity(d) == 1:
            found.append(d)
    return found


def _bfs_reaches(d: et.Digraph, u: int, v: int) -> bool:
    """Whether v can be reached from u in d - (u,v), by a plain BFS."""
    seen, queue = {u}, deque([u])
    while queue:
        w = queue.popleft()
        for x in d.out_neighbors(w):
            if (w, x) != (u, v) and x not in seen:
                if x == v:
                    return True
                seen.add(x)
                queue.append(x)
    return False


def test_cut_arcs_match_a_plain_search_at_arc_connectivity_one() -> None:
    """The two-arc-detour skip and the search behind it agree with a BFS
    per arc; the search runs on cut arcs and on some arcs that survive."""
    searched_cut = searched_kept = 0
    for d in _lambda_one_inputs():
        expected = frozenset(a for a in d.arcs() if not _bfs_reaches(d, *a))
        assert et.cut_arcs(d) == expected, sorted(d.arcs())
        for u, v in d.arcs():
            if not d.out_mask(u) & d.in_mask(v):  # no two-arc detour
                if (u, v) in expected:
                    searched_cut += 1
                else:
                    searched_kept += 1
    assert searched_cut > 40 and searched_kept > 40, (searched_cut, searched_kept)


def test_memoised_ignored_sets_follow_the_interval_formula() -> None:
    """Each backward arc, in the natural order, ignores the positions
    strictly between the next arc's tail (else 0) and the previous arc's
    head (else the last position)."""
    ignoring = 0
    for d in _lambda_one_inputs():
        dec = et.nice_decomposition(d)
        order = et.natural_backward_ordering(dec, d)
        expected: set[int] = set()
        for j in range(len(order)):
            lower = dec.position(order[j + 1][0]) if j + 1 < len(order) else 0
            upper = dec.position(order[j - 1][1]) if j > 0 else dec.width - 1
            expected.update(range(lower + 1, upper))
        got = et.ignored_sets(dec, d)
        assert got == expected
        assert et.ignored_sets(dec, d) is got  # memoised per (dec, d)
        ignoring += bool(got)
    assert ignoring > 5, ignoring


def test_arc_connectivity_values() -> None:
    assert et.arc_connectivity(complete(4)) == 3
    assert et.arc_connectivity(three_cycle()) == 1
    assert et.arc_connectivity(t4()) == 1
    assert et.arc_connectivity(transitive(3)) == 0
    assert et.arc_connectivity(et.Digraph(1)) == 0


def test_connectivity_certificate_matches_value() -> None:
    value, cert = et.arc_connectivity_certificate(t4())
    assert value == 1
    assert cert is not None
    assert cert.side_s | cert.side_t == set(range(4))
    assert not (cert.side_s & cert.side_t)
    actual = {
        (u, v) for u, v in t4().arcs() if u in cert.side_s and v in cert.side_t
    }
    assert cert.crossing_arcs == actual
    assert len(actual) == value
    assert et.arc_connectivity_certificate(et.Digraph(1)) == (0, None)


def test_arc_disjoint_paths_found() -> None:
    d = complete(4)
    paths = et.arc_disjoint_paths(d, 0, 3, 3)
    assert isinstance(paths, list) and len(paths) == 3
    used: set[tuple[int, int]] = set()
    for p in paths:
        assert p[0] == 0 and p[-1] == 3
        assert len(set(p)) == len(p)
        for a in zip(p, p[1:]):
            assert d.has_arc(*a)
            assert a not in used
            used.add(a)


def test_arc_disjoint_paths_cut() -> None:
    probe = et.arc_disjoint_paths(three_cycle(), 0, 1, 2)
    assert isinstance(probe, et.CutCertificate)
    assert probe.side_s == frozenset({0})
    assert probe.crossing_arcs == frozenset({(0, 1)})
    assert et.arc_disjoint_paths(complete(3), 0, 1, 0) == []


def test_arc_disjoint_paths_rejects_bad_arguments() -> None:
    d = complete(3)
    with pytest.raises(et.PreconditionError):
        et.arc_disjoint_paths(d, 0, 0, 1)
    with pytest.raises(et.PreconditionError):
        et.arc_disjoint_paths(d, 0, 5, 1)
    with pytest.raises(et.PreconditionError):
        et.arc_disjoint_paths(d, 0, 1, -1)


@settings(max_examples=40)
@given(n=st.integers(min_value=4, max_value=7), seed=st.integers(0, 10**6))
def test_menger_consistency(n: int, seed: int) -> None:
    d = random_strong_semicomplete(n, seed)
    lam = et.arc_connectivity(d)
    assert lam >= 1
    tight = False
    for x in d.vertices():
        for y in d.vertices():
            if x == y:
                continue
            assert isinstance(et.arc_disjoint_paths(d, x, y, lam), list)
            if isinstance(et.arc_disjoint_paths(d, x, y, lam + 1), et.CutCertificate):
                tight = True
    assert tight


@settings(max_examples=40)
@given(n=st.integers(min_value=2, max_value=7), seed=st.integers(0, 10**6))
def test_cut_certificate_is_genuine(n: int, seed: int) -> None:
    d = random_strong_semicomplete(n, seed)
    probe = et.arc_disjoint_paths(d, 0, n - 1, d.n)
    assert isinstance(probe, et.CutCertificate)
    assert 0 in probe.side_s and n - 1 in probe.side_t
    actual = {(u, v) for u, v in d.arcs() if u in probe.side_s and v in probe.side_t}
    assert probe.crossing_arcs == actual
    assert len(actual) < d.n


def test_shortest_walk_reaches_a_source_target_only_by_a_cycle() -> None:
    d = et.Digraph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    assert shortest_walk(d._out, 0b0001, 0b0001) == [0, 1, 2, 0]
    assert shortest_walk(d._out, 0b0001, 0b1001) == [0, 3]


def test_shortest_walk_takes_sources_and_heads_ascending() -> None:
    # 0 and 1 both reach 2 in one step; the smaller source wins
    d = et.Digraph(3, [(0, 2), (1, 2)])
    assert shortest_walk(d._out, 0b011, 0b100) == [0, 2]
    assert shortest_walk(d._out, 0b010, 0b100) == [1, 2]
    # heads are tried in ascending order, unless ``within`` blocks one
    d = et.Digraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert shortest_walk(d._out, 0b0001, 0b1000) == [0, 1, 3]
    assert shortest_walk(d._out, 0b0001, 0b1000, 0b1101) == [0, 2, 3]
    assert shortest_walk(d._out, 0b0001, 0b1000, 0b0111) is None  # it blocks the target


def test_shortest_walk_unreachable_target_gives_none() -> None:
    d = transitive(3)
    assert shortest_walk(d._out, 0b100, 0b001) is None
    assert shortest_walk(d._out, 0b001, 0b001) is None
    assert shortest_walk(d._out, 0b001, 0) is None


def test_shortest_walk_matches_the_callable_search() -> None:
    """On seeded random digraphs with n = 1..30, the row search gives the
    walk that the callable search gives with sources and heads listed
    ascending and heads outside ``within`` left out, for random source
    and target masks, sources that are also targets among them, and for
    ``within`` both every vertex and a random mask."""
    rng = random.Random(3806)
    found = missed = cycles = 0
    for i in range(1500):
        n = rng.randint(1, 30)
        p = rng.random()
        rows = _rows_of(
            [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p], n
        )
        full = (1 << n) - 1
        sources = rng.randint(1, full)
        targets = sources if i % 3 == 0 else rng.randint(0, full)
        within = -1 if i % 2 else rng.randint(0, full)
        got = shortest_walk(rows, sources, targets, within)
        want = reference_shortest_walk(
            lambda v: _mask_bits(rows[v] & within), _mask_bits(sources), set(_mask_bits(targets))
        )
        assert got == want, (n, rows, sources, targets, within)
        found += got is not None
        missed += got is None
        cycles += got is not None and sources >> got[-1] & 1
    assert found > 600 and missed > 100 and cycles > 400, (found, missed, cycles)


def test_flow_paths_splices_out_a_revisit() -> None:
    # one unit of flow 0-1-2-1-3 carries the cycle 1-2-1 along
    rows = _rows_of({(0, 1), (1, 2), (2, 1), (1, 3), (0, 3)}, 4)
    assert _row_paths(rows, 0, 3, 2) == [[0, 1, 3], [0, 3]]


def test_flow_paths_raises_when_a_walk_misses_y() -> None:
    with pytest.raises(et.ConstructionError):
        _row_paths(_rows_of({(0, 1), (1, 2)}, 4), 0, 3, 1)
    with pytest.raises(et.ConstructionError):
        _row_paths(_rows_of({(0, 1), (1, 3)}, 4), 0, 3, 2)  # only one unit of flow


# ---- the flow kernel against the dict-keyed kernel it replaced ----


def _reference_step(d: et.Digraph, flow: dict, v: int, blocked: int) -> list[int]:
    found = []
    for w in _mask_bits((d.out_mask(v) | d.in_mask(v)) & ~blocked):
        if (d.has_arc(v, w) and flow.get((v, w), 0) == 0) or flow.get((w, v), 0) == 1:
            found.append(w)
    return found


def _reference_flow(d: et.Digraph, s: int, t: int, limit: int | None = None):
    """The unit-capacity kernel as it was when flow was keyed by arc."""
    flow: dict = {}
    value = 0
    while limit is None or value < limit:
        parent = {s: -1}
        reached = 1 << s
        frontier = [s]
        while frontier and not reached >> t & 1:
            nxt = []
            for v in frontier:
                for w in _reference_step(d, flow, v, reached):
                    parent[w] = v
                    reached |= 1 << w
                    nxt.append(w)
            frontier = nxt
        if not reached >> t & 1:
            return value, flow, reached
        v = t
        while v != s:
            u = parent[v]
            if flow.get((v, u), 0) == 1:
                flow[(v, u)] = 0
            else:
                flow[(u, v)] = 1
            v = u
        value += 1
    reached = 1 << s
    frontier = [s]
    while frontier:
        nxt = []
        for v in frontier:
            for w in _reference_step(d, flow, v, reached):
                reached |= 1 << w
                nxt.append(w)
        frontier = nxt
    return value, flow, reached


def _carrying(flow: dict) -> set:
    return {a for a, f in flow.items() if f == 1}


def _set_certificate(d: et.Digraph, reached: int) -> et.CutCertificate:
    """The cut of a reached mask, built on vertex sets from ``out_neighbors``."""
    side_s = frozenset(_mask_bits(reached))
    side_t = frozenset(v for v in range(d.n) if not reached >> v & 1)
    crossing = frozenset((u, v) for u in side_s for v in d.out_neighbors(u) if v in side_t)
    return et.CutCertificate(side_s, side_t, crossing)


def _reference_certificate(d: et.Digraph):
    if d.n <= 1:
        return 0, None
    best, best_mask = None, 0
    for v in range(1, d.n):
        for s, t in ((0, v), (v, 0)):
            val, _, reached = _reference_flow(d, s, t, limit=best)
            if best is None or val < best:
                best, best_mask = val, reached
                if best == 0:
                    return 0, _set_certificate(d, best_mask)
    return best, _set_certificate(d, best_mask)


def _kernel_inputs():
    """Seeded digraphs with n <= 30: semicomplete ones with and without
    2-cycles, non-strong ones, and sparse non-semicomplete ones."""
    rng = random.Random(20190527)
    for i in range(48):
        n = rng.randint(2, 30)
        kind = i % 4
        if kind == 0:
            yield et.gen_random_semicomplete(n, rng.random(), rng.randrange(1 << 30))
        elif kind == 1:
            yield transitive(n)  # not strong
        elif kind == 2:
            p = rng.uniform(0.1, 0.6)
            yield et.Digraph(n, [(u, v) for u in range(n) for v in range(n)
                                 if u != v and rng.random() < p])
        else:
            yield random_strong_semicomplete(n, rng.randrange(1 << 30))


def test_flow_kernel_matches_the_dict_keyed_kernel() -> None:
    rng = random.Random(7)
    for d in _kernel_inputs():
        k = d.n - 1
        for _ in range(6):
            s, t = rng.sample(range(d.n), 2)
            for limit in (None, 1, 2, k, rng.randint(0, k)):
                value, fwd, reached = _max_flow(d, s, t, limit)
                ref_value, ref_flow, ref_reached = _reference_flow(d, s, t, limit)
                assert (value, _row_arcs(fwd)) == (ref_value, _carrying(ref_flow))
                # after a limit stop no caller reads the mask, and the
                # kernel returns 0 for it
                if limit is None or value < limit:
                    assert reached == ref_reached
        assert et.arc_connectivity_certificate(d) == _reference_certificate(d)
        x, y = rng.sample(range(d.n), 2)
        ref_value, ref_flow, ref_reached = _reference_flow(d, x, y, 2)
        expected = (
            _set_certificate(d, ref_reached) if ref_value < 2
            else _row_paths(_rows_of(_carrying(ref_flow), d.n), x, y, 2)
        )
        assert et.arc_disjoint_paths(d, x, y, 2) == expected


def _flow_issues(d: et.Digraph, fwd: list[int], s: int, t: int, value: int) -> list[str]:
    """Why the rows are not a unit s->t flow of the given value on d's arcs."""
    issues = []
    arcs = _row_arcs(fwd)
    if not all(d.has_arc(u, v) for u, v in arcs):
        issues.append("flow on a non-arc")
    if any((v, u) in arcs for u, v in arcs):
        issues.append("flow both ways on a 2-cycle")
    for v in range(d.n):
        net = sum(1 for a in arcs if a[0] == v) - sum(1 for a in arcs if a[1] == v)
        want = value if v == s else -value if v == t else 0
        if net != want:
            issues.append(f"vertex {v} sends {net} net, not {want}")
    return issues


def test_warm_started_flow_matches_the_cold_flow() -> None:
    rng = random.Random(11)
    for d in _kernel_inputs():
        k = d.n - 1
        for _ in range(6):
            s, t = rng.sample(range(d.n), 2)
            value, fwd, reached = _max_flow(d, s, t, warm=True)
            cold_value, _, cold_reached = _max_flow(d, s, t)
            assert (value, reached) == (cold_value, cold_reached)
            assert _flow_issues(d, fwd, s, t, value) == []
            for limit in (0, 1, 2, k, rng.randint(0, k)):
                value, fwd, _ = _max_flow(d, s, t, limit, warm=True)
                assert value == min(limit, cold_value)
                assert _flow_issues(d, fwd, s, t, value) == []


def test_flow_kernel_cancels_the_reverse_unit_first() -> None:
    # a later augmenting path steps from 0 to 3 while (3,0) carries flow;
    # the unit on (3,0) is cancelled rather than (0,3) being filled too
    d = et.Digraph(6, [(0, 1), (0, 3), (1, 0), (1, 5), (2, 3), (2, 4),
                       (3, 0), (3, 4), (3, 5), (4, 0), (5, 1), (5, 3)])
    value, fwd, reached = _max_flow(d, 2, 1)
    arcs = {(0, 1), (2, 3), (2, 4), (3, 5), (4, 0), (5, 1)}
    assert (value, _row_arcs(fwd)) == (2, arcs)
    _, ref_flow, ref_reached = _reference_flow(d, 2, 1)
    assert (_carrying(ref_flow), ref_reached) == (arcs, reached)


# ---- differential checks against networkx ----


def _networkx_inputs():
    rng = random.Random(1905)
    for n in (10, 15, 20, 25, 30, 40, 50, 60):
        yield et.gen_random_semicomplete(n, rng.uniform(0.3, 0.9), rng.randrange(1 << 30))
        yield backward_chain(n, rng)


def test_connectivity_agrees_with_networkx() -> None:
    nx = pytest.importorskip("networkx")
    rng = random.Random(11)
    for d in _networkx_inputs():
        g = nx.DiGraph()
        g.add_nodes_from(d.vertices())
        g.add_edges_from(d.arcs())
        strong = nx.is_strongly_connected(g)
        lam = nx.edge_connectivity(g)
        assert et.is_strong(d) == strong
        assert et.arc_connectivity(d) == lam
        for k in range(lam + 3):
            assert _arc_strong(d, k) == (lam >= k), (d.n, lam, k)
        assert set(et.strong_components(d)) == {
            frozenset(c) for c in nx.strongly_connected_components(g)
        }
        if lam >= 2:  # no single removal can break strongness
            assert et.cut_arcs(d) == frozenset()
        elif strong:
            cuts = set()
            for a in d.arcs():
                g.remove_edge(*a)
                if not nx.is_strongly_connected(g):
                    cuts.add(a)
                g.add_edge(*a)
            assert et.cut_arcs(d) == cuts
        for _ in range(4):
            x, y = rng.sample(range(d.n), 2)
            k = rng.randint(1, 4)
            probe = et.arc_disjoint_paths(d, x, y, k)
            assert isinstance(probe, list) == (nx.edge_connectivity(g, x, y) >= k)
            if isinstance(probe, et.CutCertificate):
                assert probe.check(d) == [] and len(probe.crossing_arcs) < k


def _reference_closure(rows, start: int, within: int = -1) -> int:
    """``_closure`` with its bit loop run through the ``_mask_bits``
    generator."""
    seen = 1 << start
    frontier = seen
    while frontier:
        nxt = 0
        for v in _mask_bits(frontier):
            nxt |= rows[v]
        frontier = nxt & within & ~seen
        seen |= frontier
    return seen


def test_closure_matches_the_generator_loop() -> None:
    rng = random.Random(363667)
    for _ in range(400):
        n = rng.randint(1, 40)
        p = rng.random()
        rows = [sum(1 << v for v in range(n) if rng.random() < p) for _ in range(n)]
        start = rng.randrange(n)
        assert _closure(rows, start) == _reference_closure(rows, start)
        for _ in range(4):
            within = rng.getrandbits(n)  # start may lie outside it
            assert _closure(rows, start, within) == _reference_closure(rows, start, within)


def _set_cut_check(
    cert: et.CutCertificate, d: et.Digraph, ignore: frozenset = frozenset()
) -> list[str]:
    """The reference ``CutCertificate.check``, on vertex and arc sets."""
    s, t = set(cert.side_s), set(cert.side_t)
    if s & t or s | t != set(d.vertices()) or not s or not t:
        return ["sides do not partition the vertices"]
    crossing = {(u, v) for u, v in d.arcs() if u in s and v in t and (u, v) not in ignore}
    if crossing != set(cert.crossing_arcs):
        return ["crossing arcs do not match the digraph"]
    return []


def test_cut_check_matches_the_set_based_reference() -> None:
    """Random sides, overlapping, short of a vertex or holding ids outside
    0..n-1 included, with the true crossing arcs, one dropped or one more."""
    rng = random.Random(5)
    reports: dict[str, int] = {}
    for i in range(4000):
        n = rng.randint(1, 8)
        d = et.Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.6])
        side_s = {v for v in range(n) if rng.random() < 0.5}
        side_t = set(range(n)) - side_s
        shape = rng.randrange(6)
        if shape == 1:
            side_t.add(rng.randrange(n))  # may overlap side_s
        elif shape == 2 and n > 1:
            (side_s if side_s else side_t).discard(rng.randrange(n))  # may miss a vertex
        elif shape == 3:
            rng.choice((side_s, side_t)).add(rng.choice((-2, -1, n, n + 3)))
        ignore = frozenset(a for a in d.arcs() if rng.random() < 0.2)
        crossing = {
            (u, v) for u, v in d.arcs() if u in side_s and v in side_t and (u, v) not in ignore
        }
        if rng.random() < 0.2 and crossing:
            crossing.discard(rng.choice(sorted(crossing)))
        elif rng.random() < 0.2:
            crossing.add(rng.choice(list(d.arcs()) or [(0, 0)]))
        cert = et.CutCertificate(frozenset(side_s), frozenset(side_t), frozenset(crossing))
        for skip in (ignore, frozenset()):
            got = cert.check(d, skip)
            assert got == _set_cut_check(cert, d, skip), (n, sorted(d.arcs()), cert, skip)
            key = got[0] if got else "valid"
            reports[key] = reports.get(key, 0) + 1
    assert len(reports) == 3 and min(reports.values()) > 500, reports


# ---- the threshold test against the exact value ----


def _threshold_inputs():
    """Every semicomplete digraph on up to four vertices, then seeded
    backward chains and dense digraphs up to 60 vertices."""
    for n in range(5):
        yield from enumerate_all_semicomplete(n)
    rng = random.Random(2611)
    for n in (5, 8, 12, 20, 30, 45, 60):
        yield backward_chain(n, rng)
        yield strong_backward_chain(n, rng)
        for p in (0.2, 0.6, 0.95):
            yield et.gen_random_semicomplete(n, p, rng.randrange(1 << 30))


def test_arc_strong_agrees_with_the_exact_value() -> None:
    seen = set()
    for d in _threshold_inputs():
        lam = et.arc_connectivity(d)
        seen.add(min(lam, 3))
        for k in range(-1, lam + 3):
            assert _arc_strong(d, k) == (lam >= k), (d.n, sorted(d.arcs()), k)
    assert seen == {0, 1, 2, 3}, seen
    # λ's conventions: k <= 0 always holds, and n <= 1 is never 1-arc-strong
    for n in (0, 1):
        assert _arc_strong(et.Digraph(n), 0) and _arc_strong(et.Digraph(n), -2)
        assert not _arc_strong(et.Digraph(n), 1) and not _arc_strong(et.Digraph(n), 2)
    assert _arc_strong(transitive(4), 0) and not _arc_strong(transitive(4), 1)


def test_no_production_path_computes_the_exact_arc_connectivity(tmp_path, monkeypatch) -> None:
    """On a dense 2-arc-strong digraph no call below needs a cut
    certificate, so any call of ``arc_connectivity_certificate`` is an
    exact λ; only ``analyze`` and the public API may compute one."""
    from eulertrail import classify, cli, connectivity, factor

    d = et.gen_random_semicomplete(16, 0.85, 0)
    lam = et.arc_connectivity(d)
    assert lam >= 10
    exact = []

    def refused(host):
        exact.append(host)
        raise AssertionError("exact arc connectivity computed")

    for module in (connectivity, classify, factor):
        monkeypatch.setattr(module, "arc_connectivity_certificate", refused)
    Caches().clear()

    rows = et.classify_all(d)
    assert all(c.in_some and not u.unavoidable for c, u in rows)
    for x, y in ((0, 1), (5, 2), (15, 7)):
        assert et.spanning_trail(d, x, y).vertices[0] == x
    assert et.cut_arcs(d) == frozenset()
    assert et.factor_exists_guarantee(d, lam - 1)
    assert not et.factor_exists_guarantee(d, lam)
    # without the one-way arcs (u,v) and (v,w), v is adjacent to neither u
    # nor w, which stay adjacent; such a remainder is not multipartite, so
    # the reduction bound is asked (the trace shows it)
    one_way = [(u, v) for u, v in d.arcs() if not d.has_arc(v, u)]
    u, v, w = next((u, v, w) for u, v in one_way for a, w in one_way if a == v and w != u)
    four = [(u, v), (v, w), *[a for a in one_way if v not in a][:2]]
    for forbidden in (one_way[:1], four):
        assert et.is_strong(d.remove_arcs(forbidden))
        trace: list[str] = []
        got = et.spanning_eulerian_avoiding(d, forbidden, trace)
        assert isinstance(got, et.EulerianSubdigraph), trace
    assert "multipartite-direct" not in trace, trace
    path = tmp_path / "d.json"
    path.write_text(et.serialize_json(d), encoding="utf-8")
    arcs = tmp_path / "arcs.json"
    arcs.write_text(json.dumps([list(a) for a in four]), encoding="utf-8")
    for argv in (
        ["classify", str(path), "--all"],
        ["trail", str(path), "--from", "3", "--to", "9"],
        ["avoid", str(path), "--arcs", str(arcs)],
    ):
        Caches().clear()
        assert cli.main([*argv, "--quiet"]) == 0, argv
    assert exact == []
