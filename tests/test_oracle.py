import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eulertrail as et
from eulertrail.oracle import (
    _search,
    all_spanning_eulerian,
    enumerate_all_semicomplete,
    enumerate_all_tournaments,
    enumerate_spanning_eulerian,
    find_trail_oracle,
    oracle_eulerian_factor,
    spanning_eulerian_exists,
)
from instances import complete, random_strong_semicomplete, t4, three_cycle


TRIANGLE = frozenset({(0, 1), (1, 2), (2, 0)})


def test_d3_has_one_spanning_eulerian_subdigraph() -> None:
    assert all_spanning_eulerian(et.gen_d3()) == (TRIANGLE,)


def test_t4_has_one_spanning_eulerian_subdigraph() -> None:
    assert all_spanning_eulerian(t4()) == (
        frozenset({(0, 1), (1, 2), (2, 3), (3, 0)}),
    )


def test_complete_3_enumeration() -> None:
    found = set(all_spanning_eulerian(complete(3)))
    assert len(found) == 6
    assert TRIANGLE in found
    assert frozenset({(0, 2), (2, 1), (1, 0)}) in found
    assert frozenset(complete(3).arcs()) in found
    # the three unions of two 2-cycles
    for missing in range(3):
        pair = frozenset(
            (u, v) for u in range(3) for v in range(3) if u != v and missing not in (u, v)
        )
        assert pair not in found  # not spanning on its own
    assert frozenset({(0, 1), (1, 0), (1, 2), (2, 1)}) in found


def test_enumeration_respects_constraints() -> None:
    d = complete(3)
    every = set(all_spanning_eulerian(d))
    with_arc = set(enumerate_spanning_eulerian(d, must_contain={(0, 1)}))
    without = set(enumerate_spanning_eulerian(d, must_avoid={(0, 1)}))
    assert with_arc == {s for s in every if (0, 1) in s}
    assert without == {s for s in every if (0, 1) not in s}
    assert with_arc | without == every
    assert enumerate_spanning_eulerian(d, limit=2) != enumerate_spanning_eulerian(d, limit=1)
    assert len(enumerate_spanning_eulerian(d, limit=2)) == 2


def test_spanning_eulerian_exists() -> None:
    assert spanning_eulerian_exists(three_cycle())
    assert not spanning_eulerian_exists(three_cycle(), must_avoid={(0, 1)})
    assert not spanning_eulerian_exists(et.gen_d3(), must_contain={(2, 1)})


def test_contradictory_constraints_have_no_subdigraph() -> None:
    d = complete(3)
    both = {(0, 1)}
    assert enumerate_spanning_eulerian(d, must_contain=both, must_avoid=both, limit=1) == []
    assert enumerate_spanning_eulerian(d, must_contain=both, must_avoid=both) == []
    assert not spanning_eulerian_exists(d, must_contain=both, must_avoid=both)
    # one shared arc is enough, whatever else either set holds
    assert not spanning_eulerian_exists(
        d, must_contain={(1, 2), (0, 1)}, must_avoid={(0, 1), (2, 0)}
    )


def test_find_trail_oracle_frozen_cases() -> None:
    assert find_trail_oracle(three_cycle(), 0, 1) is None
    d3 = et.gen_d3()
    assert find_trail_oracle(d3, 0, 1) == frozenset({(0, 1), (1, 2), (2, 1)})
    assert find_trail_oracle(d3, 1, 2) is None
    found = find_trail_oracle(complete(3), 0, 1)
    assert found is not None
    outs = {v: 0 for v in range(3)}
    ins = {v: 0 for v in range(3)}
    for u, v in found:
        outs[u] += 1
        ins[v] += 1
    assert outs[0] - ins[0] == 1
    assert ins[1] - outs[1] == 1
    assert outs[2] == ins[2] > 0


def test_find_trail_oracle_out_cap() -> None:
    capped = find_trail_oracle(complete(3), 0, 1, out_cap={0: 1, 1: 1, 2: 1})
    assert capped is not None
    for v in range(3):
        assert sum(1 for a in capped if a[0] == v) <= 1


def test_find_trail_oracle_rejects_equal_endpoints() -> None:
    with pytest.raises(et.PreconditionError):
        find_trail_oracle(complete(3), 1, 1)


def test_factor_oracle_ignores_connectivity() -> None:
    two_cycles = et.Digraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert oracle_eulerian_factor(two_cycles)
    assert not spanning_eulerian_exists(two_cycles)
    assert not oracle_eulerian_factor(three_cycle(), avoid={(0, 1)})


def test_size_guard() -> None:
    ring = et.Digraph(26, [(i, (i + 1) % 26) for i in range(26)])
    with pytest.raises(et.PreconditionError):
        enumerate_spanning_eulerian(ring)


def test_enumerate_all_tournaments() -> None:
    small = list(enumerate_all_tournaments(3))
    assert len(small) == 8
    assert all(et.is_tournament(t) for t in small)
    assert sum(1 for t in small if et.is_strong(t)) == 2
    assert len(list(enumerate_all_tournaments(4))) == 64


def test_enumerate_all_semicomplete() -> None:
    small = list(enumerate_all_semicomplete(3))
    assert len(small) == 27
    assert all(et.is_semicomplete(d) for d in small)
    assert len({frozenset(d.arcs()) for d in small}) == 27
    sampled = list(enumerate_all_semicomplete(5, sample=100))
    assert len(sampled) == 100
    assert sampled == list(enumerate_all_semicomplete(5, sample=100))


@settings(max_examples=30)
@given(n=st.integers(min_value=3, max_value=5), seed=st.integers(0, 10**6))
def test_enumerated_subdigraphs_are_valid(n: int, seed: int) -> None:
    d = random_strong_semicomplete(n, seed)
    for arcs in all_spanning_eulerian(d):
        assert et.EulerianSubdigraph(arcs).check(d) == []


def _reference_connected_covering(n, arcs):
    """True iff the arcs touch every vertex and form one weak component."""
    if n <= 1:
        return True
    adj = [[] for _ in range(n)]
    for u, v in arcs:
        adj[u].append(v)
        adj[v].append(u)
    if any(not a for a in adj):
        return False
    seen = [False] * n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        for w in adj[stack.pop()]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == n


def _reference_search(d, must_contain, must_avoid, imbalance, out_cap, limit, connected):
    """The subset search as it was before it kept its state in bitmask
    rows: the degree window in a helper, and the seal test rebuilding an
    adjacency dict from the chosen arcs at every node."""
    n = d.n
    arcs = list(d.arcs())
    if any(not d.has_arc(u, v) for u, v in must_contain):
        return []
    if n <= 1:
        return [frozenset()]
    rem_out = [d.out_degree(v) for v in range(n)]
    rem_in = [d.in_degree(v) for v in range(n)]
    out_used = [0] * n
    in_used = [0] * n
    imb = [imbalance.get(v, 0) for v in range(n)]
    cap = [out_cap.get(v, n) if out_cap else n for v in range(n)]
    chosen = []
    results = []

    def feasible(w):
        lo, hi = out_used[w], out_used[w] + rem_out[w]
        hi = min(hi, cap[w])
        li, hi_in = in_used[w] + imb[w], in_used[w] + rem_in[w] + imb[w]
        top = min(hi, hi_in)
        if top < max(lo, li):
            return False
        return max(top, top - imb[w]) >= 1

    def closed_too_early(w):
        if rem_out[w] or rem_in[w]:
            return False
        comp = {w}
        stack = [w]
        adj = {}
        for a, b in chosen:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        while stack:
            v = stack.pop()
            if rem_out[v] or rem_in[v]:
                return False
            for u in adj.get(v, ()):
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        return len(comp) < n

    def rec(i):
        if limit is not None and len(results) >= limit:
            return True
        if i == len(arcs):
            if all(
                out_used[v] == in_used[v] + imb[v] and out_used[v] + in_used[v] >= 1
                for v in range(n)
            ) and (not connected or _reference_connected_covering(n, chosen)):
                results.append(frozenset(chosen))
                if limit is not None and len(results) >= limit:
                    return True
            return False
        u, v = arcs[i]
        rem_out[u] -= 1
        rem_in[v] -= 1
        arc = (u, v)
        if arc in must_contain:
            branches = (True,)
        elif arc in must_avoid:
            branches = (False,)
        else:
            branches = (True, False)
        stop = False
        for take in branches:
            if take:
                if out_used[u] >= cap[u]:
                    continue
                out_used[u] += 1
                in_used[v] += 1
                chosen.append(arc)
            ok = feasible(u) and feasible(v)
            if ok and connected and (closed_too_early(u) or closed_too_early(v)):
                ok = False
            if ok and rec(i + 1):
                stop = True
            if take:
                chosen.pop()
                out_used[u] -= 1
                in_used[v] -= 1
            if stop:
                break
        rem_out[u] += 1
        rem_in[v] += 1
        return stop

    rec(0)
    return results


def _search_cases():
    """Search arguments over the exhaustive pool and over seeded random
    digraphs with n <= 7, semicomplete ones and sparse ones: every limit,
    with and without connectivity, with a trail's imbalance and out-caps,
    and with arcs to contain and to avoid.  Sweeps without a limit stay on
    digraphs with at most 16 arcs."""
    pool = [d for d in enumerate_all_semicomplete(4) if et.is_strong(d)]
    pool += [d for d in enumerate_all_tournaments(5) if et.is_strong(d)]
    rng = random.Random("oracle-search")
    digraphs = pool + [None] * 1500
    for d in digraphs:
        if d is None:
            n = rng.randint(2, 7)
            if rng.random() < 0.5:
                d = et.gen_random_semicomplete(n, rng.random(), rng.randrange(1 << 30))
            else:
                p = rng.uniform(0.2, 0.8)
                d = et.Digraph(n, [(u, v) for u in range(n) for v in range(n)
                                   if u != v and rng.random() < p])
        arcs = list(d.arcs())
        limit = rng.choice((None, 1, 2) if d.m <= 16 else (1, 2))
        connected = rng.random() < 0.5
        imbalance, out_cap, contain, avoid = {}, None, frozenset(), frozenset()
        kind = rng.randrange(4)
        if kind == 1:
            x, y = rng.sample(range(d.n), 2)
            imbalance = {x: 1, y: -1}
            if rng.random() < 0.5:
                out_cap = {v: rng.randint(1, 2) for v in range(d.n)}
        elif kind >= 2 and arcs:
            picked = rng.sample(arcs, min(len(arcs), rng.randint(1, 4)))
            cut = rng.randint(0, len(picked)) if kind == 3 else len(picked)
            contain, avoid = frozenset(picked[:cut]), frozenset(picked[cut:])
        yield d, contain, avoid, imbalance, out_cap, limit, connected


def test_oracle_search_matches_the_reference_search() -> None:
    seen = {"limit": set(), "connected": set(), "found": 0, "empty": 0, "several": 0}
    for d, contain, avoid, imbalance, out_cap, limit, connected in _search_cases():
        args = (d, contain, avoid, imbalance, out_cap, limit, connected)
        got = _search(*args)
        assert got == _reference_search(*args), (sorted(d.arcs()), args[1:])
        seen["limit"].add(limit)
        seen["connected"].add(connected)
        seen["found"] += bool(got)
        seen["empty"] += not got
        seen["several"] += len(got) > 1
    assert seen["limit"] == {None, 1, 2} and seen["connected"] == {True, False}
    # the cases find solutions, find none, and find several in order
    assert seen["found"] > 500 and seen["empty"] > 300 and seen["several"] > 300
