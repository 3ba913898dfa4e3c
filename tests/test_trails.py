import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eulertrail as et
from eulertrail import trails
from eulertrail.digraph import _rows_of
from eulertrail.trails import (
    _accepted_trail,
    _trail_walk,
)
from instances import (
    backward_chain,
    complete,
    random_strong_semicomplete,
    three_cycle,
    weak_components,
)


def out_counts(arcs) -> dict[int, int]:
    counts: dict[int, int] = {}
    for u, _ in arcs:
        counts[u] = counts.get(u, 0) + 1
    return counts


def test_trail_accessors() -> None:
    t = et.Trail((0, 2, 0, 1))
    assert t.start == 0
    assert t.end == 1
    assert t.arcs() == [(0, 2), (2, 0), (0, 1)]


def test_validate_trail_flags_defects() -> None:
    d = complete(3)
    assert et.Trail((0, 2, 0, 1)).check(d, 0, 1) == []
    assert et.Trail((0, 2, 0, 1)).check(d, 0, 2) != []
    assert et.Trail((0, 1, 0, 1)).check(d, 0, 1) != []  # arc repeats
    short = et.Trail((0, 1)).check(d, 0, 1)  # misses vertex 2
    assert any("cover" in issue for issue in short)
    missing = et.Trail((0, 2, 1)).check(three_cycle(), 0, 1)
    assert any("not in the digraph" in issue for issue in missing)
    # ids outside 0..n-1 are reported, not read as bits or rows
    below = et.Trail((0, 1, -1)).check(et.gen_d3(), 0, -1)
    assert "arc (1, -1) is not in the digraph" in below
    beyond = et.Trail((7, 0, 1, 2)).check(d, 7, 2)
    assert "arc (7, 0) is not in the digraph" in beyond


def test_validate_eulerian_subdigraph_flags_defects() -> None:
    d = complete(3)
    triangle = et.EulerianSubdigraph(frozenset({(0, 1), (1, 2), (2, 0)}))
    assert triangle.check(d) == []
    assert triangle.vertices() == frozenset({0, 1, 2})
    unbalanced = et.EulerianSubdigraph(frozenset({(0, 1), (1, 2), (2, 0), (0, 2)}))
    assert unbalanced.check(d) != []
    not_spanning = et.EulerianSubdigraph(frozenset({(0, 1), (1, 0)}))
    assert not_spanning.check(d) != []
    foreign = et.EulerianSubdigraph(frozenset({(0, 1), (1, 0), (2, 2)}))
    assert foreign.check(d) != []
    # two disjoint 2-cycles balance but do not connect
    d4 = complete(4)
    split = et.EulerianSubdigraph(frozenset({(0, 1), (1, 0), (2, 3), (3, 2)}))
    assert any("connect" in i for i in split.check(d4))


def test_eulerian_subdigraph_check_at_the_smallest_sizes() -> None:
    empty = et.EulerianSubdigraph(frozenset())
    assert empty.check(et.Digraph(0)) == []
    assert empty.check(et.Digraph(1)) == []  # a lone vertex is eulerian
    assert empty.check(et.Digraph(2)) == ["vertex 0 is not covered", "vertex 1 is not covered"]
    assert empty.check(et.Digraph(2, [(0, 1), (1, 0)])) == [
        "vertex 0 is not covered", "vertex 1 is not covered"
    ]
    # ends outside 0..n-1 are reported, not read as other vertices
    d = complete(3)
    for arc in ((-1, 0), (0, -3), (3, 0)):
        cycle = et.EulerianSubdigraph(frozenset({arc, (0, 1), (1, 2), (2, 0)}))
        assert cycle.check(d) == [f"arc ({arc[0]},{arc[1]}) is not in the digraph"]


def test_eulerian_subdigraph_check_finds_interleaved_components() -> None:
    d = complete(5)
    # covered and balanced; the part without vertex 0 holds 1 and 4
    apart = frozenset({(1, 4), (4, 1), (0, 2), (2, 0), (3, 0), (0, 3)})
    assert et.EulerianSubdigraph(apart).check(d) == ["arc set is not connected"]
    joined = et.EulerianSubdigraph(apart | {(2, 4), (4, 2)})
    assert joined.check(d) == []
    split = et.EulerianSubdigraph(frozenset({(1, 4), (4, 3), (3, 1), (0, 2), (2, 0)}))
    assert split.check(d) == ["arc set is not connected"]


def test_eulerian_subdigraph_check_agrees_with_weak_components(monkeypatch) -> None:
    """Every witness of one benchmark pass, alone, beside a disjoint copy
    of itself, and joined to that copy by a 2-cycle."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
    from perfbench.run import seeded_inputs

    seen = 0
    with seeded_inputs("classify-all", 1) as (_, instances, _):
        for inst in instances:
            d = et.Digraph(inst.n, inst.arcs)
            try:
                rows = et.classify_all(d)
            except et.ConstructionError:
                continue
            n = d.n
            copy = [(u + n, v + n) for u, v in inst.arcs]
            double = et.Digraph(2 * n, list(inst.arcs) + copy + [(0, n), (n, 0)])
            witnesses = {w for row in rows for w in (row[0].witness, row[1].avoidance_witness)}
            for w in witnesses - {None}:
                apart = w.arcs | {(u + n, v + n) for u, v in w.arcs}
                for host, arcs, joined in (
                    (d, w.arcs, True),
                    (double, apart, False),
                    (double, apart | {(0, n), (n, 0)}, True),
                ):
                    issues = et.EulerianSubdigraph(arcs).check(host)
                    assert issues == ([] if joined else ["arc set is not connected"])
                    assert (len(weak_components(host.n, arcs)) == 1) == joined
                    seen += 1
    assert seen > 3000


def test_eulerian_subdigraph_check_flags_an_avoided_arc() -> None:
    d = complete(3)
    triangle = et.EulerianSubdigraph(frozenset({(0, 1), (1, 2), (2, 0)}))
    assert triangle.check(d, frozenset({(1, 0)})) == []
    assert any("avoided" in i for i in triangle.check(d, frozenset({(1, 2)})))


def _walked(arcs, x: int, y: int) -> et.Trail | None:
    """The (x,y)-trail that ``_trail_walk`` orders an arc set into, or
    None where the arcs form no such trail."""
    arcs = set(arcs)
    n = 1 + max((x, y, *(v for arc in arcs for v in arc)))
    walk = _trail_walk(_rows_of(arcs, n), len(arcs), x, y)
    return None if walk is None else et.Trail(tuple(walk))


def test_arcs_to_trail_reconstructs_a_walk() -> None:
    arcs = {(0, 1), (1, 2), (2, 1)}
    trail = _walked(arcs, 0, 1)
    assert trail.check(et.gen_d3(), 0, 1) == []
    assert set(trail.arcs()) == arcs


def test_closed_tour_visits_every_arc_once() -> None:
    arcs = {(0, 1), (1, 2), (2, 0), (1, 0), (0, 2), (2, 1)}
    tour = _walked(arcs, 1, 1)
    assert tour.start == tour.end == 1 and len(tour.vertices) == len(arcs) + 1
    assert set(tour.arcs()) == arcs
    assert _walked({(0, 1), (1, 0), (2, 3), (3, 2)}, 0, 0) is None  # two separate tours


def test_arcs_to_trail_refuses_an_unbalanced_arc_set() -> None:
    # Hierholzer from 0 would splice these into 0-2-1-3, which steps along
    # (2, 1), an arc the set does not hold
    assert _walked({(0, 1), (1, 3), (0, 2)}, 0, 3) is None


def test_ladder_rejects_a_candidate_using_yx() -> None:
    d = complete(3)
    arcs = {(0, 2), (2, 1), (1, 0), (0, 1)}  # the spanning trail 0-2-1-0-1
    assert _walked(arcs, 0, 1).check(d, 0, 1) == []
    assert _accepted(d, arcs, 0, 1) is None


def test_ladder_rejects_a_candidate_leaving_a_vertex_three_times() -> None:
    d = complete(4)
    thrice = {(0, 2), (2, 0), (0, 3), (3, 0), (0, 1)}  # 0-2-0-3-0-1
    assert _walked(thrice, 0, 1).check(d, 0, 1) == []
    assert _accepted(d, thrice, 0, 1) is None
    y_twice = {(0, 1), (1, 2), (2, 1), (1, 3), (3, 1)}  # 0-1-2-1-3-1
    assert _walked(y_twice, 0, 1).check(d, 0, 1) == []
    assert _accepted(d, y_twice, 0, 1) is None
    twice = {(0, 2), (2, 0), (0, 3), (3, 1)}  # 0-2-0-3-1 keeps the promise
    assert _accepted(d, twice, 0, 1) == et.Trail((0, 2, 0, 3, 1))


def _accepted(d: et.Digraph, arcs, x: int, y: int) -> et.Trail | None:
    """``_accepted_trail`` on the out-rows of an arc set of d."""
    return _accepted_trail(d, _rows_of(arcs, d.n), x, y)


def _set_based_trail(arcs, x: int, y: int) -> et.Trail | None:
    """The arc-set walk as it was: the dict-keyed walk, then its arcs
    compared with the set as a set; None where that raised."""
    arcs = set(arcs)
    walk = _reference_walk(arcs, x)
    if len(walk) != len(arcs) + 1 or walk[-1] != y or set(zip(walk, walk[1:])) != arcs:
        return None
    return et.Trail(tuple(walk))


def _two_pass_accepted_trail(d: et.Digraph, arcs, x: int, y: int) -> et.Trail | None:
    """The reference acceptance: the set-based arc-set walk, then
    ``Trail.check`` and the promise, each in its own pass."""
    trail = _set_based_trail(arcs, x, y)
    if trail is None:
        return None
    leaves = [0] * d.n
    for v in trail.vertices[:-1]:
        leaves[v] += 1
    if trail.check(d, x, y) or (y, x) in arcs or max(leaves) > 2 or leaves[y] > 1:
        return None
    return trail


def test_accepted_trail_matches_the_two_pass_reference_on_mutants() -> None:
    d = complete(4)
    kept = frozenset({(0, 2), (2, 0), (0, 3), (3, 1)})  # 0-2-0-3-1
    cases = [
        (d, kept, 0, 1, True),
        (d.remove_arcs([(0, 3)]), kept, 0, 1, False),  # an arc not in d
        (complete(5), kept, 0, 1, False),  # misses vertex 4
        (d, {(0, 2), (2, 1), (1, 0), (0, 3), (3, 1)}, 0, 1, False),  # uses yx
        (d, {(0, 2), (2, 0), (0, 3), (3, 0), (0, 1)}, 0, 1, False),  # 0 left three times
        (d, {(0, 1), (1, 2), (2, 1), (1, 3), (3, 1)}, 0, 1, False),  # y left twice
        (d, kept | {(2, 3)}, 0, 1, False),  # unbalanced
        (d, kept, 0, 3, False),  # wrong endpoints
        (d, kept, 2, 1, False),
    ]
    for host, arcs, x, y, accepted in cases:
        got = _accepted(host, arcs, x, y)
        assert got == _two_pass_accepted_trail(host, arcs, x, y)
        assert (got is not None) == accepted, (sorted(arcs), x, y)


def test_accepted_trail_refuses_rows_that_name_no_arc_of_d() -> None:
    """Mutants that only out-rows can express: a bit at position n, a bit
    for an arc that d lacks, and the bit for yx beside a kept trail."""
    d = complete(4)
    kept = _rows_of({(0, 2), (2, 0), (0, 3), (3, 1)}, 4)  # 0-2-0-3-1
    assert _accepted_trail(d, list(kept), 0, 1) == et.Trail((0, 2, 0, 3, 1))
    beyond = list(kept)
    beyond[3] |= 1 << 4  # the arc (3,4) of no vertex 4
    assert _accepted_trail(d, beyond, 0, 1) is None
    lacking = d.remove_arcs([(2, 0)])
    assert _accepted_trail(lacking, list(kept), 0, 1) is None
    yx = list(kept)
    yx[1] |= 1 << 0
    assert _accepted_trail(d, yx, 0, 1) is None


def test_accepted_trail_matches_the_two_pass_reference_on_random_walks() -> None:
    """Random walks with distinct arcs in a complete digraph, judged in
    that digraph or in a random semicomplete one on the same vertices,
    between their own ends or two other vertices, and sometimes with one
    arc more."""
    rng = random.Random(13)
    verdicts = {True: 0, False: 0}
    for i in range(3000):
        n = rng.randint(3, 6)
        walk, used = [rng.randrange(n)], set()
        for _ in range(rng.randint(2, 3 * n)):
            u = walk[-1]
            heads = [v for v in range(n) if v != u and (u, v) not in used]
            if not heads:
                break
            v = rng.choice(heads)
            used.add((u, v))
            walk.append(v)
        x, y = walk[0], walk[-1]
        if x == y:
            continue
        host = complete(n) if rng.random() < 0.6 else random_strong_semicomplete(n, i)
        arcs = set(used)
        if rng.random() < 0.15:
            arcs.add(rng.choice([a for a in host.arcs() if a not in arcs] or [(x, y)]))
        if rng.random() < 0.15:
            x, y = rng.sample(range(n), 2)
        got = _accepted(host, arcs, x, y)
        assert got == _two_pass_accepted_trail(host, arcs, x, y), (n, sorted(arcs), x, y)
        verdicts[got is not None] += 1
    assert min(verdicts.values()) > 200, verdicts


def test_spanning_trail_basic() -> None:
    d = complete(3)
    trail = et.spanning_trail(d, 0, 1)
    assert trail.check(d, 0, 1) == []
    arcs = trail.arcs()
    assert (1, 0) not in arcs
    assert all(c <= 2 for c in out_counts(arcs).values())
    assert out_counts(arcs).get(1, 0) <= 1


def test_spanning_trail_preconditions() -> None:
    with pytest.raises(et.PreconditionError):
        et.spanning_trail(three_cycle(), 0, 1)  # only one (0,1)-path
    with pytest.raises(et.PreconditionError):
        et.spanning_trail(complete(3), 0, 0)
    with pytest.raises(et.PreconditionError):
        et.spanning_trail(et.Digraph(3, [(0, 1), (1, 2)]), 0, 2)
    with pytest.raises(et.PreconditionError):
        et.spanning_trail(et.Digraph(4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (0, 2), (1, 3), (0, 3)]), 3, 0)


def test_spanning_trail_reports_the_separating_cut() -> None:
    try:
        et.spanning_trail(three_cycle(), 0, 1)
    except et.PreconditionError as exc:
        assert "(0, 1)" in str(exc)
    else:  # pragma: no cover
        raise AssertionError("expected a PreconditionError")


def test_a_failed_ladder_names_its_pair(monkeypatch) -> None:
    monkeypatch.setattr(trails, "_ladder_trail", lambda *args, **kwargs: None)
    with pytest.raises(et.ConstructionError, match=r"succeeded for \(2, 0\)$"):
        et.spanning_trail(complete(4), 2, 0)


def test_spanning_trail_trace_names_a_route() -> None:
    trace: list[str] = []
    et.spanning_trail(complete(4), 0, 3, trace=trace)
    assert trace


@settings(max_examples=50)
@given(n=st.integers(min_value=4, max_value=7), seed=st.integers(0, 10**6))
def test_spanning_trail_for_every_linked_pair(n: int, seed: int) -> None:
    d = random_strong_semicomplete(n, seed)
    for x in d.vertices():
        for y in d.vertices():
            if x == y:
                continue
            if isinstance(et.arc_disjoint_paths(d, x, y, 2), et.CutCertificate):
                continue
            trail = et.spanning_trail(d, x, y)
            assert trail.check(d, x, y) == []
            arcs = trail.arcs()
            assert (y, x) not in arcs
            assert all(c <= 2 for c in out_counts(arcs).values())
            assert out_counts(arcs).get(y, 0) <= 1


def test_two_arc_strong_digraph_stays_strong_without_both_arcs_of_a_pair() -> None:
    """What lets the direct-arc case skip its strongness test at
    arc-connectivity 2 or more: a directed cut holds at most one of xy
    and yx, so dropping both leaves d strong."""
    rng = random.Random(6203)
    seen = 0
    while seen < 60:
        d = random_strong_semicomplete(rng.randint(3, 14), rng.randrange(10**6))
        if et.arc_connectivity(d) < 2:
            continue
        seen += 1
        for x, y in d.arcs():
            pair = [(x, y), (y, x)] if d.has_arc(y, x) else [(x, y)]
            assert et.is_strong(d.remove_arcs(pair)), (sorted(d.arcs()), (x, y))


def test_is_eulerian_connected_frozen_cases() -> None:
    assert et.is_eulerian_connected(complete(4)) == (True, None)
    assert et.is_eulerian_connected(three_cycle()) == (False, (0, 1))
    # in the small exceptional digraph only the pair (1, 2) lacks a trail
    assert et.is_eulerian_connected(et.gen_d3()) == (False, (1, 2))


def test_is_eulerian_connected_raises_past_the_oracle_guard() -> None:
    # below arc-connectivity 2 some pair lacks two arc-disjoint paths and
    # goes to the oracle, which refuses 14 vertices rather than answer
    for s in range(5):
        d = backward_chain(14, random.Random(s))
        assert et.arc_connectivity(d) == 1
        with pytest.raises(et.PreconditionError, match="oracle guard"):
            et.is_eulerian_connected(d)


# ---- the Hierholzer walk against the walks it replaced ----


def _reference_walk(arcs, start: int) -> list[int]:
    """The Hierholzer walk as it was, with a sorted head list per tail."""
    succ: dict[int, list[int]] = {}
    for u, v in arcs:
        succ.setdefault(u, []).append(v)
    for heads in succ.values():
        heads.sort(reverse=True)  # pop() takes the smallest head
    stack = [start]
    walk: list[int] = []
    while stack:
        v = stack[-1]
        if succ.get(v):
            stack.append(succ[v].pop())
        else:
            walk.append(stack.pop())
    walk.reverse()
    return walk


def _random_arc_set(rng: random.Random, n: int, balanced: bool) -> set:
    """Arc-disjoint random cycles when balanced, random arcs otherwise."""
    arcs: set = set()
    if not balanced:
        return {(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.3}
    for _ in range(rng.randint(1, 5)):
        cycle = rng.sample(range(n), rng.randint(2, n))
        new = set(zip(cycle, cycle[1:] + cycle[:1]))
        if not new & arcs:
            arcs |= new
    return arcs


def test_euler_walk_matches_the_dict_keyed_walk() -> None:
    """On arc-disjoint cycles, ``_trail_walk`` gives the dict-keyed walk's
    closed tour from each start that reaches every arc, and None from a
    start that does not."""
    balanced_tours = 0
    rng = random.Random(1736)
    for _ in range(400):
        n = rng.randint(2, 14)
        arcs = _random_arc_set(rng, n, balanced=True)
        for start in rng.sample(range(n), min(3, n)):
            want = _reference_walk(arcs, start)
            if len(want) != len(arcs) + 1:
                want = None
            assert _trail_walk(_rows_of(arcs, n), len(arcs), start, start) == want
            balanced_tours += want is not None
    assert balanced_tours > 300


def _copy_and_step_walk(rows: list[int], m: int, x: int, y: int) -> list[int] | None:
    """``_trail_walk`` as it was: a Hierholzer walk over a copy of the
    rows, then a second pass that steps the walk over the rows and
    refuses a step whose arc is not there."""
    left = rows.copy()
    stack = [x]
    walk: list[int] = []
    while stack:
        v = stack.pop()
        row = left[v]
        while row:
            stack.append(v)
            low = row & -row
            left[v] = row ^ low
            v = low.bit_length() - 1
            row = left[v]
        walk.append(v)
    walk.reverse()
    if len(walk) != m + 1 or walk[-1] != y:
        return None
    for u, v in zip(walk, walk[1:]):
        bit = 1 << v
        if not rows[u] & bit:
            return None
        rows[u] ^= bit
    return walk


def _random_trail(rng: random.Random, n: int, x: int) -> tuple[set, int]:
    """The arcs of a random trail from x in the complete digraph on n
    vertices, and its end."""
    arcs: set = set()
    v = x
    for _ in range(rng.randint(1, n * (n - 1))):
        heads = [w for w in range(n) if w != v and (v, w) not in arcs]
        if not heads:
            break
        w = rng.choice(heads)
        arcs.add((v, w))
        v = w
    return arcs, v


def test_trail_walk_matches_the_copy_and_step_walk() -> None:
    """One walk that refuses an open sub-walk as it ends answers as the
    walk over a copy followed by a step pass did, on balanced arc sets,
    on trails with one arc added or removed, and on random arc sets."""
    rng = random.Random(2024)
    accepted = refused = 0
    for i in range(3000):
        n = rng.randint(2, 9)
        x = rng.randrange(n)
        kind = i % 4
        if kind == 0:  # unbalanced, at random density
            p = rng.random()
            arcs = {(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p}
            y = rng.randrange(n)
        elif kind == 1:  # balanced
            arcs, y = _random_arc_set(rng, n, balanced=True), x
        else:  # a trail, as it is or with one arc added or removed
            arcs, y = _random_trail(rng, n, x)
            if kind == 3:
                u, v = rng.sample(range(n), 2)
                arcs ^= {(u, v)}
        rows = _rows_of(arcs, n)
        want = _copy_and_step_walk(rows.copy(), len(arcs), x, y)
        assert _trail_walk(rows, len(arcs), x, y) == want, (n, sorted(arcs), x, y)
        accepted += want is not None
        refused += want is None
    assert accepted > 800 and refused > 800, (accepted, refused)


def test_arc_set_adapters_match_the_set_based_walk() -> None:
    """``_trail_walk`` on an arc set's rows gives the trail or tour that
    the dict-keyed walk with a set comparison gave, and none where it
    found none, on balanced and unbalanced random arc sets."""
    rng = random.Random(2906)
    trails_found = tours_found = 0
    for i in range(800):
        n = rng.randint(2, 12)
        arcs = _random_arc_set(rng, n, balanced=i % 2 == 1)
        pairs = [rng.sample(range(n), 2), (rng.randrange(n),) * 2]
        if i % 4 == 1 and arcs:  # a (v,u)-trail when a tour drops (u,v)
            u, v = rng.choice(sorted(arcs))
            arcs.discard((u, v))
            pairs.append((v, u))
        for x, y in pairs:
            want = _set_based_trail(arcs, x, y)
            got = _walked(arcs, x, y)
            assert got == want, (n, sorted(arcs), x, y)
            if got is not None:
                trails_found += x != y
                tours_found += x == y
    assert trails_found > 100 and tours_found > 100, (trails_found, tours_found)
