import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eulertrail as et
from eulertrail import factor
from eulertrail._flow import _circulate
from eulertrail.cli import _gen_hard_instance
from eulertrail.digraph import _mask_bits, _mask_of, _row_arcs, _rows_of
from eulertrail.factor import (
    MergeOption,
    _cross_cycle,
    _merge,
    _next_move,
    _refine_obstruction,
    is_semicomplete_multipartite,
)
from eulertrail.oracle import (
    ORACLE_MAX_VERTICES,
    enumerate_all_semicomplete,
    enumerate_all_tournaments,
    enumerate_spanning_eulerian,
    oracle_eulerian_factor,
    spanning_eulerian_exists,
)
from instances import (
    backward_chain,
    complete,
    random_strong_semicomplete,
    reference_shortest_walk,
    t4,
    three_cycle,
    weak_components,
)


def balanced_everywhere(d: et.Digraph, arcs) -> bool:
    outs = {v: 0 for v in d.vertices()}
    ins = {v: 0 for v in d.vertices()}
    for u, v in arcs:
        if not d.has_arc(u, v):
            return False
        outs[u] += 1
        ins[v] += 1
    return all(outs[v] == ins[v] >= 1 for v in d.vertices())


def test_eulerian_factor_on_complete() -> None:
    result = et.eulerian_factor(complete(4))
    assert isinstance(result, et.EulerianFactor)
    assert balanced_everywhere(complete(4), result.arcs)
    covered = set().union(*result.components) if result.components else set()
    assert covered == set(range(4))


def test_eulerian_factor_obstruction() -> None:
    result = et.eulerian_factor(three_cycle(), avoid={(0, 1)})
    assert isinstance(result, et.ObstructionPartition)
    assert result.check(three_cycle(), frozenset({(0, 1)})) == []


def test_eulerian_factor_works_on_non_semicomplete_digraphs() -> None:
    two_cycles = et.Digraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    result = et.eulerian_factor(two_cycles)
    assert isinstance(result, et.EulerianFactor)
    assert len(result.components) == 2
    assert frozenset({0, 1, 2}) in result.components


def test_obstruction_partition_check_is_strict() -> None:
    d = three_cycle()
    bogus = et.ObstructionPartition(frozenset({0}), frozenset({1}), frozenset({2}))
    assert bogus.check(d) != []
    partial = et.ObstructionPartition(frozenset({0}), frozenset(), frozenset({2}))
    assert "partition" in partial.check(d)[0]


@pytest.mark.parametrize(
    "pick, avoid, defect",
    [
        ([(0, 1), (1, 2), (2, 0), (2, 3)], set(), "unbalanced"),
        ([(0, 1), (1, 2), (2, 3), (3, 0)], {(0, 1)}, "avoided arc"),
        ([(0, 1), (1, 0), (2, 3), (3, 2)], set(), "not in the digraph"),
    ],
)
def test_eulerian_factor_checks_its_factor(monkeypatch, pick, avoid, defect) -> None:
    d = complete(4).remove_arcs({(3, 2)})
    monkeypatch.setattr(factor, "_circulate", lambda offered, lo, hi: (_rows_of(pick, 4), 0, 0))
    with pytest.raises(et.ConstructionError, match=defect):
        et.eulerian_factor(d, avoid)


def test_eulerian_factor_check_compares_the_components() -> None:
    d = complete(4)
    arcs = frozenset({(0, 1), (1, 0), (2, 3), (3, 2)})
    halves = (frozenset({0, 1}), frozenset({2, 3}))
    assert et.EulerianFactor(arcs, halves).check(d) == []
    assert et.EulerianFactor(arcs, (frozenset(range(4)),)).check(d) == [
        "components are not the weak components of the arcs"
    ]
    assert et.EulerianFactor(arcs, halves).check(d, frozenset({(1, 0)})) == ["uses an avoided arc"]


@settings(max_examples=120)
@given(
    n=st.integers(min_value=3, max_value=6),
    prob=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(0, 10**6),
    picks=st.integers(min_value=0, max_value=4),
)
def test_eulerian_factor_matches_oracle(
    n: int, prob: float, seed: int, picks: int
) -> None:
    d = et.gen_random_semicomplete(n, prob, seed)
    rng = random.Random(seed)
    arcs = list(d.arcs())
    avoid = frozenset(rng.sample(arcs, min(picks, len(arcs))))
    result = et.eulerian_factor(d, avoid)
    if isinstance(result, et.EulerianFactor):
        assert oracle_eulerian_factor(d, avoid)
        assert balanced_everywhere(d, result.arcs)
        assert not (set(result.arcs) & avoid)
    else:
        assert not oracle_eulerian_factor(d, avoid)
        assert result.check(d, avoid) == []
        # the three defining conditions, spelled out
        allowed = [a for a in d.arcs() if a not in avoid]
        assert not any(u in result.y and v in result.y for u, v in allowed)
        assert not any(u in result.r2 and v in result.y for u, v in allowed)
        assert not any(u in result.y and v in result.r1 for u, v in allowed)
        crossing = sum(1 for u, v in allowed if u in result.r2 and v in result.r1)
        assert crossing < len(result.y)


def test_factor_exists_guarantee() -> None:
    assert et.factor_exists_guarantee(complete(5), 3)
    assert et.factor_exists_guarantee(t4(), 0)
    assert not et.factor_exists_guarantee(t4(), 1)


def _tight_regime(rng: random.Random, n: int, k: int):
    """A semicomplete digraph of arc-connectivity exactly k+1 in which one
    vertex v keeps only k+1 out-arcs, and k forbidden arcs at v: some of
    those out-arcs, the rest into v."""
    while True:
        d = et.gen_random_semicomplete(n, rng.uniform(0.2, 0.8), rng.randrange(1 << 30))
        v = rng.randrange(n)
        outs = list(d.out_neighbors(v))
        if len(outs) <= k:
            continue
        keep = rng.sample(outs, k + 1)
        arcs = {(a, b) for a, b in d.arcs() if a != v or b in keep}
        arcs |= {(w, v) for w in range(n) if w != v and w not in keep}
        d = et.Digraph(n, arcs)
        if et.arc_connectivity(d) != k + 1:
            continue
        j = rng.randint(0, k)
        tails = rng.sample(sorted(d.in_neighbors(v)), k - j)
        return d, frozenset((v, w) for w in keep[:j]) | {(w, v) for w in tails}


def test_guaranteed_avoidance_regimes_certify_beyond_the_gate_sizes() -> None:
    """Arc-connectivity k+1 beats any k forbidden arcs, k <= 3, also at
    n = 20, 40 and 60 with the forbidden arcs at a vertex of out-degree
    k+1; no answer needs a merge retry or the exhaustive search."""
    rng = random.Random("tight-regimes")
    tags: Counter = Counter()
    for n in (20, 40, 60):
        for k in (1, 2, 3):
            for _ in range(50):
                d, forbidden = _tight_regime(rng, n, k)
                assert len(forbidden) == k
                trace: list[str] = []
                res = et.spanning_eulerian_avoiding(d, forbidden, trace=trace)
                assert isinstance(res, et.EulerianSubdigraph), (n, k, res, trace)
                assert res.check(d, forbidden) == []
                assert not {"merge-retry", "exhaustive"} & set(trace), trace
                tags.update(trace)
    assert tags["multipartite-direct"] and tags["factor-merge"], tags


def test_is_star_set() -> None:
    assert et.is_star_set(frozenset())
    assert et.is_star_set({(0, 1)})
    assert et.is_star_set({(0, 1), (0, 2)})
    assert et.is_star_set({(0, 1), (2, 1)})
    assert et.is_star_set({(0, 1), (2, 3)})
    assert et.is_star_set({(0, 1), (1, 2)})  # both arcs touch vertex 1
    assert not et.is_star_set({(0, 1), (1, 2), (2, 3)})
    assert not et.is_star_set({(0, 1), (2, 3), (1, 2)})
    with pytest.raises(et.PreconditionError, match=r"arc \(0, -1\) has a negative end"):
        et.is_star_set([(0, -1)])


def test_merge_all_joins_components() -> None:
    d = complete(6)
    factor = {(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)}
    merged = et.merge_all(d, factor)
    assert merged is not None
    assert et.EulerianSubdigraph(merged).check(d) == []


def test_merge_all_respects_protected_arcs() -> None:
    d = complete(6)
    keep = frozenset({(0, 1), (1, 2), (2, 0)})
    factor = keep | {(3, 4), (4, 5), (5, 3)}
    merged = et.merge_all(d, factor, protected=keep)
    assert merged is not None and keep <= merged


def test_merge_all_respects_avoid() -> None:
    d = complete(6)
    factor = {(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)}
    avoid = frozenset({(0, 3), (3, 0)})
    merged = et.merge_all(d, factor, avoid=avoid)
    assert merged is not None
    assert not (merged & avoid)


def test_merge_all_refuses_unbalanced_factor_arcs() -> None:
    # the merge keeps each component closed, which unbalanced arcs are not
    d = complete(4)
    for arcs in ({(0, 1)}, {(0, 1), (1, 2), (2, 0), (2, 3)}, {(0, 1), (1, 0), (0, 2)}):
        with pytest.raises(et.PreconditionError, match="balanced"):
            et.merge_all(d, arcs)
    merged = et.merge_all(d, {(0, 1), (1, 0), (2, 3), (3, 2)})
    assert merged is not None and et.EulerianSubdigraph(merged).check(d) == []


def test_merge_all_refuses_avoided_arcs_outside_the_digraph() -> None:
    factor = {(0, 1), (1, 2), (2, 0)}
    for avoid in ({(1, 0)}, {(0, 3)}, {(-1, 0)}):
        with pytest.raises(et.PreconditionError):
            et.merge_all(three_cycle(), factor, avoid)
        with pytest.raises(et.PreconditionError):
            et.eulerian_factor(three_cycle(), avoid)


def test_merge_all_vets_its_factor_arcs() -> None:
    # an avoided factor arc would come back in the merged set
    with pytest.raises(et.PreconditionError, match=r"factor arc \(0, 1\) is avoided"):
        et.merge_all(complete(4), {(0, 1), (1, 0), (2, 3), (3, 2)}, avoid={(0, 1)})
    # (0,2) and (1,0) are not arcs of the 3-cycle; 7 and -1 are no vertices
    for arcs in ({(0, 2), (2, 0), (1, 0), (0, 1)}, {(0, 7), (7, 0)}, {(0, -1), (-1, 0)}):
        with pytest.raises(et.PreconditionError, match="factor arc .* is not in the digraph"):
            et.merge_all(three_cycle(), arcs)


def _cross_succ(d, avoid, current, comp_of):
    """Successor lists of the cross arcs, rebuilt from every arc: the arcs
    of d, not avoided, whose ends lie in distinct components."""
    succ: dict = {}
    for u, v in d.arcs():
        if (u, v) not in avoid and (u, v) not in current and comp_of[u] != comp_of[v]:
            succ.setdefault(u, []).append(v)
    return succ


def _reference_cross_cycle(d, avoid, current, comp_of):
    """The cross-cycle search as it was before it moved onto bitmask rows:
    successor lists rebuilt from every arc, then the callable shortest-walk
    search from each vertex in turn."""
    succ = _cross_succ(d, avoid, current, comp_of)
    for s in range(d.n):
        if s in succ:
            cycle = reference_shortest_walk(lambda v: succ.get(v, ()), [s], {s})
            if cycle is not None:
                return list(zip(cycle, cycle[1:]))
    return None


def _recount(n, current):
    """The weak components of the current arcs as masks, in order of
    smallest member, and each vertex's component index."""
    comps = weak_components(n, current)
    comp_of = [next(i for i, c in enumerate(comps) if v in c) for v in range(n)]
    return [_mask_of(c) for c in comps], comp_of


def _factor_picks(n, arcs):
    """``_circulate`` as ``_factor`` calls it, on the arcs of a digraph on
    n vertices: the picked arcs, sorted, or None, and the two cut masks."""
    picked, entry, exit_ = _circulate(_rows_of(arcs, n), [1] * n, [n] * n)
    return (None if picked is None else sorted(_row_arcs(picked))), entry, exit_


def _merge_states(d, avoid, arcs, protected=frozenset()):
    """(current arcs, component masks, component index of each vertex,
    next move) before every move that merge_all makes from the given
    factor arcs, and after the last one with no move.  Everything is
    recomputed from the current arcs before each move: the cycle move
    comes from the callable shortest-walk search, and ``_next_move`` is asked
    only when that finds none."""
    rest = d.remove_arcs(avoid)
    current = set(arcs)
    for _ in range(d.n + 2):
        comps, comp_of = _recount(d.n, current)
        if len(comps) <= 1:
            yield current, comps, comp_of, None
            return
        cycle = _reference_cross_cycle(d, avoid, current, comp_of)
        if cycle is not None:
            move = MergeOption("cycle", frozenset(cycle), frozenset())
        else:
            move = _next_move(rest, current, comps, comp_of, protected)
        yield current, comps, comp_of, move
        if move is None:
            return
        current = (current - move.remove_arcs) | move.add_arcs


def _merge_inputs():
    """Seeded digraphs with 4 <= n <= 30 and a non-empty avoided set:
    semicomplete ones, backward chains and sparse ones."""
    rng = random.Random(20190528)
    for i in range(90):
        n = rng.randint(4, 30)
        kind = i % 3
        if kind == 0:
            d = et.gen_random_semicomplete(n, rng.random(), rng.randrange(1 << 30))
        elif kind == 1:
            d = backward_chain(n, rng)
        else:
            p = rng.uniform(0.2, 0.7)
            d = et.Digraph(n, [(u, v) for u in range(n) for v in range(n)
                               if u != v and rng.random() < p])
        arcs = list(d.arcs())
        if not arcs:
            continue
        k = rng.choice((1, 2, 3, len(arcs) // 4 or 1))
        yield d, frozenset(rng.sample(arcs, min(k, len(arcs)))), rng


def _spy_on_moves(monkeypatch, check):
    """Make ``_merge`` hand ``check`` its carried state before every move:
    the digraph, the current arcs, the component masks, the cross rows
    and cols, the live mask given and the live mask handed back."""
    real = factor._find_move

    def spy(d, current, comp_mask, rows, cols, live, protected):
        move, found = real(d, current, comp_mask, rows, cols, live, protected)
        check(d, current, comp_mask, rows, cols, live, found)
        return move, found

    monkeypatch.setattr(factor, "_find_move", spy)


def test_cross_cycle_matches_the_shortest_walk_search(monkeypatch) -> None:
    outcomes = Counter()

    def check(d, current, comp_mask, rows, cols, live, _):
        # the search on the carried rows and live mask, not on fresh ones
        got, _ = _cross_cycle(rows, cols, live)
        _, comp_of = _recount(d.n, current)
        assert got == _reference_cross_cycle(d, frozenset(), current, comp_of)
        outcomes[got is not None] += 1

    _spy_on_moves(monkeypatch, check)
    for d, avoid, rng in _merge_inputs():
        rest = d.remove_arcs(avoid)
        label = list(range(d.n))
        for _ in range(3):  # the factor on the input labels, then two relabellings
            picked, _, _ = _factor_picks(d.n, [(label[u], label[v]) for u, v in rest.arcs()])
            if picked is None:
                break
            back = {new: old for old, new in enumerate(label)}
            _merge(rest, [(back[u], back[v]) for u, v in picked], frozenset())
            rng.shuffle(label)
    # both outcomes occur among the states with several components
    assert outcomes[True] > 50 and outcomes[False] > 20, outcomes


def test_merge_carries_the_recounted_rows_and_a_sound_live_mask(monkeypatch) -> None:
    moves = dropped = 0

    def check(d, current, comp_mask, rows, cols, live, found):
        nonlocal moves, dropped
        comps, comp_of = _recount(d.n, current)
        own = [comps[comp_of[v]] for v in range(d.n)]
        assert comp_mask == own
        assert rows == [d.out_mask(v) & ~own[v] for v in range(d.n)]
        assert cols == [d.in_mask(v) & ~own[v] for v in range(d.n)]
        assert found & ~live == 0  # the live mask only shrinks
        succ = _cross_succ(d, frozenset(), current, comp_of)
        for v in range(d.n):
            if not found >> v & 1:
                assert reference_shortest_walk(lambda u: succ.get(u, ()), [v], {v}) is None
        moves += 1
        dropped += d.n - found.bit_count()

    _spy_on_moves(monkeypatch, check)
    rng = random.Random(2)
    for d, avoid, _ in _merge_inputs():
        rest = d.remove_arcs(avoid)
        picked, _, _ = _factor_picks(d.n, rest.arcs())
        if picked is not None:
            for share in (0, len(picked) // 2, len(picked)):
                _merge(rest, picked, frozenset(rng.sample(picked, share)))
    # the live masks handed back leave out some 200 vertices or more in all
    assert moves > 500 and dropped > 200, (moves, dropped)


def test_every_merge_move_joins_exactly_the_components_it_touches() -> None:
    # without the recount, a move must merge what it touches: two
    # components for insert, swap and reroute, every one on a cycle's
    moves = dict.fromkeys(("cycle", "insert", "swap", "reroute"), 0)
    # the seeded inputs never need a swap or a reroute; in the first two
    # factors nothing else applies, and in the third only a reroute that
    # bypasses the single visit of 1 would, which must not be made
    swap_only = (4, {(0, 1), (1, 0), (2, 3), (3, 2)}, [(0, 3), (2, 1)])
    reroute_only = (5, {(0, 1), (1, 0), (0, 2), (2, 0), (3, 4), (4, 3)}, [(2, 3), (3, 1)])
    single_visit = (6, {(0, 1), (1, 2), (2, 0), (0, 3), (3, 0), (4, 5), (5, 4)}, [(0, 4), (4, 2)])
    rng = random.Random(0)
    states = [(et.Digraph(n, factor | set(extra)), frozenset(), sorted(factor))
              for n, factor, extra in (swap_only, reroute_only, single_visit)]
    for d, avoid, _ in _merge_inputs():
        allowed = [a for a in d.arcs() if a not in avoid]
        picked, _, _ = _factor_picks(d.n, allowed)
        if picked is not None:
            states.append((d, avoid, picked))
    for d, avoid, picked in states:
        for protected in (frozenset(), frozenset(rng.sample(picked, len(picked) // 2))):
            for current, comps, comp_of, move in _merge_states(d, avoid, picked, protected):
                if move is None:
                    continue
                assert not move.remove_arcs & protected
                touched = {comp_of[u] for u, _ in move.add_arcs}
                assert len(touched) == 2 or move.rule == "cycle"
                after = weak_components(d.n, (current - move.remove_arcs) | move.add_arcs)
                assert len(after) == len(comps) - len(touched) + 1
                moves[move.rule] += 1
    assert all(moves.values()), moves


def _reference_merge(d, arcs, protected):
    """The merge with nothing carried between moves: the last state of
    ``_merge_states``."""
    *_, (current, comps, _, _) = _merge_states(d, frozenset(), arcs, protected)
    return frozenset(current) if len(comps) <= 1 else None


def test_merge_matches_the_recomputing_merge() -> None:
    rng = random.Random(1)
    merged = stuck = 0
    for d, avoid, _ in _merge_inputs():
        rest = d.remove_arcs(avoid)
        picked, _, _ = _factor_picks(d.n, rest.arcs())
        if picked is None:
            continue
        # protecting every arc leaves only the cycle moves, which get stuck
        for share in (0, len(picked) // 2, len(picked)):
            protected = frozenset(rng.sample(picked, share))
            got = _merge(rest, picked, protected)
            assert got == _reference_merge(rest, picked, protected)
            merged += got is not None
            stuck += got is None
    assert merged > 50 and stuck > 5


def test_merge_matches_the_recomputing_merge_on_chain_completions(monkeypatch) -> None:
    """Every merge of the per-arc completions on the arc-connectivity 1
    digraphs of one classify-all benchmark pass."""
    from eulertrail import classify

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
    from perfbench.run import seeded_inputs

    calls = []

    def checked(d, arcs, protected):
        got = _merge(d, arcs, protected)
        assert got == _reference_merge(d, arcs, protected)
        calls.append(got is not None)
        return got

    monkeypatch.setattr(classify, "_merge", checked)
    with seeded_inputs("classify-all", 1) as (_, instances, _):
        for inst in instances:
            d = et.Digraph(inst.n, inst.arcs)
            if et.arc_connectivity(d) == 1:
                try:
                    et.classify_all(d)
                except et.ConstructionError:
                    pass
    assert len(calls) > 500 and all(calls)


def _reference_refine_obstruction(d, avoid, entry, exit_):
    """The obstruction refinement as it was before it moved onto bitmask
    rows: set-based parts tested arc by arc against d and the avoided
    arcs, each shrinking loop restarted after every move."""
    y_side, r2, r1 = set(), set(), set()
    for v in range(d.n):
        if v in exit_ and v not in entry:
            y_side.add(v)
        elif v not in exit_ and v not in entry:
            r1.add(v)
        else:
            r2.add(v)

    def allowed(u, v):
        return d.has_arc(u, v) and (u, v) not in avoid

    moved = True
    while moved:
        moved = False
        for y in sorted(y_side):
            if any(allowed(u, y) for u in r2) or any(
                allowed(u, y) for u in y_side if u != y
            ):
                y_side.discard(y)
                r2.add(y)
                moved = True
                break
    moved = True
    while moved:
        moved = False
        for y in sorted(y_side):
            if any(allowed(y, w) for w in r1):
                y_side.discard(y)
                r1.add(y)
                moved = True
                break
    return et.ObstructionPartition(frozenset(r1), frozenset(r2), frozenset(y_side))


def test_obstruction_refinement_matches_the_set_based_refinement() -> None:
    rng = random.Random(20190529)
    pool = [d for d in enumerate_all_semicomplete(4) if et.is_strong(d)]
    pool += [d for d in enumerate_all_tournaments(5) if et.is_strong(d)]
    cases = []
    for d in pool:
        arcs = list(d.arcs())
        cases.append((d, frozenset(rng.sample(arcs, rng.randint(1, len(arcs) // 2)))))
    cases += [(d, avoid) for d, avoid, _ in _merge_inputs()]
    seen = moved = 0
    for d, avoid in cases:
        rest = d.remove_arcs(avoid)
        picked, entry, exit_ = _factor_picks(d.n, rest.arcs())
        if picked is not None:
            continue
        sides = frozenset(_mask_bits(entry)), frozenset(_mask_bits(exit_))
        # the cut gives the middle part no arc inside it and none into r1,
        # so only arcs from r2 move vertices
        y, r1 = sides[1] - sides[0], set(range(d.n)) - sides[0] - sides[1]
        assert not any(rest.has_arc(u, v) for u in y for v in y | r1)
        expect = _reference_refine_obstruction(d, avoid, *sides)
        assert _refine_obstruction(rest, entry, exit_) == expect
        assert et.eulerian_factor(d, avoid) == expect
        seen += 1
        moved += expect.y != y
    # many inputs have no factor, and on some the refinement moves vertices
    assert seen > 600 and moved > 80, (seen, moved)


def test_is_semicomplete_multipartite() -> None:
    assert is_semicomplete_multipartite(complete(4))
    pair = complete(4).remove_arcs([(0, 1), (1, 0)])
    assert is_semicomplete_multipartite(pair)
    broken = complete(4).remove_arcs([(0, 1), (1, 0), (1, 2), (2, 1)])
    assert not is_semicomplete_multipartite(broken)


def test_spanning_eulerian_avoiding_certificate() -> None:
    d = complete(4)
    result = et.spanning_eulerian_avoiding(d, frozenset({(0, 1)}))
    assert isinstance(result, et.EulerianSubdigraph)
    assert (0, 1) not in result.arcs
    assert result.check(d) == []


def test_spanning_eulerian_avoiding_cut_obstruction() -> None:
    result = et.spanning_eulerian_avoiding(three_cycle(), frozenset({(0, 1)}))
    assert isinstance(result, et.NonStrongCut)
    cert = result.certificate
    assert cert.side_s | cert.side_t == {0, 1, 2}
    # inside the allowed arcs nothing crosses the cut
    assert all(a == (0, 1) for a in cert.crossing_arcs) or not cert.crossing_arcs


def test_non_strong_cut_check_refuses_a_cut_an_allowed_arc_crosses() -> None:
    d = three_cycle()
    # the sides partition the vertices and the crossing arcs match d, but
    # (1, 2) is allowed, so the allowed arcs may still be strong
    crossed = et.CutCertificate(frozenset({1}), frozenset({0, 2}), frozenset({(1, 2)}))
    assert crossed.check(d) == []
    assert et.NonStrongCut(crossed).check(d) == ["an allowed arc crosses the cut"]
    cut = et.CutCertificate(frozenset({1}), frozenset({0, 2}), frozenset())
    assert et.NonStrongCut(cut).check(d, frozenset({(1, 2)})) == []
    assert et.NonStrongCut(cut).check(d) == ["crossing arcs do not match the digraph"]
    result = et.spanning_eulerian_avoiding(d, frozenset({(0, 1)}))
    assert result.check(d, frozenset({(0, 1)})) == []


def test_spanning_eulerian_avoiding_checks_what_it_returns(monkeypatch) -> None:
    d = complete(4)
    everything = et.EulerianSubdigraph(frozenset(d.arcs()))  # uses (0, 1)
    monkeypatch.setattr(factor, "_factor_then_merge", lambda rest, trace: everything)
    with pytest.raises(et.ConstructionError, match="avoided arc"):
        et.spanning_eulerian_avoiding(d, frozenset({(0, 1)}))
    assert et.spanning_eulerian_avoiding(d) == everything


def test_spanning_eulerian_avoiding_partition_obstruction() -> None:
    d = et.gen_exceptional(False)
    result = et.spanning_eulerian_avoiding(d, frozenset({(0, 3)}))
    assert isinstance(result, et.ObstructionPartition)
    assert result.check(d, frozenset({(0, 3)})) == []
    assert result.r1 == frozenset({2})
    assert result.r2 == frozenset({1})
    assert result.y == frozenset({0, 3})


def test_spanning_eulerian_avoiding_rejects_foreign_arcs() -> None:
    with pytest.raises(et.PreconditionError):
        et.spanning_eulerian_avoiding(three_cycle(), frozenset({(1, 0)}))


def test_the_smallest_digraphs_agree_with_the_oracle() -> None:
    for n in (0, 1):
        d = et.Digraph(n)
        result = et.spanning_eulerian_avoiding(d)
        assert result == et.EulerianSubdigraph(frozenset())
        assert enumerate_spanning_eulerian(d) == [result.arcs]
        assert spanning_eulerian_exists(d)
        assert result.check(d) == []


def test_trace_direct_multipartite_route() -> None:
    trace: list[str] = []
    result = et.spanning_eulerian_avoiding(
        complete(5), frozenset({(0, 1), (1, 0)}), trace=trace
    )
    assert isinstance(result, et.EulerianSubdigraph)
    assert "multipartite-direct" in trace


def test_trace_multipartite_reduction_route() -> None:
    forbidden = frozenset({(0, 1), (1, 0), (1, 2), (2, 1)})
    trace: list[str] = []
    result = et.spanning_eulerian_avoiding(complete(9), forbidden, trace=trace)
    assert isinstance(result, et.EulerianSubdigraph)
    assert "multipartite-reduction" in trace
    assert not (result.arcs & forbidden)
    assert result.check(complete(9)) == []


def test_stuck_merge_is_retried_on_a_shuffled_factor() -> None:
    d = et.Digraph(
        5,
        [(0, 1), (0, 3), (1, 3), (2, 0), (2, 1), (2, 4), (3, 0), (3, 1),
         (3, 2), (3, 4), (4, 0), (4, 1), (4, 2)],
    )
    forbidden = frozenset({(2, 0), (4, 0)})
    trace: list[str] = []
    result = et.spanning_eulerian_avoiding(d, forbidden, trace=trace)
    assert isinstance(result, et.EulerianSubdigraph)
    assert result.check(d) == []
    assert not (result.arcs & forbidden)
    assert trace == ["factor-merge", "merge-retry"]


def _from_rows(rows: list[list[int]]) -> et.Digraph:
    return et.Digraph(len(rows), [(u, v) for u, row in enumerate(rows) for v in row])


def test_avoidance_past_the_oracle_guard_always_answers() -> None:
    """With no exhaustive search to fall back on (n above
    ``ORACLE_MAX_VERTICES``), the pipeline still answers every instance:
    random digraphs at n = 11-16 with up to a third of their arcs
    forbidden, and the conjecture search's instances for k = 4 and 5.
    Two merges here are stuck on the first factor and only a relabelled
    one finishes: one random instance at n = 14, and the pinned n = 13
    instance, whose small tour 0, 5, 6 joins the big one only after the
    big tour moves a segment."""
    d = _from_rows(
        [[5, 7, 11, 12], [0, 11, 12], [0, 1, 3, 4, 5, 12],
         [0, 1, 5, 6, 7, 8, 9, 10, 11, 12], [0, 1, 3, 5, 10, 11],
         [1, 4, 6, 8, 9, 10, 11], [0, 1, 2, 4, 7, 11], [1, 2, 4, 5, 8, 9, 12],
         [0, 1, 2, 4, 6], [0, 1, 2, 4, 5, 6, 8, 12], [0, 1, 2, 6, 7, 8, 9, 12],
         [2, 7, 8, 9, 10, 12], [0, 4, 5, 6, 8]]
    )
    forbidden = frozenset(
        _from_rows(
            [[7, 11, 12], [0], [4, 5], [0, 6, 7, 8, 10, 11], [3, 5], [1, 8, 9, 10],
             [1, 2, 4, 7, 11], [9, 12], [0, 6], [0, 6, 8], [0, 1, 6], [8, 10, 12],
             [4, 5, 6]]
        ).arcs()
    )
    trace: list[str] = []
    got = et.spanning_eulerian_avoiding(d, forbidden, trace=trace)
    assert isinstance(got, et.EulerianSubdigraph)
    assert got.check(d, forbidden) == []
    assert trace == ["factor-merge", "merge-retry"]

    rng = random.Random("past-the-guard")
    kinds: Counter = Counter()
    for _ in range(2000):
        n = rng.randint(11, 16)
        d = et.gen_random_semicomplete(n, rng.random(), rng.randrange(1 << 30))
        arcs = sorted(d.arcs())
        forbidden = frozenset(rng.sample(arcs, rng.randint(1, len(arcs) // 3)))
        trace = []
        got = et.spanning_eulerian_avoiding(d, forbidden, trace=trace)
        assert got is not None, (n, sorted(d.arcs()), sorted(forbidden))
        kinds[type(got).__name__] += 1
        kinds.update(trace)
    for k in (4, 5):
        for _ in range(100):
            inst = _gen_hard_instance(rng, k, 22)
            if inst is None or inst[0].n <= ORACLE_MAX_VERTICES:
                continue
            d, forbidden = inst
            got = et.spanning_eulerian_avoiding(d, forbidden)
            assert isinstance(got, et.EulerianSubdigraph), (k, sorted(d.arcs()), sorted(forbidden))
            kinds[k] += 1
    assert kinds["EulerianSubdigraph"] > 1900 and kinds["NonStrongCut"], kinds
    assert kinds["merge-retry"] == 1 and kinds[4] > 50 and kinds[5] > 50, kinds


def test_star_sets_with_high_connectivity_always_succeed() -> None:
    d = complete(7)  # arc-connectivity 6
    star = frozenset({(0, 1), (0, 2), (0, 3), (4, 0), (0, 5)})
    result = et.spanning_eulerian_avoiding(d, star)
    assert isinstance(result, et.EulerianSubdigraph)
    assert not (result.arcs & star)


@settings(max_examples=60)
@given(n=st.integers(min_value=4, max_value=7), seed=st.integers(0, 10**6))
def test_single_avoided_arc_with_lambda_two(n: int, seed: int) -> None:
    d = random_strong_semicomplete(n, seed)
    if et.arc_connectivity(d) < 2:
        return
    for arc in d.arcs():
        result = et.spanning_eulerian_avoiding(d, frozenset({arc}))
        assert isinstance(result, et.EulerianSubdigraph)
        assert arc not in result.arcs


@settings(max_examples=80)
@given(
    n=st.integers(min_value=3, max_value=6),
    prob=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(0, 10**6),
    picks=st.integers(min_value=0, max_value=3),
)
def test_avoiding_pipeline_agrees_with_oracle(
    n: int, prob: float, seed: int, picks: int
) -> None:
    d = et.gen_random_semicomplete(n, prob, seed)
    if not et.is_strong(d):
        return
    rng = random.Random(seed + 1)
    arcs = list(d.arcs())
    avoid = frozenset(rng.sample(arcs, min(picks, len(arcs))))
    result = et.spanning_eulerian_avoiding(d, avoid)
    exists = spanning_eulerian_exists(d, must_avoid=avoid)
    if isinstance(result, et.EulerianSubdigraph):
        assert exists
        assert not (result.arcs & avoid)
        assert result.check(d) == []
    elif result is None:
        assert not exists  # inconclusive never hides an existing certificate
    else:
        assert not exists
