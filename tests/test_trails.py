from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eulertrail as et
from eulertrail.trails import _accepted_trail, _weak_components, arcs_to_trail, closed_tour
from instances import complete, random_strong_semicomplete, three_cycle


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
                    assert (len(_weak_components(host.n, arcs)) == 1) == joined
                    seen += 1
    assert seen > 3000


def test_eulerian_subdigraph_check_flags_an_avoided_arc() -> None:
    d = complete(3)
    triangle = et.EulerianSubdigraph(frozenset({(0, 1), (1, 2), (2, 0)}))
    assert triangle.check(d, frozenset({(1, 0)})) == []
    assert any("avoided" in i for i in triangle.check(d, frozenset({(1, 2)})))


def test_arcs_to_trail_reconstructs_a_walk() -> None:
    arcs = {(0, 1), (1, 2), (2, 1)}
    trail = arcs_to_trail(arcs, 0, 1)
    assert trail.check(et.gen_d3(), 0, 1) == []
    assert set(trail.arcs()) == arcs


def test_closed_tour_visits_every_arc_once() -> None:
    arcs = {(0, 1), (1, 2), (2, 0), (1, 0), (0, 2), (2, 1)}
    tour = closed_tour(arcs, 1)
    assert tour[0] == 1 and len(tour) == len(arcs)
    walked = list(zip(tour, tour[1:] + tour[:1]))  # the closing arc is implicit
    assert set(walked) == arcs
    with pytest.raises(et.ConstructionError):
        closed_tour({(0, 1), (1, 0), (2, 3), (3, 2)}, 0)  # two separate tours


def test_arcs_to_trail_refuses_an_unbalanced_arc_set() -> None:
    # Hierholzer from 0 would splice these into 0-2-1-3, which steps along
    # (2, 1), an arc the set does not hold
    with pytest.raises(et.ConstructionError):
        arcs_to_trail({(0, 1), (1, 3), (0, 2)}, 0, 3)


def test_ladder_rejects_a_candidate_using_yx() -> None:
    d = complete(3)
    arcs = {(0, 2), (2, 1), (1, 0), (0, 1)}  # the spanning trail 0-2-1-0-1
    assert arcs_to_trail(arcs, 0, 1).check(d, 0, 1) == []
    assert _accepted_trail(d, arcs, 0, 1) is None


def test_ladder_rejects_a_candidate_leaving_a_vertex_three_times() -> None:
    d = complete(4)
    thrice = {(0, 2), (2, 0), (0, 3), (3, 0), (0, 1)}  # 0-2-0-3-0-1
    assert arcs_to_trail(thrice, 0, 1).check(d, 0, 1) == []
    assert _accepted_trail(d, thrice, 0, 1) is None
    y_twice = {(0, 1), (1, 2), (2, 1), (1, 3), (3, 1)}  # 0-1-2-1-3-1
    assert arcs_to_trail(y_twice, 0, 1).check(d, 0, 1) == []
    assert _accepted_trail(d, y_twice, 0, 1) is None
    twice = {(0, 2), (2, 0), (0, 3), (3, 1)}  # 0-2-0-3-1 keeps the promise
    assert _accepted_trail(d, twice, 0, 1) == et.Trail((0, 2, 0, 3, 1))


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


def test_is_eulerian_connected_frozen_cases() -> None:
    assert et.is_eulerian_connected(complete(4)) == (True, None)
    assert et.is_eulerian_connected(three_cycle()) == (False, (0, 1))
    # in the small exceptional digraph only the pair (1, 2) lacks a trail
    assert et.is_eulerian_connected(et.gen_d3()) == (False, (1, 2))
