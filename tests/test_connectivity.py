import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eulertrail as et
from eulertrail.connectivity import flow_paths, shortest_walk
from instances import complete, random_strong_semicomplete, t4, three_cycle, transitive


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


def test_cut_arcs_frozen_values() -> None:
    assert et.cut_arcs(t4()) == frozenset({(0, 1), (2, 3), (3, 0)})
    assert et.cut_arcs(three_cycle()) == frozenset({(0, 1), (1, 2), (2, 0)})
    assert et.cut_arcs(et.gen_d3()) == frozenset({(0, 1), (1, 2), (2, 0)})
    assert et.cut_arcs(complete(4)) == frozenset()


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
    assert shortest_walk(d.out_neighbors, [0], {0}) == [0, 1, 2, 0]
    assert shortest_walk(d.out_neighbors, [0], {0, 3}) == [0, 3]


def test_shortest_walk_searches_sources_in_the_given_order() -> None:
    # 0 and 1 both reach 2 in one step; the first source listed wins
    d = et.Digraph(3, [(0, 2), (1, 2)])
    assert shortest_walk(d.out_neighbors, [0, 1], {2}) == [0, 2]
    assert shortest_walk(d.out_neighbors, [1, 0], {2}) == [1, 2]
    # heads are tried in the order succ gives them
    d = et.Digraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert shortest_walk(d.out_neighbors, [0], {3}) == [0, 1, 3]
    assert shortest_walk(lambda v: reversed(list(d.out_neighbors(v))), [0], {3}) == [0, 2, 3]


def test_shortest_walk_unreachable_target_gives_none() -> None:
    d = transitive(3)
    assert shortest_walk(d.out_neighbors, [2], {0}) is None
    assert shortest_walk(d.out_neighbors, [0], {0}) is None


def test_flow_paths_splices_out_a_revisit() -> None:
    # one unit of flow 0-1-2-1-3 carries the cycle 1-2-1 along
    arcs = {(0, 1), (1, 2), (2, 1), (1, 3), (0, 3)}
    assert flow_paths(arcs, 0, 3, 2) == [[0, 1, 3], [0, 3]]


def test_flow_paths_raises_when_a_walk_misses_y() -> None:
    with pytest.raises(et.ConstructionError):
        flow_paths({(0, 1), (1, 2)}, 0, 3, 1)
    with pytest.raises(et.ConstructionError):
        flow_paths({(0, 1), (1, 3)}, 0, 3, 2)  # only one unit of flow
