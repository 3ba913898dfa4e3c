"""The benchmark's checker accepts sound answers and rejects broken ones."""

from perfbench import checker
from perfbench import graphs as g

# 0 -> 1 -> 2 -> 0 plus the chords 0 -> 2 and 2 -> 1
TRIANGLE = [(0, 1), (1, 2), (2, 0), (0, 2), (2, 1)]
N = 3
OUT = g.out_rows(N, TRIANGLE)


def test_closed_subdigraph_accepts_the_cycle():
    assert checker.closed_subdigraph(N, OUT, [(0, 1), (1, 2), (2, 0)]) == []


def test_closed_subdigraph_rejects_a_dropped_arc():
    assert checker.closed_subdigraph(N, OUT, [(0, 1), (1, 2)])


def test_closed_subdigraph_rejects_a_forbidden_arc():
    cycle = [(0, 1), (1, 2), (2, 0)]
    assert checker.closed_subdigraph(N, OUT, cycle, forbidden={(1, 2)})


def test_closed_subdigraph_rejects_an_absent_arc_and_a_split_factor():
    assert checker.closed_subdigraph(N, OUT, [(1, 0), (0, 1), (2, 1), (1, 2)])
    four = g.out_rows(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
    split = [(0, 1), (1, 0), (2, 3), (3, 2)]
    assert checker.closed_subdigraph(4, four, split)
    assert checker.closed_subdigraph(4, four, split, connected=False) == []


def test_open_trail():
    assert checker.open_trail(N, OUT, [0, 1, 2], 0, 2) == []
    assert checker.open_trail(N, OUT, [0, 2], 0, 2)  # misses vertex 1
    assert checker.open_trail(N, OUT, [0, 1, 2, 0, 1, 2], 0, 2)  # repeats (0, 1)
    assert checker.open_trail(N, OUT, [0, 1, 2], 0, 1)  # ends at the wrong vertex
    complete = g.out_rows(4, [(u, v) for u in range(4) for v in range(4) if u != v])
    assert checker.open_trail(4, complete, [0, 2, 1, 3], 0, 3) == []
    assert checker.open_trail(4, complete, [0, 2, 1, 0, 3, 1], 0, 1)  # uses (1, 0)


def _chain_cut():
    # 0 -> 1 -> 2 and 0 -> 2, with the single arc 2 -> 0 back
    arcs = [(0, 1), (1, 2), (0, 2), (2, 0)]
    return g.out_rows(3, arcs)


def test_cut_accepts_the_exact_crossing_arcs():
    out = _chain_cut()
    assert checker.cut(3, out, {2}, {0, 1}, [(2, 0)], 2, x=2, y=0) == []


def test_cut_rejects_a_missing_crossing_arc():
    out = _chain_cut()
    assert checker.cut(3, out, {0}, {1, 2}, [(0, 1)], 3, x=0, y=2)


def test_cut_rejects_too_many_arcs_and_wrong_sides():
    out = _chain_cut()
    assert checker.cut(3, out, {0}, {1, 2}, [(0, 1), (0, 2)], 2, x=0, y=2)
    assert checker.cut(3, out, {2}, {0, 1}, [(2, 0)], 2, x=0, y=2)
    assert checker.cut(3, out, {2}, {0}, [(2, 0)], 2)


def test_cut_ignores_forbidden_arcs():
    out = _chain_cut()
    assert checker.cut(3, out, {2}, {0, 1}, [], 1, forbidden={(2, 0)}) == []


def _partition_digraph():
    # y = {2}: in-arc from r1 = {0}, out-arc to r2 = {1}, r2 -> r1 arcs given
    return [(0, 2), (2, 1), (1, 0), (0, 1)]


def test_partition_accepts_a_true_obstruction():
    arcs = _partition_digraph()
    out = g.out_rows(3, arcs)
    # with (1, 0) forbidden nothing runs from r2 back to r1
    assert checker.partition(3, out, {0}, {1}, {2}, forbidden={(1, 0)}) == []


def test_partition_rejects_too_many_r2_to_r1_arcs():
    out = g.out_rows(3, _partition_digraph())
    assert checker.partition(3, out, {0}, {1}, {2})


def test_partition_rejects_arcs_into_and_out_of_the_middle():
    out = g.out_rows(3, [(0, 2), (2, 1), (1, 2), (2, 0)])
    bad = checker.partition(3, out, {0}, {1}, {2})
    assert any("r2 into" in b for b in bad)
    assert any("into r1" in b for b in bad)
