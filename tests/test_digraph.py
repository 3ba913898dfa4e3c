import pytest
from hypothesis import given
from hypothesis import strategies as st

import eulertrail as et
from eulertrail.digraph import MAX_VERTICES
from instances import complete, t4, three_cycle, transitive


def test_rejects_bad_construction() -> None:
    with pytest.raises(et.PreconditionError):
        et.Digraph(-1)
    with pytest.raises(et.PreconditionError):
        et.Digraph(2, [(0, 0)])
    with pytest.raises(et.PreconditionError):
        et.Digraph(2, [(0, 1), (0, 1)])
    with pytest.raises(et.PreconditionError):
        et.Digraph(2, [(0, 2)])


def test_digraph_is_immutable() -> None:
    d = three_cycle()
    with pytest.raises(AttributeError):
        d.n = 5


def test_basic_queries() -> None:
    d = t4()
    assert d.n == 4
    assert d.m == 6
    assert d.has_arc(3, 0)
    assert not d.has_arc(0, 3)
    assert d.out_degree(0) == 2
    assert d.in_degree(3) == 2
    assert sorted(d.out_neighbors(1)) == [2, 3]
    assert sorted(d.in_neighbors(2)) == [0, 1]
    assert list(d.vertices()) == [0, 1, 2, 3]


def test_arcs_iterate_in_lexicographic_order() -> None:
    assert list(t4().arcs()) == [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 0)]


def test_add_remove_roundtrip() -> None:
    d = three_cycle()
    bigger = d.add_arcs([(1, 0)])
    assert bigger.has_arc(1, 0)
    assert bigger.remove_arcs([(1, 0)]) == d
    with pytest.raises(et.PreconditionError):
        d.remove_arcs([(1, 0)])


def test_reverse_is_involutive() -> None:
    d = t4()
    assert d.reverse().reverse() == d
    assert set(d.reverse().arcs()) == {(v, u) for u, v in d.arcs()}


def test_induced_relabels() -> None:
    d = t4()
    sub, ids = d.induced([1, 3])
    assert ids == [1, 3]
    assert list(sub.arcs()) == [(0, 1)]


def test_semicomplete_and_tournament_predicates() -> None:
    assert et.is_tournament(t4())
    assert et.is_semicomplete(t4())
    d3 = et.gen_d3()
    assert et.is_semicomplete(d3)
    assert not et.is_tournament(d3)  # the 2-cycle on {1, 2}
    path = et.Digraph(3, [(0, 1), (1, 2)])
    assert not et.is_semicomplete(path)


def test_gen_d3_shape() -> None:
    d3 = et.gen_d3()
    assert d3.n == 3
    assert set(d3.arcs()) == {(0, 1), (1, 2), (2, 1), (2, 0)}


def test_gen_exceptional_shapes() -> None:
    plain = et.gen_exceptional(False)
    assert set(plain.arcs()) == {(0, 1), (1, 2), (2, 3), (0, 3), (2, 0), (3, 1)}
    extra = et.gen_exceptional(True)
    assert set(extra.arcs()) == set(plain.arcs()) | {(2, 1)}
    assert et.is_semicomplete(plain) and et.is_semicomplete(extra)


def test_gen_blocked_arc_tournament() -> None:
    d, arc = et.gen_blocked_arc_tournament(3, 3, 0, 0)
    assert d.n == 9
    assert arc == (3, 5)
    assert et.is_tournament(d)
    assert et.is_strong(d)
    assert d.has_arc(6, 0) and not d.has_arc(0, 6)  # the one feedback arc
    with pytest.raises(et.PreconditionError):
        et.gen_blocked_arc_tournament(2, 3, 0, 0)


@given(
    n=st.integers(min_value=1, max_value=9),
    prob=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**30),
)
def test_gen_random_semicomplete_is_semicomplete(
    n: int, prob: float, seed: int
) -> None:
    d = et.gen_random_semicomplete(n, prob, seed)
    assert d.n == n
    assert et.is_semicomplete(d)
    assert d == et.gen_random_semicomplete(n, prob, seed)


@given(n=st.integers(min_value=2, max_value=9), seed=st.integers(0, 2**30))
def test_gen_random_semicomplete_probability_extremes(n: int, seed: int) -> None:
    assert et.is_tournament(et.gen_random_semicomplete(n, 0.0, seed))
    assert et.gen_random_semicomplete(n, 1.0, seed) == complete(n)


@given(
    n=st.integers(min_value=0, max_value=9),
    prob=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**30),
)
def test_json_roundtrip(n: int, prob: float, seed: int) -> None:
    d = et.gen_random_semicomplete(n, prob, seed)
    assert et.parse_json(et.serialize_json(d)) == d


def test_parse_json_rejects_malformed_input() -> None:
    for text in [
        "not json",
        "[1, 2]",
        '{"n": 3}',
        '{"n": true, "arcs": []}',
        '{"n": -1, "arcs": []}',
        '{"n": 3, "arcs": [[0, 1], [0, 1]]}',
        '{"n": 3, "arcs": [[0, 0]]}',
        '{"n": 3, "arcs": [[0, 1, 2]]}',
        '{"n": 3, "arcs": [[0, true]]}',
        '{"n": 3, "arcs": [[0, 1.0]]}',
        '{"n": 3, "arcs": [["0", 1]]}',
        '{"n": 2, "arcs": [[0, 5]]}',
        '{"n": 2, "arcs": "01"}',
        f'{{"n": {MAX_VERTICES + 1}, "arcs": []}}',
    ]:
        with pytest.raises(et.ParseError):
            et.parse_json(text)


def test_serialize_is_canonical() -> None:
    a = et.Digraph(3, [(2, 0), (0, 1), (1, 2)])
    b = et.Digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert et.serialize_json(a) == et.serialize_json(b)
    assert et.serialize_json(a) == '{"n": 3, "arcs": [[0, 1], [1, 2], [2, 0]]}'


def test_to_dot_lists_every_arc() -> None:
    text = et.to_dot(transitive(3))
    assert text.startswith("digraph {")
    for line in ["  0 -> 1;", "  0 -> 2;", "  1 -> 2;"]:
        assert line in text
