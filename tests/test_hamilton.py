import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eulertrail as et
from eulertrail.connectivity import _components, _strong
from eulertrail.digraph import _mask_bits, _mask_of
from eulertrail.hamilton import _cycle, _path_between, _shortest_cycle_seed
from instances import (
    backward_chain,
    complete,
    figure_chain,
    random_strong_semicomplete,
    t4,
    three_cycle,
    transitive,
)


def check_path(d: et.Digraph, path: list[int]) -> None:
    assert sorted(path) == list(d.vertices())
    for u, v in zip(path, path[1:]):
        assert d.has_arc(u, v)


def check_cycle(d: et.Digraph, cycle: list[int]) -> None:
    assert sorted(cycle) == list(d.vertices())
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        assert d.has_arc(u, v)


def test_hamiltonian_path_transitive_is_unique() -> None:
    assert et.hamiltonian_path(transitive(5)) == [0, 1, 2, 3, 4]
    assert et.hamiltonian_path(et.Digraph(1)) == [0]


def test_hamiltonian_path_rejects_non_semicomplete() -> None:
    with pytest.raises(et.PreconditionError):
        et.hamiltonian_path(et.Digraph(3, [(0, 1), (1, 2)]))
    with pytest.raises(et.PreconditionError):
        et.hamiltonian_path(et.Digraph(0))


@given(
    n=st.integers(min_value=1, max_value=9),
    prob=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(0, 2**30),
)
def test_hamiltonian_path_always_valid(n: int, prob: float, seed: int) -> None:
    d = et.gen_random_semicomplete(n, prob, seed)
    check_path(d, et.hamiltonian_path(d))


def test_hamiltonian_cycle_t4_is_unique() -> None:
    cycle = et.hamiltonian_cycle(t4())
    check_cycle(t4(), cycle)
    arcs = set(zip(cycle, cycle[1:] + cycle[:1]))
    assert arcs == {(0, 1), (1, 2), (2, 3), (3, 0)}


def test_hamiltonian_cycle_rejects_non_strong() -> None:
    with pytest.raises(et.PreconditionError):
        et.hamiltonian_cycle(transitive(4))
    with pytest.raises(et.PreconditionError):
        et.hamiltonian_cycle(et.Digraph(1))


@settings(max_examples=80)
@given(n=st.integers(min_value=2, max_value=9), seed=st.integers(0, 10**6))
def test_hamiltonian_cycle_always_valid(n: int, seed: int) -> None:
    d = random_strong_semicomplete(n, seed)
    check_cycle(d, et.hamiltonian_cycle(d))


def test_path_within_pins_one_endpoint() -> None:
    d = figure_chain()
    assert et.path_within(d, {3, 4}, end=3) == [4, 3]
    assert et.path_within(d, {3, 4}, start=3) == [3, 4]
    path = et.path_within(d, {5, 6, 7}, end=5)
    assert path[-1] == 5 and sorted(path) == [5, 6, 7]
    with pytest.raises(et.PreconditionError):
        et.path_within(d, {3, 4}, start=4, end=3)


def test_path_within_refuses_bad_sets() -> None:
    d = figure_chain()
    with pytest.raises(et.PreconditionError):
        et.path_within(d, {3, 5})  # 3 and 5 sit in different strong sets
    with pytest.raises(et.PreconditionError):
        et.path_within(d, {3, d.n})
    with pytest.raises(et.PreconditionError):
        et.path_within(d, {3, -1})
    with pytest.raises(et.PreconditionError):
        et.path_within(d, {3, 4}, start=5)
    with pytest.raises(et.PreconditionError):
        et.path_within(d, set())


def test_path_between_with_free_end() -> None:
    d = random_strong_semicomplete(6, 17)
    for x in d.vertices():
        path = et.hamiltonian_path_between(d, x)
        assert path[0] == x
        check_path(d, path)


def test_path_between_fixed_terminal() -> None:
    # two 3-cycles with every arc crossing left to right
    arcs = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    arcs += [(u, v) for u in range(3) for v in range(3, 6)]
    d = et.Digraph(6, arcs)
    path = et.hamiltonian_path_between(d, 0, 5)
    assert path[0] == 0 and path[-1] == 5
    check_path(d, path)
    # 3 sits in the last strong component, so no path from it reaches {0,1,2}
    with pytest.raises(et.PreconditionError):
        et.hamiltonian_path_between(d, 3, 0)
    with pytest.raises(et.PreconditionError):
        et.hamiltonian_path_between(complete(4), 0, 3)  # strong, no terminal fix


def test_path_between_refuses_a_terminal_out_of_range() -> None:
    arcs = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    arcs += [(u, v) for u in range(3) for v in range(3, 6)]
    d = et.Digraph(6, arcs)
    for y in (6, 100, -1):
        with pytest.raises(et.PreconditionError, match="y must be a vertex"):
            et.hamiltonian_path_between(d, 0, y)


def test_cycle_covering_complement_names_the_non_adjacent_pair() -> None:
    # 2 and 4 are joined by no arc, and neither lies in V(f) - z
    d = complete(5).remove_arcs([(2, 4), (4, 2), (1, 3), (3, 1)])
    f = et.SubDigraph(frozenset({0, 1}), frozenset({(0, 1)}))
    with pytest.raises(et.PreconditionError) as info:
        et.cycle_covering_complement(d, f, 0)
    assert str(info.value) == (
        "vertices 2 and 4 are non-adjacent outside the avoided subdigraph"
    )


def test_cycle_covering_complement_basic() -> None:
    d = complete(5)
    f = et.SubDigraph(frozenset({0, 1}), frozenset({(0, 1), (1, 0)}))
    cycle = et.cycle_covering_complement(d, f, 0)
    assert 0 in cycle and 1 not in cycle
    assert {2, 3, 4} <= set(cycle)
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        assert d.has_arc(u, v)
        assert (u, v) not in f.arcs


def test_cycle_covering_complement_rejects_foreign_z() -> None:
    d = complete(4)
    f = et.SubDigraph(frozenset({0}), frozenset())
    with pytest.raises(et.PreconditionError):
        et.cycle_covering_complement(d, f, 2)


@settings(max_examples=60)
@given(n=st.integers(min_value=4, max_value=8), seed=st.integers(0, 10**6))
def test_cycle_covering_complement_random_single_arc(n: int, seed: int) -> None:
    d = random_strong_semicomplete(n, seed)
    for arc in d.arcs():
        if not et.is_strong(d.remove_arcs([arc])):
            continue
        f = et.SubDigraph(frozenset(arc), frozenset({arc}))
        cycle = et.cycle_covering_complement(d, f, arc[0])
        assert arc[0] in cycle
        assert set(d.vertices()) - set(arc) <= set(cycle)
        for a in zip(cycle, cycle[1:] + cycle[:1]):
            assert d.has_arc(*a)
            assert a != arc


# ---- the mask routines against the relabelled-copy route ----


def _semicomplete_inputs():
    """Seeded semicomplete digraphs with 2 <= n <= 24: random ones and
    backward chains."""
    rng = random.Random(4242)
    for i in range(60):
        n = rng.randint(2, 24)
        if i % 2:
            yield et.gen_random_semicomplete(n, rng.random(), rng.randrange(1 << 30)), rng
        else:
            yield backward_chain(n, rng), rng


def test_mask_routines_match_the_induced_copy() -> None:
    strong_sets = split_sets = 0
    for d, rng in _semicomplete_inputs():
        for _ in range(8):
            vertices = rng.sample(range(d.n), rng.randint(2, d.n))
            within = _mask_of(vertices)
            sub, ids = d.induced(vertices)
            comps = _components(d, within)
            if _strong(d, within):
                strong_sets += 1
                assert _cycle(d, within) == [ids[v] for v in et.hamiltonian_cycle(sub)]
                for x in rng.sample(vertices, min(3, len(vertices))):
                    local = et.hamiltonian_path_between(sub, ids.index(x))
                    assert _path_between(d, within, x) == [ids[v] for v in local]
            else:
                split_sets += 1
                x = rng.choice(list(_mask_bits(comps[0])))
                y = rng.choice(list(_mask_bits(comps[-1])))
                local = et.hamiltonian_path_between(sub, ids.index(x), ids.index(y))
                assert _path_between(d, within, x, y) == [ids[v] for v in local]
                local = et.hamiltonian_path_between(sub, ids.index(x))
                assert _path_between(d, within, x) == [ids[v] for v in local]
    assert strong_sets > 100 and split_sets > 100


# ---- the insertion scan against the has_arc scan it replaced ----


def _reference_cycle(d: et.Digraph, within: int) -> list[int]:
    """``_cycle`` as it was when every cycle position was tried with two
    ``has_arc`` calls for every outside vertex."""
    cycle = _shortest_cycle_seed(d, within)
    on = _mask_of(cycle)
    while on != within:
        for v in _mask_bits(within & ~on):
            k = len(cycle)
            spot = next(
                (i for i in range(k) if d.has_arc(cycle[i], v) and d.has_arc(v, cycle[(i + 1) % k])),
                None,
            )
            if spot is not None:
                cycle.insert(spot + 1, v)
                on |= 1 << v
                break
        else:
            outside = within & ~on
            dominating = _mask_of(v for v in _mask_bits(outside) if not d.in_mask(v) & on)
            w = next(w for w in _mask_bits(outside)
                     if not d.out_mask(w) & on and d.out_mask(w) & dominating)
            heads = d.out_mask(w) & dominating
            z = (heads & -heads).bit_length() - 1
            cycle[1:1] = [w, z]
            on |= 1 << w | 1 << z
    return cycle


def test_cycle_matches_the_has_arc_scan() -> None:
    rng = random.Random(52565)
    whole = masks = 0
    for i in range(160):
        n = rng.randint(2, 25)
        d = random_strong_semicomplete(n, rng.randrange(1 << 30)) if i % 2 else backward_chain(n, rng)
        if et.is_strong(d):  # a short backward chain may not be
            whole += 1
            assert _cycle(d, (1 << n) - 1) == _reference_cycle(d, (1 << n) - 1)
        for _ in range(6):
            within = _mask_of(rng.sample(range(n), rng.randint(2, n)))
            if _strong(d, within):
                masks += 1
                assert _cycle(d, within) == _reference_cycle(d, within)
    assert whole > 120 and masks > 200
