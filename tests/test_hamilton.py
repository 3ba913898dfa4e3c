import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eulertrail as et
from eulertrail.connectivity import _components, _strong
from eulertrail.digraph import _mask_bits, _mask_of
from eulertrail.hamilton import (
    _component_path,
    _covering_cycle,
    _cycle,
    _path_between,
    _shortest_cycle_seed,
)
from instances import (
    backward_chain,
    complete,
    figure_chain,
    random_strong_semicomplete,
    t4,
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


def _full(d: et.Digraph) -> int:
    return (1 << d.n) - 1


def test_hamiltonian_path_transitive_is_unique() -> None:
    assert _path_between(transitive(5), _full(transitive(5)), 0) == [0, 1, 2, 3, 4]
    assert _path_between(et.Digraph(1), 1, 0) == [0]


@given(
    n=st.integers(min_value=1, max_value=9),
    prob=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(0, 2**30),
)
def test_hamiltonian_path_always_valid(n: int, prob: float, seed: int) -> None:
    d = et.gen_random_semicomplete(n, prob, seed)
    for x in _mask_bits(_components(d, _full(d))[0]):
        path = _path_between(d, _full(d), x)
        assert path[0] == x
        check_path(d, path)


def test_hamiltonian_cycle_t4_is_unique() -> None:
    cycle = et.hamiltonian_cycle(t4())
    check_cycle(t4(), cycle)
    arcs = set(zip(cycle, cycle[1:] + cycle[:1]))
    assert arcs == {(0, 1), (1, 2), (2, 3), (3, 0)}


def test_hamiltonian_cycle_rejects_non_semicomplete() -> None:
    # a strong digraph, but 0 and 2 are joined by no arc
    d = et.Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3), (3, 1)])
    with pytest.raises(et.PreconditionError, match="semicomplete"):
        et.hamiltonian_cycle(d)
    with pytest.raises(et.PreconditionError, match="semicomplete"):
        et.hamiltonian_cycle(et.Digraph(3, [(0, 1), (1, 2)]))


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
    d = figure_chain()  # {3, 4} and {5, 6, 7} induce strong subdigraphs
    assert _component_path(d, _mask_of({3, 4}), end=3) == [4, 3]
    assert _component_path(d, _mask_of({3, 4}), start=3) == [3, 4]
    assert _component_path(d, _mask_of({6}), start=6) == [6]
    path = _component_path(d, _mask_of({5, 6, 7}), end=5)
    assert path[-1] == 5 and sorted(path) == [5, 6, 7]


def test_path_between_with_free_end() -> None:
    d = random_strong_semicomplete(6, 17)
    for x in d.vertices():
        path = _path_between(d, _full(d), x)
        assert path[0] == x
        check_path(d, path)


def test_path_between_fixed_terminal() -> None:
    # two 3-cycles with every arc crossing left to right
    arcs = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    arcs += [(u, v) for u in range(3) for v in range(3, 6)]
    d = et.Digraph(6, arcs)
    path = _path_between(d, _full(d), 0, 5)
    assert path[0] == 0 and path[-1] == 5
    check_path(d, path)
    # 3 sits in the last strong component, so no path from it reaches
    # {0,1,2}; the trail ladder's sink-side recursion catches this refusal
    with pytest.raises(et.PreconditionError, match="x is not an out-generator"):
        _path_between(d, _full(d), 3, 0)
    with pytest.raises(et.PreconditionError, match="x is not an out-generator"):
        _path_between(d, _full(d), 3)
    with pytest.raises(et.PreconditionError, match="y is not an in-generator"):
        _path_between(d, _full(d), 0, 1)
    with pytest.raises(et.PreconditionError, match="fixed terminal"):
        _path_between(complete(4), 15, 0, 3)  # strong, no terminal fix


def test_cycle_covering_complement_basic() -> None:
    # f is the 2-cycle on {0, 1} and z = 0: the core is every vertex but 1
    d = complete(5)
    f_arcs = {(0, 1), (1, 0)}
    cycle = _covering_cycle(d, d.remove_arcs(f_arcs), _full(d) & ~(1 << 1))
    assert 0 in cycle and 1 not in cycle
    assert {2, 3, 4} <= set(cycle)
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        assert d.has_arc(u, v)
        assert (u, v) not in f_arcs


def test_covering_cycle_of_a_one_vertex_core_is_a_shortest_cycle_through_it() -> None:
    # f spans every vertex, so the core is z = 0 alone; in h, 0 leaves
    # only to 3 and 3 returns only through 1 or 2
    h = complete(4).remove_arcs([(0, 1), (0, 2), (3, 0)])
    assert _covering_cycle(complete(4), h, 1 << 0) == [0, 3, 1]
    with pytest.raises(et.ConstructionError):
        _covering_cycle(transitive(3), transitive(3), 1 << 0)


@settings(max_examples=60)
@given(n=st.integers(min_value=4, max_value=8), seed=st.integers(0, 10**6))
def test_cycle_covering_complement_random_single_arc(n: int, seed: int) -> None:
    d = random_strong_semicomplete(n, seed)
    for arc in d.arcs():
        h = d.remove_arcs([arc])
        if not et.is_strong(h):
            continue
        # f is the arc itself and z its tail: the core is every vertex but its head
        cycle = _covering_cycle(d, h, _full(d) & ~(1 << arc[1]))
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
            full = _full(sub)
            if _strong(d, within):
                strong_sets += 1
                assert _cycle(d, within) == [ids[v] for v in _cycle(sub, full)]
                for x in rng.sample(vertices, min(3, len(vertices))):
                    local = _path_between(sub, full, ids.index(x))
                    assert _path_between(d, within, x) == [ids[v] for v in local]
            else:
                split_sets += 1
                x = rng.choice(list(_mask_bits(comps[0])))
                y = rng.choice(list(_mask_bits(comps[-1])))
                local = _path_between(sub, full, ids.index(x), ids.index(y))
                assert _path_between(d, within, x, y) == [ids[v] for v in local]
                local = _path_between(sub, full, ids.index(x))
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
