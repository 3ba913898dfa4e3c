import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eulertrail as et
from eulertrail.oracle import (
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


def test_size_guard_env_override(monkeypatch: pytest.MonkeyPatch) -> None:
    ring = et.Digraph(26, [(i, (i + 1) % 26) for i in range(26)])
    monkeypatch.setenv("EULERTRAIL_ORACLE_LIMIT", "30")
    assert enumerate_spanning_eulerian(ring) == [frozenset(ring.arcs())]


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
