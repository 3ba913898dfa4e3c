from eulertrail._flow import degree_bounded_subgraph


def through_and_balance(n: int, arcs) -> tuple[list[int], list[int]]:
    """Per vertex: picked arcs passing through it, and out- minus in-degree."""
    outs, ins = [0] * n, [0] * n
    for u, v in arcs:
        outs[u] += 1
        ins[v] += 1
    return [min(o, i) for o, i in zip(outs, ins)], [o - i for o, i in zip(outs, ins)]


# the complete digraph on 4 vertices
K4 = [(u, v) for u in range(4) for v in range(4) if u != v]


def test_feasible_pick_meets_bounds_and_balance() -> None:
    lo, hi = [1, 1, 1, 1], [1, 2, 1, 1]
    picked, entry, exit_ = degree_bounded_subgraph(4, K4, lo, hi)
    assert picked is not None and entry == exit_ == frozenset()
    assert len(set(picked)) == len(picked) and set(picked) <= set(K4)
    through, balance = through_and_balance(4, picked)
    assert all(a <= t <= b for a, t, b in zip(lo, through, hi))
    assert balance == [0, 0, 0, 0]


def test_picked_arcs_keep_the_input_order() -> None:
    arcs = [(2, 0), (1, 2), (0, 1)]
    picked, _, _ = degree_bounded_subgraph(3, arcs, [1, 1, 1], [1, 1, 1])
    assert picked == arcs


def test_surplus_sets_out_minus_in() -> None:
    # a path 0 -> ... -> 3 through both middle vertices
    surplus = [1, 0, 0, -1]
    lo, hi = [0, 1, 1, 0], [0, 1, 1, 0]
    picked, _, _ = degree_bounded_subgraph(4, K4, lo, hi, surplus)
    assert picked is not None
    through, balance = through_and_balance(4, picked)
    assert balance == surplus
    assert through == [0, 1, 1, 0]
    assert len(picked) == 3


def test_infeasible_pick_reports_the_cut_sides() -> None:
    # vertex 2 has no out-arc, so it cannot carry traffic
    arcs = [(0, 1), (1, 0), (1, 2)]
    picked, entry, exit_ = degree_bounded_subgraph(3, arcs, [1, 1, 1], [2, 2, 2])
    assert picked is None
    # the traffic vertex 2 must carry is stranded on its exit side
    assert entry == frozenset() and exit_ == frozenset({2})


def test_lower_bound_above_upper_bound_is_infeasible() -> None:
    picked, _, _ = degree_bounded_subgraph(4, K4, [1, 2, 1, 1], [1, 1, 1, 1])
    assert picked is None
