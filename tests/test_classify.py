import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eulertrail as et
from eulertrail import classify
from eulertrail.oracle import (
    all_spanning_eulerian,
    enumerate_all_semicomplete,
    enumerate_all_tournaments,
)
from instances import (
    complete,
    compulsory_chain,
    figure_chain,
    random_strong_semicomplete,
    strong_backward_chain,
    t4,
    three_cycle,
)


def assert_witness(d: et.Digraph, cont: et.ArcContainment) -> None:
    assert cont.witness is not None
    assert cont.arc in cont.witness.arcs
    assert cont.witness.check(d) == []


def test_small_case_bad_arc() -> None:
    d3 = et.gen_d3()
    bad = et.classify_containment(d3, (2, 1))
    assert not bad.in_some
    assert bad.obstruction == "small-case"
    assert bad.witness is None
    for arc in [(0, 1), (1, 2), (2, 0)]:
        cont = et.classify_containment(d3, arc)
        assert cont.in_some and cont.obstruction is None
        assert cont.witness is not None
        assert cont.witness.arcs == frozenset({(0, 1), (1, 2), (2, 0)})


def test_three_cycle_arcs_are_all_good() -> None:
    for arc in three_cycle().arcs():
        cont = et.classify_containment(three_cycle(), arc)
        assert cont.in_some
        assert_witness(three_cycle(), cont)


def test_completion_decides_every_arc_up_to_three_vertices() -> None:
    pool = [d for n in (2, 3) for d in enumerate_all_semicomplete(n) if et.is_strong(d)]
    checked = 0
    for d in pool:
        union = frozenset().union(*all_spanning_eulerian(d))
        for arc in d.arcs():
            cont = et.classify_containment(d, arc)
            assert cont.in_some == (arc in union), (d.arcs(), arc)
            if cont.in_some:
                assert_witness(d, cont)
            else:
                assert cont.obstruction == "small-case"
            checked += 1
    assert checked == 68


def test_t4_backward_arc_witness() -> None:
    cont = et.classify_containment(t4(), (2, 3))
    assert cont.in_some
    assert cont.witness is not None
    assert cont.witness.arcs == frozenset({(0, 1), (1, 2), (2, 3), (3, 0)})


def test_t4_left_and_right_bad_arcs() -> None:
    left = et.classify_containment(t4(), (0, 2))
    assert not left.in_some and left.obstruction == "left"
    right = et.classify_containment(t4(), (1, 3))
    assert not right.in_some and right.obstruction == "right"


def test_figure_chain_regular_bad_arcs() -> None:
    d = figure_chain()
    for arc in [(0, 5), (12, 18)]:
        cont = et.classify_containment(d, arc)
        assert not cont.in_some
        assert cont.obstruction == "regular"
    for arc in [(8, 12), (3, 8), (10, 16)]:
        cont = et.classify_containment(d, arc)
        assert cont.in_some
        assert_witness(d, cont)


def test_figure_chain_backward_witness_carries_all_cut_arcs() -> None:
    d = figure_chain()
    cont = et.classify_containment(d, (14, 5))
    assert cont.in_some
    assert_witness(d, cont)
    assert {(18, 10), (14, 5), (7, 0)} <= cont.witness.arcs


def test_blocked_arc_construction_is_bad() -> None:
    d, arc = et.gen_blocked_arc_tournament(3, 3, 0, 0)
    cont = et.classify_containment(d, arc)
    assert not cont.in_some
    assert cont.obstruction == "regular"
    good = et.classify_containment(d, (0, 3))  # block A feeds the chain
    assert good.in_some
    assert_witness(d, good)


def test_classify_requires_arc_in_digraph() -> None:
    with pytest.raises(et.PreconditionError):
        et.classify_containment(t4(), (1, 0))
    with pytest.raises(et.PreconditionError):
        et.classify_unavoidable(t4(), (1, 0))
    with pytest.raises(et.PreconditionError):
        et.classify_containment(et.Digraph(3, [(0, 1), (1, 2), (2, 0)]).remove_arcs([(0, 1)]), (1, 2))
    # taxonomy_labels refuses an absent arc as well, and one past the vertices
    for d in (t4(), figure_chain()):
        for arc in ((1, 0), (0, 99)):
            with pytest.raises(et.PreconditionError, match=r"arc \(.*\) is not in the digraph"):
                et.taxonomy_labels(d, arc)


def test_cut_arcs_are_unavoidable() -> None:
    d = t4()
    unav = et.classify_unavoidable(d, (3, 0))
    assert unav.unavoidable and unav.kind == "cut"
    assert unav.cut_certificate is not None
    assert unav.partition is None


def test_t4_exceptional_arc() -> None:
    unav = et.classify_unavoidable(t4(), (1, 2))
    assert unav.unavoidable and unav.kind == "exceptional"
    assert unav.partition is not None
    assert unav.partition.check(t4(), frozenset({(1, 2)})) == []
    labels = et.taxonomy_labels(t4(), (1, 2))
    assert labels == {
        "regular": False, "left": False, "right": False, "exceptional": True,
    }


def test_exceptional_generator_both_variants() -> None:
    for with_cb in (False, True):
        d = et.gen_exceptional(with_cb)
        unav = et.classify_unavoidable(d, (0, 3))
        assert unav.unavoidable and unav.kind == "exceptional"
        assert unav.partition == et.ObstructionPartition(
            frozenset({2}), frozenset({1}), frozenset({0, 3})
        )


def test_compulsory_chain_regular_arc() -> None:
    d = compulsory_chain()
    unav = et.classify_unavoidable(d, (4, 5))
    assert unav.unavoidable and unav.kind == "regular"
    assert unav.partition == et.ObstructionPartition(
        frozenset({0, 1, 2, 3}), frozenset({6, 7, 8, 9, 10, 11}), frozenset({4, 5})
    )
    assert unav.partition.check(d, frozenset({(4, 5)})) == []


def test_compulsory_chain_left_arc() -> None:
    d = compulsory_chain()
    unav = et.classify_unavoidable(d, (0, 2))
    assert unav.unavoidable and unav.kind == "left"
    assert unav.partition == et.ObstructionPartition(
        frozenset({1}), frozenset(range(3, 12)), frozenset({0, 2})
    )


def test_compulsory_chain_mirror_right_arc() -> None:
    d = compulsory_chain().reverse()
    unav = et.classify_unavoidable(d, (2, 0))
    assert unav.unavoidable and unav.kind == "right"
    assert unav.partition == et.ObstructionPartition(
        frozenset(range(3, 12)), frozenset({1}), frozenset({0, 2})
    )
    regular = et.classify_unavoidable(d, (5, 4))
    assert regular.unavoidable and regular.kind == "regular"


def test_avoidable_arc_gets_a_witness() -> None:
    d = complete(4)
    unav = et.classify_unavoidable(d, (0, 1))
    assert not unav.unavoidable
    assert unav.kind is None
    assert unav.avoidance_witness is not None
    assert (0, 1) not in unav.avoidance_witness.arcs
    assert unav.avoidance_witness.check(d) == []


def test_unavoidable_arcs_frozen_lists() -> None:
    assert et.unavoidable_arcs(et.gen_d3()) == [(0, 1), (1, 2), (2, 0)]
    assert et.unavoidable_arcs(t4()) == [(0, 1), (1, 2), (2, 3), (3, 0)]
    assert et.unavoidable_arcs(complete(4)) == []


def test_taxonomy_is_exclusive_on_compulsory_chain() -> None:
    d = compulsory_chain()
    for arc in [(4, 5), (0, 2)]:
        labels = et.taxonomy_labels(d, arc)
        assert sum(labels.values()) == 1


@settings(max_examples=40)
@given(n=st.integers(min_value=4, max_value=5), seed=st.integers(0, 10**6))
def test_classification_agrees_with_oracle(n: int, seed: int) -> None:
    d = random_strong_semicomplete(n, seed)
    every = all_spanning_eulerian(d)
    union = frozenset().union(*every) if every else frozenset()
    common = every[0]
    for s in every[1:]:
        common &= s
    for arc in d.arcs():
        cont = et.classify_containment(d, arc)
        assert cont.in_some == (arc in union)
        if cont.in_some:
            assert_witness(d, cont)
        unav = et.classify_unavoidable(d, arc)
        assert unav.unavoidable == (arc in common)
        if not unav.unavoidable:
            assert unav.avoidance_witness is not None
            assert arc not in unav.avoidance_witness.arcs


# ---- classify_all ----


def _assert_classify_all_matches_per_arc(
    d: et.Digraph,
) -> list[tuple[et.ArcContainment, et.ArcUnavoidability]]:
    pairs = et.classify_all(d)
    assert [cont.arc for cont, _ in pairs] == list(d.arcs())
    # a 2-arc-strong digraph on four or more vertices gets batch witnesses:
    # the verdicts are the per-arc ones, the witnesses any checked one
    # holding the arc
    batched = d.n > 3 and et.arc_connectivity(d) >= 2
    for cont, unav in pairs:
        arc = cont.arc
        per_arc = et.classify_containment(d, arc)
        if batched:
            assert (cont.arc, cont.in_some, cont.obstruction) == (
                per_arc.arc, per_arc.in_some, per_arc.obstruction,
            )
            assert_witness(d, cont)
        else:
            assert cont == per_arc
        alone = et.classify_unavoidable(d, arc)
        assert unav.arc == arc
        assert (unav.unavoidable, unav.kind, unav.cut_certificate, unav.partition) == (
            alone.unavoidable, alone.kind, alone.cut_certificate, alone.partition,
        )
        assert (unav.avoidance_witness is None) == (alone.avoidance_witness is None)
        if unav.avoidance_witness is not None:
            assert unav.avoidance_witness.check(d, frozenset((arc,))) == []
    return pairs


def test_classify_all_matches_per_arc_on_the_exhaustive_pool() -> None:
    pool = [d for d in enumerate_all_semicomplete(4) if et.is_strong(d)]
    pool += [d for d in enumerate_all_tournaments(5) if et.is_strong(d)]
    assert len(pool) == 1087
    for d in pool:
        _assert_classify_all_matches_per_arc(d)


def test_classify_all_matches_per_arc_on_chains_and_dense_digraphs() -> None:
    rng = random.Random(20190526)
    for n in range(5, 15):
        _assert_classify_all_matches_per_arc(strong_backward_chain(n, rng))
        _assert_classify_all_matches_per_arc(random_strong_semicomplete(n, rng.randrange(1 << 30)))


def _two_arc_strong(n: int, two_cycle_prob: float, rng: random.Random) -> et.Digraph:
    while True:
        d = et.gen_random_semicomplete(n, two_cycle_prob, rng.randrange(1 << 30))
        if et.arc_connectivity(d) >= 2:
            return d


def test_classify_all_batches_give_the_per_arc_verdicts() -> None:
    rng = random.Random(14)
    for n in range(4, 26, 3):
        # tournaments are 2-arc-strong only from five vertices on, rarely below ten
        for two_cycle_prob in (0.0, 0.3, 0.8) if n >= 10 else (0.5, 0.8):
            pairs = _assert_classify_all_matches_per_arc(_two_arc_strong(n, two_cycle_prob, rng))
            if n >= 10:
                assert len({cont.witness for cont, _ in pairs}) < len(pairs) / 2


def test_classify_all_covers_missed_batches_with_per_arc_witnesses(monkeypatch) -> None:
    monkeypatch.setattr(classify, "_completed", lambda d, forced: None)
    rng = random.Random(5)
    for n in (4, 9, 16):
        d = _two_arc_strong(n, 0.3, rng)
        per_arc = {et.classify_containment(d, a).witness for a in d.arcs()}
        pairs = et.classify_all(d)
        for cont, _ in pairs:
            assert_witness(d, cont)
            assert cont.witness in per_arc


def _recording(monkeypatch) -> list:
    """Replace the avoidance construction seen by classify with one that
    records (forbidden arcs, result) for every call."""
    built = []
    real = classify.spanning_eulerian_avoiding

    def recorded(d, forbidden):
        built.append((forbidden, real(d, forbidden)))
        return built[-1][1]

    monkeypatch.setattr(classify, "spanning_eulerian_avoiding", recorded)
    return built


def test_classify_all_shares_containment_witnesses(monkeypatch) -> None:
    built = _recording(monkeypatch)
    d = et.gen_random_semicomplete(8, 0.5, 3)
    assert et.arc_connectivity(d) >= 2
    pairs = et.classify_all(d)
    witnesses = [cont.witness for cont, _ in pairs]
    assert all(any(a not in w.arcs for w in witnesses) for a in d.arcs())
    assert built == []
    for cont, unav in pairs:
        assert not unav.unavoidable
        assert any(unav.avoidance_witness is w for w in witnesses)


def test_avoidance_witness_is_built_only_when_every_witness_uses_the_arc(
    monkeypatch,
) -> None:
    # a backward chain whose containment witnesses all use the avoidable arc (9, 0)
    d = et.Digraph(10, [
        (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (1, 0), (1, 2),
        (1, 3), (1, 4), (1, 5), (1, 7), (1, 8), (1, 9), (2, 3), (2, 4), (2, 5),
        (2, 6), (2, 7), (2, 8), (2, 9), (3, 4), (3, 5), (3, 6), (3, 7), (3, 8),
        (3, 9), (4, 3), (4, 5), (4, 6), (4, 7), (4, 8), (4, 9), (5, 6), (5, 7),
        (5, 8), (6, 1), (6, 7), (6, 8), (6, 9), (7, 8), (7, 9), (8, 9), (9, 0),
        (9, 5),
    ])
    built = _recording(monkeypatch)
    pairs = {cont.arc: (cont, unav) for cont, unav in et.classify_all(d)}
    assert [forbidden for forbidden, _ in built] == [frozenset({(9, 0)})]
    assert all((9, 0) in cont.witness.arcs for cont, _ in pairs.values() if cont.witness)
    assert pairs[(9, 0)][1].avoidance_witness is built[0][1]
    assert built[0][1].check(d, frozenset({(9, 0)})) == []


def test_unavoidable_arcs_shares_the_witnesses_it_builds(monkeypatch) -> None:
    built = _recording(monkeypatch)
    d = complete(5)
    assert et.unavoidable_arcs(d) == []
    assert 1 <= len(built) < d.m
    for i, (forbidden, _) in enumerate(built):
        assert all(forbidden <= w.arcs for _, w in built[:i])


def test_classify_all_refuses_digraphs_it_cannot_classify() -> None:
    with pytest.raises(et.PreconditionError, match="semicomplete"):
        et.classify_all(et.Digraph(3, []))
    with pytest.raises(et.PreconditionError, match="strong"):
        et.classify_all(et.Digraph(3, [(0, 1), (1, 2), (0, 2)]))
    assert et.classify_all(et.Digraph(1, [])) == []


def test_cut_row_refuses_a_cut_an_allowed_arc_crosses(monkeypatch) -> None:
    d = three_cycle()
    assert classify.classify_unavoidable(d, (0, 1)).cut_certificate.crossing_arcs == frozenset()
    # consistent with d without (0, 1), but the allowed arc (1, 2) crosses it
    crossed = et.CutCertificate(frozenset({1}), frozenset({0, 2}), frozenset({(1, 2)}))
    assert crossed.check(d, frozenset({(0, 1)})) == []
    monkeypatch.setattr(classify, "arc_connectivity_certificate", lambda rest: (0, crossed))
    with pytest.raises(et.ConstructionError, match="cut certificate"):
        classify.classify_unavoidable(d, (0, 1))
