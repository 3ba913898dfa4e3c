"""The benchmark's own connectivity routines agree with the package's."""

import random

import eulertrail as et

from perfbench import graphs as g


def test_connectivity_routines_agree_with_the_package():
    rng = random.Random("graphs")
    for i in range(60):
        n = rng.randint(4, 12)
        if i % 3:
            arcs = g.random_semicomplete(n, rng.random(), rng)
        else:
            arcs = g.relabel(n, g.backward_chain(n, rng), rng)
        out = g.out_rows(n, arcs)
        d = et.Digraph(n, arcs)
        lam = et.arc_connectivity(d)
        for k in range(lam + 2):
            assert g.arc_connectivity_at_least(out, k) == (lam >= k)
        assert g.is_strong(out) == et.is_strong(d)
        if et.is_strong(d):
            assert g.cut_arcs(out) == set(et.cut_arcs(d))


def test_backward_chains_are_strong_semicomplete_with_a_cut_arc():
    rng = random.Random("chains")
    for _ in range(30):
        n = rng.randint(6, 30)
        arcs = g.backward_chain(n, rng)
        out = g.out_rows(n, arcs)
        d = et.Digraph(n, arcs)
        assert et.is_semicomplete(d)
        assert g.is_strong(out)
        assert not g.arc_connectivity_at_least(out, 2)
        assert g.cut_arcs(out)
