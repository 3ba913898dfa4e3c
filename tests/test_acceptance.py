"""Acceptance suite: exhaustive and randomized gates over the full pipeline.

The exhaustive gates check every arc of every strong labeled semicomplete
digraph on 4 vertices and every strong labeled tournament on 5 vertices
against brute-force enumeration.  The randomized gates drive the
constructions across the guaranteed-success regimes and compare the factor
decision against its oracle.  Each gate also keeps inside an explicit
wall-clock budget.
"""

import json
import random
import time

import pytest

import eulertrail as et
from eulertrail.cli import main
from eulertrail.oracle import (
    all_spanning_eulerian,
    enumerate_all_semicomplete,
    enumerate_all_tournaments,
    enumerate_spanning_eulerian,
    oracle_eulerian_factor,
)


@pytest.fixture(scope="module")
def exhaustive_pool():
    """Every strong labeled semicomplete digraph n=4 and tournament n=5."""
    semi4 = [d for d in enumerate_all_semicomplete(4) if et.is_strong(d)]
    tour5 = [d for d in enumerate_all_tournaments(5) if et.is_strong(d)]
    assert len(semi4) == 543
    assert len(tour5) == 544
    return semi4 + tour5


@pytest.fixture(scope="module")
def pool_with_oracle(exhaustive_pool):
    """The pool together with the union and intersection of all its
    spanning eulerian subdigraphs, enumerated once."""
    out = []
    for d in exhaustive_pool:
        subs = all_spanning_eulerian(d)
        assert subs, "a strong semicomplete digraph has a hamiltonian cycle"
        union = frozenset().union(*subs)
        inter = frozenset.intersection(*subs)
        out.append((d, union, inter))
    return out


def _random_strong(rng, n_lo, n_hi, prob_lo=0.0, prob_hi=1.0, lam=1, tries=4000):
    for _ in range(tries):
        n = rng.randint(n_lo, n_hi)
        d = et.gen_random_semicomplete(
            n, rng.uniform(prob_lo, prob_hi), rng.randrange(1 << 30)
        )
        if et.arc_connectivity(d) >= lam:
            return d
    raise RuntimeError(f"no digraph with arc connectivity {lam} found")


def test_containment_verdicts_match_the_oracle(pool_with_oracle):
    start = time.monotonic()
    for d, union, _ in pool_with_oracle:
        for arc in d.arcs():
            cont = et.classify_containment(d, arc)
            assert cont.in_some == (arc in union), (sorted(d.arcs()), arc)
            if cont.in_some:
                assert cont.witness is not None
                assert cont.witness.check(d) == []
                assert arc in cont.witness.arcs
            else:
                assert cont.witness is None
    assert time.monotonic() - start < 120


def test_unavoidability_verdicts_match_the_oracle(pool_with_oracle):
    start = time.monotonic()
    for d, _, inter in pool_with_oracle:
        cuts = et.cut_arcs(d)
        for arc in d.arcs():
            unav = et.classify_unavoidable(d, arc)
            assert unav.unavoidable == (arc in inter), (sorted(d.arcs()), arc)
            if unav.unavoidable and arc not in cuts:
                labels = et.taxonomy_labels(d, arc)
                assert sum(labels.values()) == 1, (sorted(d.arcs()), arc, labels)
                assert labels[unav.kind]
    assert time.monotonic() - start < 300


def test_linked_pairs_admit_spanning_trails():
    """Every ordered pair joined by two arc-disjoint paths gets a trail
    avoiding the reverse arc, leaving each vertex at most twice."""
    start = time.monotonic()

    def drive(d):
        for x in d.vertices():
            for y in d.vertices():
                if x == y:
                    continue
                probe = et.arc_disjoint_paths(d, x, y, 2)
                if isinstance(probe, et.CutCertificate):
                    continue
                trail = et.spanning_trail(d, x, y)
                assert trail.check(d, x, y) == []
                arcs = list(zip(trail.vertices, trail.vertices[1:]))
                assert (y, x) not in arcs
                out = {}
                for u, _ in arcs:
                    out[u] = out.get(u, 0) + 1
                assert max(out.values()) <= 2

    for n in (3, 4, 5):
        for d in enumerate_all_tournaments(n):
            if et.is_strong(d):
                drive(d)
    rng = random.Random("linked-pairs")
    for _ in range(1000):
        drive(_random_strong(rng, 6, 8))
    assert time.monotonic() - start < 300


def test_two_arc_strong_membership_and_trails():
    """With no cut arcs, every arc is on a witness and every pair gets a trail."""
    start = time.monotonic()
    rng = random.Random("two-arc-strong")
    for _ in range(500):
        d = _random_strong(rng, 4, 30, prob_lo=0.2, lam=2)
        for arc in d.arcs():
            cont = et.classify_containment(d, arc)
            assert cont.in_some and cont.witness is not None
            assert cont.witness.check(d) == []
            assert arc in cont.witness.arcs
        for x in d.vertices():
            for y in d.vertices():
                if x != y:
                    trail = et.spanning_trail(d, x, y)
                    assert trail.check(d, x, y) == []
    assert time.monotonic() - start < 300


def test_factor_decision_matches_the_oracle():
    start = time.monotonic()
    rng = random.Random("factor-oracle")
    obstructions = 0
    for _ in range(2000):
        n = rng.randint(3, 7)
        d = et.gen_random_semicomplete(n, rng.random(), rng.randrange(1 << 30))
        pool = list(d.arcs())
        avoid = frozenset(rng.sample(pool, rng.randint(0, min(6, len(pool)))))
        got = et.eulerian_factor(d, avoid)
        expect = oracle_eulerian_factor(d, avoid)
        if isinstance(got, et.ObstructionPartition):
            assert not expect
            obstructions += 1
            allowed = [a for a in d.arcs() if a not in avoid]
            assert not any(u in got.y and v in got.y for u, v in allowed)
            assert not any(u in got.r2 and v in got.y for u, v in allowed)
            assert not any(u in got.y and v in got.r1 for u, v in allowed)
            crossing = sum(1 for u, v in allowed if u in got.r2 and v in got.r1)
            assert crossing < len(got.y)
            assert got.check(d, avoid) == []
        else:
            assert expect
    assert obstructions > 0
    assert time.monotonic() - start < 180


def test_guaranteed_avoidance_regimes_always_certify():
    """Connectivity above the forbidden-set size forces a certificate:
    k+1-arc-strong beats any k arcs for k < 4 and any k-arc star set."""
    start = time.monotonic()
    rng = random.Random("guaranteed-regimes")
    for lam, k in ((2, 1), (3, 2), (4, 3)):
        for _ in range(500):
            d = _random_strong(rng, max(4, lam + 1), 12, prob_lo=0.5, lam=lam)
            f = frozenset(rng.sample(list(d.arcs()), k))
            res = et.spanning_eulerian_avoiding(d, f)
            assert isinstance(res, et.EulerianSubdigraph), (lam, k, res)
            assert res.check(d) == []
            assert not (set(res.arcs) & f)
    for k in (4, 5):
        for _ in range(500):
            d = _random_strong(rng, k + 3, 12, prob_lo=0.7, lam=k + 1)
            center = rng.randrange(d.n)
            incident = [a for a in d.arcs() if center in a]
            f = frozenset(rng.sample(incident, k))
            assert et.is_star_set(f)
            res = et.spanning_eulerian_avoiding(d, f)
            assert isinstance(res, et.EulerianSubdigraph), (k, res)
            assert res.check(d) == []
            assert not (set(res.arcs) & f)
    assert time.monotonic() - start < 600


def test_reduction_route_succeeds_at_high_connectivity():
    """Forbidden sets that leave a non-multipartite remainder route through
    the reduction step, which must come back with a certificate."""
    rng = random.Random("reduction-route")
    for k in (4, 5):
        lam = ((k + 1) ** 2 + 3) // 4 + 1
        for _ in range(100):
            d = _random_strong(rng, lam + 1, lam + 4, prob_lo=0.7, lam=lam)
            while True:
                a, b, c = rng.sample(range(d.n), 3)
                if (
                    d.has_arc(a, b)
                    and d.has_arc(b, a)
                    and d.has_arc(b, c)
                    and d.has_arc(c, b)
                ):
                    break
            f = {(a, b), (b, a), (b, c), (c, b)}
            pool = [
                x
                for x in d.arcs()
                if x not in f and a not in x and b not in x and c not in x
            ]
            while len(f) < k:
                f.add(pool.pop(rng.randrange(len(pool))))
            trace = []
            res = et.spanning_eulerian_avoiding(d, frozenset(f), trace=trace)
            assert isinstance(res, et.EulerianSubdigraph), (k, res, trace)
            assert "multipartite-reduction" in trace, trace
            assert res.check(d) == []
            assert not (set(res.arcs) & f)


def test_blocked_arc_family_instance():
    start = time.monotonic()
    d, arc = et.gen_blocked_arc_tournament(3, 3, 0, 0)
    cont = et.classify_containment(d, arc)
    assert not cont.in_some
    assert cont.obstruction == "regular"
    assert enumerate_spanning_eulerian(d, must_contain={arc}, limit=1) == []
    assert time.monotonic() - start < 60


def test_d3_has_one_arc_outside_every_subdigraph():
    d = et.gen_d3()
    subs = all_spanning_eulerian(d)
    assert subs == (frozenset({(0, 1), (1, 2), (2, 0)}),)
    for arc in d.arcs():
        cont = et.classify_containment(d, arc)
        if arc == (2, 1):
            assert not cont.in_some
        else:
            assert cont.in_some
            assert cont.witness.check(d) == []
            assert arc in cont.witness.arcs


def test_decomposition_structure_and_backward_ordering(exhaustive_pool):
    """Structural audit of every computed decomposition: clean
    verification, interleaved backward positions, extreme endpoints, and
    double routes across shared junction sets."""
    for d in exhaustive_pool:
        dec = et.nice_decomposition(d)
        assert et.verify_structure(dec, d) == []
        order = et.natural_backward_ordering(dec, d)
        pos = dec.position
        r = len(order)
        for j in range(r - 1):
            s_j, t_j = order[j]
            s_next, t_next = order[j + 1]
            assert pos(t_next) < pos(t_j) <= pos(s_next) < pos(s_j)
        for j in range(r - 2):
            assert pos(order[j + 1][1]) <= pos(order[j + 2][0]) < pos(order[j][1])
        if r:
            assert order[0][0] in dec.sets[-1]
            assert order[-1][1] in dec.sets[0]
        for j in range(r - 1):
            t_j = order[j][1]
            s_next = order[j + 1][0]
            if t_j != s_next and pos(t_j) == pos(s_next):
                sub, ids = d.induced(dec.sets[pos(t_j)])
                res = et.arc_disjoint_paths(sub, ids.index(t_j), ids.index(s_next), 2)
                assert not isinstance(res, et.CutCertificate)


def test_conjecture_probe_reports_no_candidates(capsys):
    start = time.monotonic()
    code = main(
        [
            "conjecture-search",
            "--quiet",
            "--k",
            "4",
            "--n",
            "8",
            "--trials",
            "10000",
            "--seed",
            "20260822",
        ]
    )
    out, err = capsys.readouterr()
    assert code == 0
    assert err == ""
    report = json.loads(out)
    assert report["trials"] == 10000
    assert report["candidates"] == []
    assert report["pipeline_misses"] == 0
    assert report["certificates"] == 10000
    assert time.monotonic() - start < 1800
