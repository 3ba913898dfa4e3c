"""Eulerian factors, their obstructions, and component merging.

An eulerian factor is a spanning subdigraph with in-degree equal to
out-degree and both at least one at every vertex; unlike a spanning
eulerian subdigraph it may fall apart into several closed components.
Factors are decided by a lower-bounded circulation; when none exists the
failing cut is refined into a three-part vertex partition whose counting
inequality certifies the absence.  The merge engine then welds factor
components together into one, and ``spanning_eulerian_avoiding`` wires
the pieces into the full decision procedure for prescribed forbidden
arc sets.

Avoided arcs are removed once, where a public function is called:
``eulerian_factor`` and ``merge_all`` vet them and pass
``d.remove_arcs(avoid)`` on, and the avoiding pipeline builds that
digraph as ``rest``.  Every internal works on the one digraph it is
given, whose arcs are exactly the allowed ones.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from ._flow import _circulate
from .connectivity import (
    CutCertificate,
    _arc_strong,
    _closure,
    arc_connectivity_certificate,
    is_strong,
    shortest_walk,
)
from .digraph import Arc, Digraph, _mask_bits, _row_arcs, _rows_of, require_arcs
from .errors import ConstructionError, PreconditionError
from .oracle import enumerate_spanning_eulerian
from .trails import EulerianSubdigraph, _degree_issues, _note, _trail_walk

ArcSet = frozenset[Arc]


@dataclass(frozen=True)
class EulerianFactor:
    """A factor's arcs together with its closed components, the weak
    components of the arcs ordered by smallest member."""

    arcs: ArcSet
    components: tuple[frozenset[int], ...]

    def check(self, d: Digraph, avoid: ArcSet = frozenset()) -> list[str]:
        """Violation report for a claimed eulerian factor of d whose
        ``avoid`` arcs count as absent; empty means valid."""
        issues, _ = _degree_issues(d, self.arcs, avoid)
        if issues:
            return issues
        weak = [frozenset(_mask_bits(m)) for m in _weak_masks(d.n, self.arcs)]
        if list(self.components) != weak:
            issues.append("components are not the weak components of the arcs")
        return issues


@dataclass(frozen=True)
class ObstructionPartition:
    """Vertex partition (r1, r2, y) certifying that no factor exists.

    Within the allowed arcs: y is independent, nothing runs from r2 into
    y or from y into r1, and fewer than |y| arcs run from r2 to r1, so
    the vertices of y cannot all reach their required degree.
    """

    r1: frozenset[int]
    r2: frozenset[int]
    y: frozenset[int]

    def check(self, d: Digraph, avoid: ArcSet = frozenset()) -> list[str]:
        """Violation report against a digraph; empty means the
        obstruction is genuine."""
        issues: list[str] = []
        parts = [self.r1, self.r2, self.y]
        if sum(len(p) for p in parts) != d.n or set().union(*parts) != set(
            d.vertices()
        ):
            issues.append("parts do not partition the vertex set")
            return issues
        if not self.y:
            issues.append("middle part is empty")

        def allowed(u: int, v: int) -> bool:
            return d.has_arc(u, v) and (u, v) not in avoid

        if any(allowed(u, v) for u in self.y for v in self.y if u != v):
            issues.append("middle part is not independent")
        if any(allowed(u, v) for u in self.r2 for v in self.y):
            issues.append("an arc runs from r2 into the middle part")
        if any(allowed(u, v) for u in self.y for v in self.r1):
            issues.append("an arc runs from the middle part into r1")
        crossing = sum(
            1 for u in self.r2 for v in self.r1 if allowed(u, v)
        )
        if crossing >= len(self.y):
            issues.append(
                f"{crossing} arcs run from r2 to r1, not fewer than |y|={len(self.y)}"
            )
        return issues


@dataclass(frozen=True)
class NonStrongCut:
    """The allowed arcs are not strongly connected; no spanning eulerian
    subdigraph can exist inside them."""

    certificate: CutCertificate

    def check(self, d: Digraph, avoid: ArcSet = frozenset()) -> list[str]:
        """Violation report; empty means the certificate is a cut of d
        without the ``avoid`` arcs, and no arc crosses it."""
        if self.certificate.crossing_arcs:
            return ["an allowed arc crosses the cut"]
        return self.certificate.check(d, avoid)


@dataclass(frozen=True)
class MergeOption:
    """One applicable merge move: arcs to add and arcs to drop."""

    rule: str
    add_arcs: ArcSet
    remove_arcs: ArcSet


# ---- eulerian factors ----


def _weak_masks(n: int, arcs) -> list[int]:
    """Masks of the weak components of the arcs on vertices 0..n-1,
    ordered by smallest member; a vertex on no arc is a component alone."""
    near = [0] * n  # undirected bitmask rows
    for u, v in arcs:
        near[u] |= 1 << v
        near[v] |= 1 << u
    comps: list[int] = []
    left = (1 << n) - 1
    while left:
        comps.append(_closure(near, (left & -left).bit_length() - 1))
        left &= ~comps[-1]
    return comps


def eulerian_factor(
    d: Digraph, avoid: ArcSet | set[Arc] = frozenset()
) -> EulerianFactor | ObstructionPartition:
    """An eulerian factor avoiding the given arcs, or the obstruction.

    Works on arbitrary digraphs.  The factor is found as a degree-bounded
    subgraph with every vertex on at least one arc; when none exists the
    blocking cut is refined into an ObstructionPartition; either answer
    is checked before it is returned.
    """
    require_arcs(d, avoid, "avoided arc")
    result = _factor(d.remove_arcs(avoid))
    if isinstance(result, EulerianFactor):
        bad = result.check(d, frozenset(avoid))
        if bad:
            raise ConstructionError(f"eulerian factor failed its check: {bad}")
    return result


def _factor(d: Digraph) -> EulerianFactor | ObstructionPartition:
    """A factor of d, picked by ``_circulate`` with every vertex on at
    least one arc, or the obstruction refined from its cut."""
    n, out = d.n, d._out  # noqa: SLF001 - package-internal
    picked, entry, exit_ = _circulate(out, [1] * n, [n] * n)
    if picked is None:
        return _refine_obstruction(d, entry, exit_)
    arcs = frozenset(_row_arcs(picked))
    comps = _weak_masks(n, arcs)
    return EulerianFactor(arcs, tuple(frozenset(_mask_bits(c)) for c in comps))


def _refine_obstruction(d: Digraph, entry: int, exit_: int) -> ObstructionPartition:
    """Shrink the middle part of the blocking cut, whose entry and exit
    sides ``_circulate`` returns as masks, until its three defining
    conditions hold; every move also removes at least one arc from the
    deficiency count, so the strict inequality survives.

    r2 holds the vertices whose entry side the last search reached, the
    middle part those whose exit side alone it reached, and r1 the rest.
    ``_factor`` circulates with lo = 1, hi = n and no surplus.  A middle
    vertex y carries no unit above lo on its own edge, or its reached
    exit side would scan that unit backwards to its entry side; so y has
    at most one picked out-arc.  If y's exit side is stocked, none is
    picked; otherwise the search reached y's exit side backwards along
    the picked arc, from an entry side in r2.  A reached exit side
    reaches the head of each of its unpicked arcs, so an arc from y into
    the middle part or r1, whose entry sides were not reached, would be
    picked: there is none.  So the middle part is independent and sends
    nothing into r1, a vertex moved to r2 sends nothing into the middle
    part, and one pass over the arcs from r2 settles the partition.
    """
    ins = d._in  # noqa: SLF001 - package-internal
    y_side = exit_ & ~entry
    r1 = ((1 << d.n) - 1) & ~entry & ~y_side
    r2 = entry
    for y in _mask_bits(y_side):
        if ins[y] & entry:
            y_side ^= 1 << y
            r2 |= 1 << y
    result = ObstructionPartition(*(frozenset(_mask_bits(m)) for m in (r1, r2, y_side)))
    bad = result.check(d)
    if bad:
        raise ConstructionError(f"obstruction refinement failed: {bad}")
    return result


def factor_exists_guarantee(d: Digraph, k: int) -> bool:
    """Whether connectivity alone already promises a factor avoiding any
    k arcs (a counting bound, no search involved)."""
    if k < 0:
        raise PreconditionError("k must be non-negative")
    return _arc_strong(d, k + 1)


def is_star_set(arcs: ArcSet | set[Arc]) -> bool:
    """Whether the arcs' underlying undirected edges form disjoint stars.

    Opposite arcs collapse onto one edge.  Every weak component with an
    edge must have one vertex that is an endpoint of all its arcs.  An
    arc with a negative end raises ``PreconditionError``.
    """
    arcs = list(arcs)
    negative = [a for a in arcs if min(a) < 0]
    if negative:
        raise PreconditionError(f"arc {min(negative)} has a negative end")
    n = 1 + max((max(a) for a in arcs), default=-1)
    for comp in _weak_masks(n, arcs):
        inner = [a for a in arcs if comp >> a[0] & 1]
        if inner and not any(all(v in a for a in inner) for v in _mask_bits(comp)):
            return False
    return True


# ---- merging factor components ----


def _cross_cycle(rows: list[int], cols: list[int], live: int) -> tuple[list[Arc] | None, int]:
    """The shortest cycle of cross arcs through the smallest vertex on
    one, or None; and the live mask less the vertices found on none.

    ``rows[u]`` and ``cols[u]`` are u's cross arcs: its out- and in-row
    minus its own component, which holds every current arc at it.  The
    live mask holds every vertex of a cross cycle.  Vertices s are taken
    in ascending order.  One with no cross out- or in-arc inside the live
    set, or whose strong component C there (two ``_closure`` calls) is s
    alone, is on no cross cycle and leaves the set.  The first other s is
    the smallest vertex on a cross cycle, and C is its strong component in
    the whole cross graph, as in any live set that holds every such
    vertex.  ``shortest_walk`` from s back to s, run inside C, finds the
    cycle; run over every vertex it would find the same one: a vertex
    outside C that s reaches cannot reach s, so it reaches no vertex of C
    and discovers none, and only vertices of C lead back to s.
    """
    for s in _mask_bits(live):
        bit_s = 1 << s
        within = bit_s
        if rows[s] & live and cols[s] & live:
            within = _closure(rows, s, live) & _closure(cols, s, live)
        if within == bit_s:
            live ^= bit_s
            continue
        cycle = shortest_walk(rows, bit_s, bit_s, within)
        return list(zip(cycle, cycle[1:])), live
    return None, live


def _next_move(
    d: Digraph, current: set[Arc], comps: list[int], comp_of: list[int], protected: ArcSet
) -> MergeOption | None:
    """The first applicable insert, swap or reroute, or None; ``_merge``
    asks only when no cross-component cycle is left.

    ``comps`` holds the weak components of the balanced ``current`` arcs
    as masks, in order of smallest member, and ``comp_of`` each vertex's
    index, so each component's arcs form one closed tour through its
    vertices.  Every candidate arc joins two components, so any arc of d
    may be added; only protected arcs rule a candidate out.

    Each move joins exactly the components its added arcs touch, keeps
    every component closed and leaves the others' arcs alone.  An insert
    drops one arc of a tour, a swap one of each of two; what is left of a
    tour is an open trail through all of its vertices, and the two added
    arcs close it, through the other component, into one tour.  A reroute
    turns p, y, s into p, x, s on one tour; y is visited twice or more,
    so no vertex leaves the tour, and x's component joins it.
    """
    before = len(comps)
    out, ins = d._out, d._in  # noqa: SLF001 - package-internal
    grouped: list[list[Arc]] = [[] for _ in comps]
    for a in sorted(current):
        grouped[comp_of[a[0]]].append(a)
    for i in range(before):
        for j in range(before):
            if i == j:
                continue
            for u, v in grouped[i]:
                via = out[u] & ins[v] & comps[j]
                if via and (u, v) not in protected:
                    w = next(_mask_bits(via))
                    return MergeOption(
                        "insert", frozenset(((u, w), (w, v))), frozenset(((u, v),))
                    )
    for i in range(before):
        for j in range(i + 1, before):
            for u, v in grouped[i]:
                if (u, v) in protected:
                    continue
                for w, z in grouped[j]:
                    if out[u] >> z & 1 and out[w] >> v & 1 and (w, z) not in protected:
                        return MergeOption(
                            "swap",
                            frozenset(((u, z), (w, v))),
                            frozenset(((u, v), (w, z))),
                        )
    for j in range(before):
        first = next(_mask_bits(comps[j]))
        # a weak component of balanced arcs always closes into one tour
        tour = _trail_walk(_rows_of(grouped[j], d.n), len(grouped[j]), first, first)[:-1]
        k = len(tour)
        visits: dict[int, int] = {}
        for v in tour:
            visits[v] = visits.get(v, 0) + 1
        for idx, y in enumerate(tour):
            p = tour[idx - 1]
            s = tour[(idx + 1) % k]
            if visits[y] < 2 or (p, y) in protected or (y, s) in protected:
                continue
            for i in range(before):
                via = out[p] & ins[s] & comps[i]
                if via and i != j:
                    x = next(_mask_bits(via))
                    return MergeOption(
                        "reroute",
                        frozenset(((p, x), (x, s))),
                        frozenset(((p, y), (y, s))),
                    )
    return None


def merge_all(
    d: Digraph,
    factor_arcs: ArcSet | set[Arc],
    avoid: ArcSet | set[Arc] = frozenset(),
    *,
    protected: ArcSet = frozenset(),
) -> ArcSet | None:
    """Weld a factor's components into one, or None when no move applies.

    Moves are tried in a fixed order (cross-component cycle, insertion
    through a foreign vertex, arc swap, revisit reroute); each move joins
    components, so the count strictly drops, and protected arcs are never
    removed.  The factor arcs must be arcs of d, none of them avoided,
    and balanced at every vertex, else PreconditionError.
    """
    require_arcs(d, avoid, "avoided arc")
    require_arcs(d, factor_arcs, "factor arc")
    both = set(factor_arcs).intersection(avoid)
    if both:
        raise PreconditionError(f"factor arc {min(both)} is avoided")
    if Counter(u for u, _ in factor_arcs) != Counter(v for _, v in factor_arcs):
        raise PreconditionError("factor arcs are not balanced at every vertex")
    return _merge(d.remove_arcs(avoid), factor_arcs, protected)


def _merge(d: Digraph, arcs: ArcSet | set[Arc], protected: ArcSet) -> ArcSet | None:
    """``merge_all`` on balanced arcs of d.

    The weak components are found once.  If there are several, each
    vertex keeps its component's mask and its cross rows (see
    ``_cross_cycle``), beside a live mask of the vertices that may lie on
    a cross cycle.  A move joins the components its added arcs touch, two
    or more: a cycle removes nothing and links the components of its
    vertices (the other moves are ``_next_move``'s).  Only the joined
    vertices' masks and rows change, and they only lose bits; so cross
    arcs only disappear, and a vertex off every cross cycle stays off.
    """
    current = set(arcs)
    comps = _weak_masks(d.n, current)
    if len(comps) <= 1:
        return frozenset(current)
    n, out, ins = d.n, d._out, d._in  # noqa: SLF001 - package-internal
    comp_mask = [0] * n
    for c in comps:
        for v in _mask_bits(c):
            comp_mask[v] = c
    rows = [out[u] & ~comp_mask[u] for u in range(n)]
    cols = [ins[u] & ~comp_mask[u] for u in range(n)]
    live, count = (1 << n) - 1, len(comps)
    while count > 1:
        move, live = _find_move(d, current, comp_mask, rows, cols, live, protected)
        if move is None:
            return None
        current -= move.remove_arcs
        current |= move.add_arcs
        touched = {comp_mask[w] for a in move.add_arcs for w in a}
        joined = sum(touched)  # disjoint masks: their union
        count -= len(touched) - 1
        for v in _mask_bits(joined):
            rows[v] &= ~joined
            cols[v] &= ~joined
            comp_mask[v] = joined
    return frozenset(current)


def _find_move(
    d: Digraph, current: set[Arc], comp_mask: list[int], rows: list[int], cols: list[int],
    live: int, protected: ArcSet,
) -> tuple[MergeOption | None, int]:
    """``_merge``'s next move on its carried state, and the live mask:
    a cross-component cycle, else ``_next_move`` on the masks listed in
    order of smallest member, as each is met first at that vertex."""
    cyc, live = _cross_cycle(rows, cols, live)
    if cyc is not None:
        return MergeOption("cycle", frozenset(cyc), frozenset()), live
    comps = list(dict.fromkeys(comp_mask))
    index = {c: i for i, c in enumerate(comps)}
    return _next_move(d, current, comps, [index[c] for c in comp_mask], protected), live


# ---- the avoiding pipeline ----


def is_semicomplete_multipartite(d: Digraph) -> bool:
    """Whether non-adjacent vertex pairs group into disjoint classes."""
    masks = []
    full = (1 << d.n) - 1
    for u in range(d.n):
        adj = d.out_mask(u) | d.in_mask(u) | (1 << u)
        masks.append(full & ~adj)
    for u in range(d.n):
        nu = masks[u] | (1 << u)
        m = masks[u]
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if (masks[v] | (1 << v)) != nu:
                return False
    return True


def _factor_then_merge(
    d: Digraph, trace: list[str] | None
) -> EulerianSubdigraph | ObstructionPartition | None:
    """Decide a spanning eulerian subdigraph of d via factor + merge.

    When the merge gets stuck, factors found on relabelled vertices get
    another try: each relabels d, picks a factor and maps it back.  A
    factor exists whatever the labels, so each relabelling yields one.
    """
    fac = _factor(d)
    if isinstance(fac, ObstructionPartition):
        return fac
    merged = _merge(d, fac.arcs, frozenset())
    if merged is not None:
        return EulerianSubdigraph(merged)
    n = d.n
    for seed in range(1, 7):
        label = list(range(n))
        random.Random(seed).shuffle(label)
        rows = _rows_of(((label[u], label[v]) for u, v in d.arcs()), n)
        picked, _, _ = _circulate(rows, [1] * n, [n] * n)
        arcs = {(u, v) for u, v in d.arcs() if picked[label[u]] >> label[v] & 1}
        merged = _merge(d, arcs, frozenset())
        if merged is not None:
            _note(trace, "merge-retry")
            return EulerianSubdigraph(merged)
    return None


def spanning_eulerian_avoiding(
    d: Digraph,
    forbidden: ArcSet | set[Arc] = frozenset(),
    trace: list[str] | None = None,
) -> EulerianSubdigraph | ObstructionPartition | NonStrongCut | None:
    """Spanning eulerian subdigraph of d avoiding the forbidden arcs.

    Returns a certificate, one of two obstruction kinds (a disconnecting
    cut of the allowed arcs, or a partition refuting any factor), or None
    when the search is inconclusive.  Semicomplete d is expected for the
    constructive routes; the factor machinery itself is general.

    Route selection: if the allowed arcs already form a semicomplete
    multipartite digraph the factor-plus-merge decision applies directly;
    with high arc-connectivity relative to the number of forbidden arcs,
    the arcs inside each forbidden cluster are discarded wholesale, which
    also lands in the multipartite case; otherwise factor plus merge runs
    on all the allowed arcs.  Every route retries a stuck merge on relabelled
    factors, and on small inputs an exhaustive search has the last word.

    A certificate or a cut is checked here, a partition where it is
    refined; a failed check raises ``ConstructionError``.
    """
    forbidden = frozenset(forbidden)
    require_arcs(d, forbidden, "forbidden arc")
    got = _avoiding(d, forbidden, trace)
    if isinstance(got, (EulerianSubdigraph, NonStrongCut)):
        bad = got.check(d, forbidden)
        if bad:
            raise ConstructionError(f"{type(got).__name__} failed validation: {bad}")
    return got


def _avoiding(
    d: Digraph, forbidden: ArcSet, trace: list[str] | None
) -> EulerianSubdigraph | ObstructionPartition | NonStrongCut | None:
    """``spanning_eulerian_avoiding`` before its answer is checked."""
    if d.n <= 1:
        return EulerianSubdigraph(frozenset())
    rest = d.remove_arcs(forbidden)
    if not is_strong(rest):
        _, cert = arc_connectivity_certificate(rest)
        assert cert is not None
        _note(trace, "non-strong")
        return NonStrongCut(cert)
    if is_semicomplete_multipartite(rest):
        _note(trace, "multipartite-direct")
    else:
        k = len(forbidden)
        bound = ((k + 1) ** 2 + 3) // 4 + 1
        if k and _arc_strong(d, bound):
            out = d._out  # noqa: SLF001 - package-internal
            drop = [
                (u, v)
                for c in _weak_masks(d.n, forbidden)
                for u in _mask_bits(c)
                for v in _mask_bits(out[u] & c)
            ]
            dstar = d.remove_arcs(drop)
            if is_strong(dstar) and is_semicomplete_multipartite(dstar):
                _note(trace, "multipartite-reduction")
                got = _factor_then_merge(dstar, trace)
                if isinstance(got, EulerianSubdigraph):
                    return got
        _note(trace, "factor-merge")
    got = _factor_then_merge(rest, trace)
    if got is not None:
        return got
    try:
        found = enumerate_spanning_eulerian(d, must_avoid=forbidden, limit=1)
    except PreconditionError:
        return None
    _note(trace, "exhaustive")
    if found:
        return EulerianSubdigraph(found[0])
    return None
