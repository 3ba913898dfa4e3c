"""Per-arc classification: membership in some spanning eulerian
subdigraph, and membership in all of them.

The containment side labels an arc good or bad from the digraph's nice
decomposition and, for good arcs, constructs an explicit witness by one
of two routes.  A flat arc, or any arc of a 2-arc-strong digraph, closes
a spanning trail from its head to its tail.  Every other good arc is
forced together with the backward arcs and completed by a degree-bounded
subgraph and merging (``_completed``); on up to three vertices, where no
decomposition theory applies, that completion alone decides the arc.  The
unavoidability side recognizes the arcs no spanning eulerian subdigraph
can skip, via the cut-arc test and a neighborhood comparison in the
digraph with the arc removed, and hands back either an obstruction
partition or a witness avoiding the arc.

``classify_all`` classifies every arc of a digraph in one pass.  It
checks the preconditions once.  On a 2-arc-strong digraph with at least
four vertices, where the paper puts every arc in some spanning eulerian
subdigraph, it covers the arcs with a few batch witnesses, each forcing
many arcs at once; elsewhere it builds the containment witnesses arc by
arc exactly as ``classify_containment`` does.  It then certifies each
avoidable arc with the first validated witness that misses it: any
spanning eulerian subdigraph without the arc proves it avoidable.  Only
an arc that every witness so far contains costs a fresh
``spanning_eulerian_avoiding`` run, whose result joins the shared list.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .connectivity import (
    CutCertificate,
    _arc_strong,
    arc_connectivity_certificate,
    cut_arcs,
    is_strong,
)
from .decomposition import (
    Decomposition,
    _backward_arcs,
    _backward_ordering,
    ignored_sets,
    nice_decomposition,
)
from .digraph import Arc, Digraph, _row_arcs, is_semicomplete, require_arcs
from .errors import ConstructionError, PreconditionError
from .factor import NonStrongCut, ObstructionPartition, _merge, spanning_eulerian_avoiding
from ._flow import _circulate
from .trails import EulerianSubdigraph, _spanning_trail


@dataclass(frozen=True)
class ArcContainment:
    """Whether an arc lies on some spanning eulerian subdigraph."""

    arc: Arc
    in_some: bool
    obstruction: str | None  # "regular" | "left" | "right" | "small-case"
    witness: EulerianSubdigraph | None


@dataclass(frozen=True)
class ArcUnavoidability:
    """Whether every spanning eulerian subdigraph must use an arc."""

    arc: Arc
    unavoidable: bool
    kind: str | None  # "cut" | "regular" | "left" | "right" | "exceptional"
    cut_certificate: CutCertificate | None
    partition: ObstructionPartition | None
    avoidance_witness: EulerianSubdigraph | None


def _require(d: Digraph, arcs: list[Arc]) -> None:
    if not is_semicomplete(d):
        raise PreconditionError("classification requires a semicomplete digraph")
    if not is_strong(d):
        raise PreconditionError("classification requires a strong digraph")
    require_arcs(d, arcs, "arc")


# ---- containment ----


def _bad_label(d: Digraph, dec: Decomposition, arc: Arc) -> str | None:
    u, v = arc
    tag = dec.arc_tag(arc)
    if tag == "forward":
        skipped = ignored_sets(dec, d)
        if any(
            i in skipped for i in range(dec.position(u) + 1, dec.position(v))
        ):
            return "regular"
    order = _backward_ordering(dec, d)
    if order:
        t_last = order[-1][1]
        if (
            dec.sets[1] == frozenset((u,))
            and dec.sets[0] == frozenset((t_last,))
            and t_last != v
            and not d.has_arc(t_last, u)
        ):
            return "left"
        s_first = order[0][0]
        p = dec.width
        if (
            dec.sets[p - 2] == frozenset((v,))
            and dec.sets[p - 1] == frozenset((s_first,))
            and s_first != u
            and not d.has_arc(v, s_first)
        ):
            return "right"
    return None


def _trail_route_witness(d: Digraph, arc: Arc) -> frozenset[Arc]:
    """The arc closed by a spanning (v,u)-trail."""
    u, v = arc
    trail = _spanning_trail(d, v, u)
    return frozenset(trail.arcs()) | {arc}


def _completed(d: Digraph, forced: set[Arc]) -> frozenset[Arc] | None:
    """Complete the ``forced`` arcs of d to a spanning eulerian subdigraph, or None.

    A degree-bounded subgraph of d's other arcs balances the forced ones
    and passes through every vertex no forced arc touches; ``_merge``
    then joins its pieces without dropping a forced arc (a connected set
    comes back unchanged).  The result is not checked here."""
    n = d.n
    free = list(d._out)  # noqa: SLF001 - package-internal
    # the picked arcs must make up the imbalance the forced arcs leave
    surplus = [0] * n
    lo = [1] * n
    for a, b in forced:
        free[a] &= ~(1 << b)
        surplus[a] -= 1
        surplus[b] += 1
        lo[a] = lo[b] = 0
    picked, _, _ = _circulate(free, lo, [n] * n, surplus)
    if picked is None:
        return None
    return _merge(d, _row_arcs(picked).union(forced), frozenset(forced))


def _forced_flow_witness(
    d: Digraph, dec: Decomposition, arc: Arc
) -> frozenset[Arc] | None:
    """Complete the forced arcs (all backward ones plus this arc) to a
    spanning eulerian subdigraph.

    Forcing the backward arcs loses no witness: in a nice decomposition
    they are exactly the cut arcs, and every spanning eulerian subdigraph
    holds every cut arc, since removing one leaves d without a strong
    spanning subdigraph."""
    forced = set(_backward_arcs(dec, d))
    forced.add(arc)
    return _completed(d, forced)


def classify_containment(d: Digraph, arc: Arc) -> ArcContainment:
    """Decide whether the arc lies on some spanning eulerian subdigraph.

    Good arcs come back with a validated witness; bad arcs carry the
    pattern that blocks them.  Digraphs on up to three vertices have no
    decomposition theory: the arc is good exactly when ``_completed``
    extends it to a spanning eulerian subdigraph, else "small-case".
    """
    _require(d, [arc])
    return _containment(d, arc)


def _containment(d: Digraph, arc: Arc) -> ArcContainment:
    witness_arcs: frozenset[Arc] | None
    if d.n <= 3:
        # exact on this finite class: test_completion_decides_every_arc_up_to_three_vertices
        witness_arcs = _completed(d, {arc})
        if witness_arcs is None:
            return ArcContainment(arc, False, "small-case", None)
    else:
        dec = nice_decomposition(d)
        label = _bad_label(d, dec, arc)
        if label is not None:
            return ArcContainment(arc, False, label, None)
        if dec.arc_tag(arc) == "flat" or _arc_strong(d, 2):
            witness_arcs = _trail_route_witness(d, arc)
        else:
            witness_arcs = _forced_flow_witness(d, dec, arc)
            if witness_arcs is None:
                witness_arcs = _oracle_witness(d, arc)
        if witness_arcs is None:
            raise ConstructionError(f"no witness construction succeeded for {arc}")
    sub = EulerianSubdigraph(witness_arcs)
    bad = sub.check(d)
    if bad or arc not in witness_arcs:
        raise ConstructionError(f"witness for {arc} failed validation: {bad}")
    return ArcContainment(arc, True, None, sub)


def _oracle_witness(d: Digraph, arc: Arc) -> frozenset[Arc] | None:
    from .oracle import enumerate_spanning_eulerian

    try:
        found = enumerate_spanning_eulerian(d, must_contain={arc}, limit=1)
    except PreconditionError:
        return None
    return found[0] if found else None


# ---- unavoidability ----


def taxonomy_labels(d: Digraph, arc: Arc) -> dict[str, bool]:
    """Which of the four structural patterns fit this non-cut arc.

    Keys "regular", "left", "right", "exceptional"; for an unavoidable
    non-cut arc on at least four vertices exactly one should hold.  An
    arc that d lacks raises ``PreconditionError``.
    """
    require_arcs(d, [arc], "arc")
    u, v = arc
    out = {"regular": False, "left": False, "right": False, "exceptional": False}
    if d.n == 4:
        out["exceptional"] = _exceptional_match(d, arc)
    if d.n < 4:
        return out
    dec = nice_decomposition(d)
    p = dec.width
    pu, pv = dec.position(u), dec.position(v)
    skipped = ignored_sets(dec, d)
    if (
        pv == pu + 1
        and 1 <= pu
        and pv <= p - 2
        and dec.sets[pu] == frozenset((u,))
        and dec.sets[pv] == frozenset((v,))
        and pu in skipped
        and pv in skipped
    ):
        out["regular"] = True
    if p >= 3 and all(len(dec.sets[i]) == 1 for i in range(3)):
        v1, v2, v3 = (next(iter(dec.sets[i])) for i in range(3))
        if (
            arc == (v1, v3)
            and d.has_arc(v2, v1)
            and not d.has_arc(v1, v2)
            and not d.has_arc(v3, v2)
            and set(d.in_neighbors(v3)) == {v1, v2}
        ):
            out["left"] = True
    if p >= 3 and all(len(dec.sets[i]) == 1 for i in range(p - 3, p)):
        w1, w2, w3 = (next(iter(dec.sets[i])) for i in range(p - 3, p))
        if (
            arc == (w1, w3)
            and d.has_arc(w3, w2)
            and not d.has_arc(w2, w3)
            and not d.has_arc(w2, w1)
            and set(d.out_neighbors(w1)) == {w2, w3}
        ):
            out["right"] = True
    return out


def _exceptional_match(d: Digraph, arc: Arc) -> bool:
    """The one four-vertex pattern outside the three main families."""
    if d.n != 4:
        return False
    for a, b, c, e in permutations(range(4)):
        required = {(a, b), (b, c), (c, e), (a, e), (c, a), (e, b)}
        optional = {(c, b)}
        arcs = set(d.arcs())
        if required <= arcs and arcs <= required | optional and arc == (a, e):
            return True
    return False


def classify_unavoidable(d: Digraph, arc: Arc) -> ArcUnavoidability:
    """Decide whether every spanning eulerian subdigraph uses the arc.

    Cut arcs are unavoidable outright.  A non-cut arc is unavoidable
    exactly when, after removing it, its two ends have identical
    out-neighborhoods and identical in-neighborhoods, those sets are
    disjoint, and exactly one arc crosses from the out-side to the
    in-side; the crossing partition is returned as the obstruction.
    Avoidable arcs come back with a validated witness avoiding them.
    """
    _require(d, [arc])
    return _unavoidability(d, arc, [])


def _unavoidability(
    d: Digraph, arc: Arc, witnesses: list[EulerianSubdigraph]
) -> ArcUnavoidability:
    """``classify_unavoidable`` on trusted input.  An avoidable arc takes
    the first of the validated spanning eulerian ``witnesses`` that
    misses it; only when none does is a witness built (and validated) by
    ``spanning_eulerian_avoiding`` and appended to the list.  A cut or a
    partition is validated here."""
    u, v = arc
    if arc in cut_arcs(d):
        _, cert = arc_connectivity_certificate(d.remove_arcs([arc]))
        bad = NonStrongCut(cert).check(d, frozenset((arc,)))
        if bad:
            raise ConstructionError(f"cut certificate for {arc} failed validation: {bad}")
        return ArcUnavoidability(arc, True, "cut", cert, None, None)
    if d.n >= 4:
        # the neighbourhoods in d - (u,v): only u's out-row and v's in-row
        # lose a bit, and (u,v) cannot cross, since u lies on neither side
        n_out = d.out_mask(u) & ~(1 << v)
        n_in = d.in_mask(u)
        if (
            n_out == d.out_mask(v)
            and n_in == d.in_mask(v) & ~(1 << u)
            and not n_out & n_in
        ):
            outs = [w for w in range(d.n) if n_out >> w & 1]
            ins = [w for w in range(d.n) if n_in >> w & 1]
            crossing = sum(1 for a in outs for b in ins if d.has_arc(a, b))
            if crossing == 1:
                partition = ObstructionPartition(
                    frozenset(ins), frozenset(outs), frozenset((u, v))
                )
                bad = partition.check(d, frozenset((arc,)))
                if bad:
                    raise ConstructionError(
                        f"unavoidability partition failed validation: {bad}"
                    )
                labels = taxonomy_labels(d, arc)
                kind = next((k for k, hit in labels.items() if hit), None)
                return ArcUnavoidability(arc, True, kind, None, partition, None)
    got = next((w for w in witnesses if arc not in w.arcs), None)
    if got is None:
        got = spanning_eulerian_avoiding(d, frozenset((arc,)))
        if not isinstance(got, EulerianSubdigraph):
            raise ConstructionError(
                f"arc {arc} passed the avoidability tests but no witness was found"
            )
        witnesses.append(got)
    return ArcUnavoidability(arc, False, None, None, None, got)


def unavoidable_arcs(d: Digraph) -> list[Arc]:
    """All arcs that every spanning eulerian subdigraph must use."""
    arcs = list(d.arcs())
    _require(d, arcs)
    witnesses: list[EulerianSubdigraph] = []
    return [a for a in arcs if _unavoidability(d, a, witnesses).unavoidable]


# ---- every arc at once ----


def classify_all(d: Digraph) -> list[tuple[ArcContainment, ArcUnavoidability]]:
    """``classify_containment`` and ``classify_unavoidable`` of every arc,
    in ``d.arcs()`` order, with the preconditions checked once.

    The verdicts and bad patterns are the per-arc ones.  On a 2-arc-strong
    digraph with at least four vertices the containment witnesses come
    from batches (see ``_batch_containment``), so one validated witness
    serves many arcs; elsewhere they are the per-arc ones.  The
    unavoidability verdicts, cut certificates and partitions are the
    per-arc ones too; an avoidable arc's witness is the first containment
    witness, in arc order, that misses it, else the first avoidance
    witness built so far that does, so one witness object may serve many
    rows.
    """
    arcs = list(d.arcs())
    _require(d, arcs)
    contained = None
    if d.n > 3 and _arc_strong(d, 2):
        contained = _batch_containment(d, arcs)
    if contained is None:
        contained = [_containment(d, a) for a in arcs]
    witnesses = list(dict.fromkeys(c.witness for c in contained if c.witness is not None))
    return [(c, _unavoidability(d, c.arc, witnesses)) for c in contained]


def _batch_containment(d: Digraph, arcs: list[Arc]) -> list[ArcContainment] | None:
    """Containment answers for every arc of a 2-arc-strong d, n >= 4, with
    few witnesses; None when some arc carries a bad label, which the paper
    rules out there, so that the per-arc route answers for d.

    Each round forces the uncovered arcs, in arc order, whose tail is not
    yet a forced tail and whose head is not yet a forced head, completes
    them by ``_completed`` and validates the result; every uncovered arc
    it holds takes it as its witness.  When the completion finds nothing
    the first uncovered arc gets its per-arc witness, which covers the
    arcs it holds in the same way.
    """
    dec = nice_decomposition(d)
    if any(_bad_label(d, dec, a) is not None for a in arcs):
        return None
    witness_of: dict[Arc, EulerianSubdigraph] = {}
    uncovered = arcs
    while uncovered:
        forced: set[Arc] = set()
        tails = heads = 0
        for a, b in uncovered:
            if not (tails >> a & 1 or heads >> b & 1):
                forced.add((a, b))
                tails |= 1 << a
                heads |= 1 << b
        got = _completed(d, forced)
        if got is None:
            sub = _containment(d, uncovered[0]).witness
        else:
            sub = EulerianSubdigraph(got)
            bad = sub.check(d)
            if bad or not forced <= got:
                raise ConstructionError(
                    f"batch witness for {sorted(forced)} failed validation: {bad}"
                )
        for a in sub.arcs:
            witness_of.setdefault(a, sub)
        uncovered = [a for a in uncovered if a not in witness_of]
    return [ArcContainment(a, True, None, witness_of[a]) for a in arcs]
