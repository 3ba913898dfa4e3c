"""Ordered decompositions of strong semicomplete digraphs.

A decomposition is an ordered partition of the vertices into sets, each
inducing a strong subdigraph.  Relative to the order, an arc is *forward*
(earlier set to later), *flat* (inside one set) or *backward*.  The
constructions here arrange the partition so that backward arcs coincide
with the digraph's cut arcs, which is the scaffolding the witness
constructions are built on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .connectivity import _max_flow, _strong, cut_arcs, is_strong, strong_components
from .digraph import Arc, Digraph, _mask_of, is_semicomplete
from .errors import ConstructionError, PreconditionError


@dataclass(frozen=True)
class Decomposition:
    """An ordered partition into strong sets, positions counted from 0."""

    sets: tuple[frozenset[int], ...]
    _pos: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pos = {v: i for i, s in enumerate(self.sets) for v in s}
        object.__setattr__(self, "_pos", pos)

    @property
    def width(self) -> int:
        return len(self.sets)

    def position(self, v: int) -> int:
        try:
            return self._pos[v]
        except KeyError:
            raise PreconditionError(f"vertex {v} is not covered by the decomposition")

    def arc_tag(self, arc: Arc) -> str:
        """'forward', 'flat' or 'backward' relative to the set order."""
        i, j = self.position(arc[0]), self.position(arc[1])
        if i < j:
            return "forward"
        if i == j:
            return "flat"
        return "backward"

    def backward_arcs(self, d: Digraph) -> list[Arc]:
        """The arcs of d that run backward, in ``d.arcs()`` order."""
        return list(_backward_arcs(self, d))


@lru_cache(maxsize=1024)
def _backward_arcs(dec: Decomposition, d: Digraph) -> tuple[Arc, ...]:
    return tuple(a for a in d.arcs() if dec.arc_tag(a) == "backward")


def one_decomposition(d: Digraph) -> Decomposition:
    """Ordered partition whose backward arcs are exactly cut arcs, never flat.

    Built as the strong components of d minus its cut arcs, in topological
    order.  Any arc running against that order was removed, so backward
    arcs are cut arcs; a flat cut arc is impossible because the strong
    remainder inside its set would provide a detour around it.
    """
    if not is_semicomplete(d):
        raise PreconditionError("decompositions require a semicomplete digraph")
    if not is_strong(d):
        raise PreconditionError("decompositions require a strong digraph")
    cut = cut_arcs(d)
    remainder = d.remove_arcs(cut) if cut else d
    return Decomposition(tuple(strong_components(remainder)))


@lru_cache(maxsize=1024)
def nice_decomposition(d: Digraph) -> Decomposition:
    """Decomposition whose backward arcs are exactly the cut arcs (n >= 4).

    Starts from ``one_decomposition`` and repeatedly swaps the two adjacent
    singleton sets around a forward cut arc, taking the forward cut arc of
    smallest tail position each round.  A swap only retags the arcs between
    the swapped pair, so each round retires one forward cut arc for good;
    the iteration cap is a defensive bound.
    """
    if d.n < 4:
        raise PreconditionError("nice decompositions require at least 4 vertices")
    dec = one_decomposition(d)
    cut = set(cut_arcs(d))
    sets = list(dec.sets)
    for _ in range(d.m + 4):
        pos = {v: i for i, s in enumerate(sets) for v in s}
        forward_cut = sorted(
            (a for a in cut if pos[a[0]] < pos[a[1]]), key=lambda a: pos[a[0]]
        )
        if not forward_cut:
            return Decomposition(tuple(sets))
        u, v = forward_cut[0]
        i, j = pos[u], pos[v]
        if sets[i] != frozenset((u,)) or sets[j] != frozenset((v,)) or j != i + 1:
            raise ConstructionError(
                f"forward cut arc ({u},{v}) is not flanked by adjacent singleton sets"
            )
        sets[i], sets[j] = sets[j], sets[i]
    raise ConstructionError("forward cut arcs did not settle within the swap budget")


@lru_cache(maxsize=1024)
def _backward_ordering(dec: Decomposition, d: Digraph) -> tuple[Arc, ...]:
    backward = dec.backward_arcs(d)
    tails = [dec.position(a[0]) for a in backward]
    if len(set(tails)) != len(tails):
        raise PreconditionError("backward arcs share a tail position")
    return tuple(sorted(backward, key=lambda a: -dec.position(a[0])))


def natural_backward_ordering(dec: Decomposition, d: Digraph) -> list[Arc]:
    """Backward arcs ordered by strictly decreasing tail position.

    For a nice decomposition the backward arcs have pairwise distinct tail
    positions (and head positions), so the order is unique; coinciding
    tails raise ``PreconditionError``.
    """
    return list(_backward_ordering(dec, d))


@lru_cache(maxsize=1024)
def ignored_sets(dec: Decomposition, d: Digraph) -> frozenset[int]:
    """Positions of the sets skipped by every backward arc's working zone.

    Each backward arc, taken in the natural order, shields an open interval
    of positions: from the tail position of the next backward arc (or the
    first position for the last arc) up to the head position of the
    previous one (or the last position for the first arc).  A set strictly
    inside any such interval is ignored.  Memoised per (dec, d).
    """
    order = _backward_ordering(dec, d)
    r = len(order)
    p = dec.width
    out: set[int] = set()
    for j in range(r):
        lower = dec.position(order[j + 1][0]) if j + 1 < r else 0
        upper = dec.position(order[j - 1][1]) if j > 0 else p - 1
        out.update(range(lower + 1, upper))
    return frozenset(out)


def verify_structure(dec: Decomposition, d: Digraph) -> list[str]:
    """Structural soundness report for a decomposition; empty means clean.

    Checks that the sets partition the vertices and induce strong
    subdigraphs, that backward arcs are cut arcs and cut arcs are never
    flat, the tail/head position patterns of the cut arcs, and (for a
    decomposition free of forward cut arcs) the interleaving layout of the
    backward arcs.
    """
    issues: list[str] = []
    covered: set[int] = set()
    for s in dec.sets:
        if covered & s:
            issues.append("sets overlap")
        covered |= s
    if covered != set(d.vertices()):
        issues.append("sets do not cover the vertex set")
        return issues
    for i, s in enumerate(dec.sets):
        if not _strong(d, _mask_of(s)):
            issues.append(f"set {i} does not induce a strong subdigraph")
    if not is_strong(d):
        issues.append("digraph not strong")
        return issues
    cut = set(cut_arcs(d))
    backward = dec.backward_arcs(d)
    for a in backward:
        if a not in cut:
            issues.append(f"backward arc {a} is not a cut arc")
    for a in cut:
        if dec.arc_tag(a) == "flat":
            issues.append(f"cut arc {a} is flat")
    tails = [dec.position(a[0]) for a in cut]
    heads = [dec.position(a[1]) for a in cut]
    if len(set(tails)) != len(tails):
        issues.append("two cut arcs share a tail position")
    if len(set(heads)) != len(heads):
        issues.append("two cut arcs share a head position")
    spans = [(dec.position(a[1]), dec.position(a[0]), a) for a in backward]
    for lo1, hi1, a1 in spans:
        for lo2, hi2, a2 in spans:
            if a1 >= a2 or (lo1, hi1) == (lo2, hi2):
                continue
            if (lo1 <= lo2 and hi2 <= hi1) or (lo2 <= lo1 and hi1 <= hi2):
                issues.append(f"backward arcs {a1} and {a2} nest")
    forward_cut = [a for a in cut if dec.arc_tag(a) == "forward"]
    for u, v in forward_cut:
        i, j = dec.position(u), dec.position(v)
        if len(dec.sets[i]) != 1 or len(dec.sets[j]) != 1 or j != i + 1:
            issues.append(f"forward cut arc ({u},{v}) lacks adjacent singleton sets")
    if forward_cut:
        return issues
    # nice layout: interleaving of the naturally ordered backward arcs
    try:
        order = natural_backward_ordering(dec, d)
    except PreconditionError:
        return issues
    r = len(order)
    if r:
        p = dec.width
        s1, tr = order[0][0], order[-1][1]
        if dec.position(s1) != p - 1:
            issues.append("first backward tail is not in the last set")
        if dec.position(tr) != 0:
            issues.append("last backward head is not in the first set")
    for j in range(r - 1):
        s_j, t_j = order[j]
        s_n, t_n = order[j + 1]
        if not (
            dec.position(t_n) < dec.position(t_j)
            <= dec.position(s_n) < dec.position(s_j)
        ):
            issues.append(f"backward arcs {order[j]} and {order[j+1]} misinterleave")
        if j + 2 < r and not (
            dec.position(t_n) <= dec.position(order[j + 2][0]) < dec.position(t_j)
        ):
            issues.append(
                f"backward tail of {order[j+2]} falls outside heads of "
                f"{order[j+1]} and {order[j]}"
            )
    for j in range(r - 1):
        t_j = order[j][1]
        s_n = order[j + 1][0]
        i = dec.position(t_j)
        if i == dec.position(s_n) and t_j != s_n:
            sub, ids = d.induced(dec.sets[i])
            if _max_flow(sub, ids.index(t_j), ids.index(s_n), limit=2)[0] < 2:
                issues.append(
                    f"no two arc-disjoint routes from {t_j} to {s_n} inside set {i}"
                )
    return issues
