"""Constructive hamiltonian path and cycle routines for semicomplete digraphs.

All constructions are insertion-based and deterministic: vertices are
considered in increasing id order and ties break toward the smallest index.
Paths and cycles are returned as vertex sequences; a cycle's closing arc
(last vertex back to first) is implicit.

The constructions run on a vertex subset given as a bitmask over the
parent digraph's rows, in the parent's vertex ids, and trust their
caller to hold a semicomplete (where needed, strong) subset.  Only
``hamiltonian_cycle``, the one public function, checks that; the trail
ladder, which already holds such a subset, calls the internals.

The hamiltonian cycle of a vertex set is memoised by ``_cached_cycle``,
an ``lru_cache`` keyed by (digraph, vertex mask), so the trail ladder
builds each one once over all the vertex pairs of a digraph.  Callers
hand out fresh lists of it.
"""

from __future__ import annotations

from functools import lru_cache

from .connectivity import _components, _strong, shortest_walk
from .digraph import Digraph, _mask_bits, _mask_of, is_semicomplete
from .errors import ConstructionError, PreconditionError


def _shortest_cycle_seed(d: Digraph, within: int) -> list[int]:
    """A 2- or 3-cycle of a strong semicomplete set (lex-first)."""
    out, into = d._out, d._in  # noqa: SLF001 - package-internal
    for u in _mask_bits(within):
        later = out[u] & into[u] & within & ~((2 << u) - 1)
        if later:
            return [u, (later & -later).bit_length() - 1]
    for u in _mask_bits(within):
        for v in _mask_bits(out[u] & within):
            back = out[v] & into[u] & within
            if back:
                return [u, v, (back & -back).bit_length() - 1]
    raise ConstructionError("strong semicomplete digraph with no short cycle")


def _cycle(d: Digraph, within: int) -> list[int]:
    """Hamiltonian cycle of the strong semicomplete subdigraph that the
    ``within`` mask (two or more vertices) induces, on d's vertex ids.

    Grows a short seed cycle by single-vertex insertion; when no outside
    vertex can be inserted, a domination argument yields an arc from the
    strictly-dominated side to the strictly-dominating side, letting two
    vertices splice in at once.
    """
    out, into = d._out, d._in  # noqa: SLF001 - package-internal
    cycle = _shortest_cycle_seed(d, within)
    on = _mask_of(cycle)
    while on != within:
        for v in _mask_bits(within & ~on):
            a, b = into[v], out[v]
            if not (a & on and b & on):
                continue  # v dominates the cycle or is dominated by it: no spot
            k = len(cycle)
            spot = next(
                (i for i in range(k) if a >> cycle[i] & 1 and b >> cycle[(i + 1) % k] & 1),
                None,
            )
            if spot is not None:
                cycle.insert(spot + 1, v)
                on |= 1 << v
                break
        else:
            # every outside vertex either dominates the whole cycle or is
            # dominated by it; strongness forces an arc between the two camps
            outside = within & ~on
            dominating = _mask_of(v for v in _mask_bits(outside) if not into[v] & on)
            w = next(
                (
                    w
                    for w in _mask_bits(outside)
                    if not out[w] & on and out[w] & dominating
                ),
                None,
            )
            if w is None:
                raise ConstructionError("insertion stalled in a strong semicomplete digraph")
            heads = out[w] & dominating
            z = (heads & -heads).bit_length() - 1
            cycle[1:1] = [w, z]  # cycle[0] -> w (dominated), z -> cycle[1] (dominating)
            on |= 1 << w | 1 << z
    return cycle


@lru_cache(maxsize=1024)
def _cached_cycle(d: Digraph, within: int) -> tuple[int, ...] | None:
    """``_cycle`` of the semicomplete set ``within`` (two or more
    vertices), or None when the set does not induce a strong subdigraph.
    The tuple is shared by every caller, so none may change it."""
    if not _strong(d, within):
        return None
    return tuple(_cycle(d, within))


def hamiltonian_cycle(d: Digraph) -> list[int]:
    """Hamiltonian cycle of a strong semicomplete digraph (n >= 2)."""
    if not is_semicomplete(d):
        raise PreconditionError("hamiltonian_cycle requires a semicomplete digraph")
    if d.n < 2:
        raise PreconditionError("hamiltonian_cycle requires n >= 2")
    cycle = _cached_cycle(d, (1 << d.n) - 1)
    if cycle is None:
        raise PreconditionError("hamiltonian_cycle requires a strong digraph")
    return list(cycle)


def _component_path(
    d: Digraph, comp: int, start: int | None = None, end: int | None = None
) -> list[int]:
    """Hamiltonian path of a strong semicomplete set with optional fixed
    start or end vertex."""
    if comp & (comp - 1) == 0:
        return [comp.bit_length() - 1]
    cyc = list(_cached_cycle(d, comp))
    if start is not None:
        i = cyc.index(start)
        return cyc[i:] + cyc[:i]
    if end is not None:
        i = cyc.index(end)
        return cyc[i + 1 :] + cyc[: i + 1]
    return cyc


def _path_between(d: Digraph, within: int, x: int, y: int | None = None) -> list[int]:
    """Hamiltonian path of the semicomplete subdigraph that ``within``
    induces, from x and, when y is given, to y, on d's vertex ids.

    Successive strong components fully dominate later ones in a
    semicomplete digraph, so per-component paths chain with the bridging
    arcs always present.  Raises ``PreconditionError`` unless x lies in
    the first strong component and, when y is given, the set is not
    strong and y lies in its last strong component.
    """
    comps = _components(d, within)
    if not comps[0] >> x & 1:
        raise PreconditionError("x is not an out-generator (not in the first strong component)")
    if y is not None:
        if len(comps) == 1:
            raise PreconditionError(
                "a fixed terminal requires a non-strong digraph (y in-generator)"
            )
        if not comps[-1] >> y & 1:
            raise PreconditionError("y is not an in-generator (not in the last strong component)")
    path: list[int] = []
    for i, comp in enumerate(comps):
        piece = _component_path(
            d, comp, x if i == 0 else None, y if i == len(comps) - 1 else None
        )
        if path and not d.has_arc(path[-1], piece[0]):
            raise ConstructionError("missing bridge arc between strong components")
        path.extend(piece)
    return path


def _covering_cycle(d: Digraph, h: Digraph, core: int) -> list[int]:
    """A cycle of h that covers every vertex of ``core``, for an avoided
    subdigraph f and a vertex z of it: ``core`` is the mask of the
    vertices outside V(f) plus z, h is d minus A(f) and strong, and every
    two core vertices are adjacent (the caller holds all three).

    When the induced core is strong this is just a hamiltonian cycle of
    the core; otherwise the core's generator ends are bridged by the
    shortest patch path through h, ``shortest_walk`` on h's rows from the
    core's last strong component to its first, which may pick up vertices
    of V(f).  Either way the cycle's arc set avoids A(f).  Of d only the
    arcs inside the core are read, so any digraph with those arcs serves
    as d."""
    if core & (core - 1) == 0:
        # degenerate: a shortest cycle through z in h
        cycle = shortest_walk(h._out, core, core)  # noqa: SLF001 - package-internal
        if cycle is None:
            raise ConstructionError("no cycle through z in a strong digraph")
        return cycle[:-1]
    cycle = _cached_cycle(d, core)
    if cycle is not None:
        return list(cycle)
    comps = _components(d, core)
    # shortest path in h from the in-generator side back to the out-generator
    # side: it runs from a last-component vertex to a first-component one
    patch = shortest_walk(h._out, comps[-1], comps[0])  # noqa: SLF001
    if patch is None:
        raise ConstructionError("no patch path despite d minus f-arcs being strong")
    rest = core & ~_mask_of(patch[1:-1])
    bridge = _path_between(d, rest, patch[-1], patch[0])
    return bridge[:-1] + patch[:-1]
