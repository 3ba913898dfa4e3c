"""Constructive hamiltonian path and cycle routines for semicomplete digraphs.

All constructions are insertion-based and deterministic: vertices are
considered in increasing id order and ties break toward the smallest index.
Paths and cycles are returned as vertex sequences; a cycle's closing arc
(last vertex back to first) is implicit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .connectivity import is_strong, shortest_walk, strong_components
from .digraph import Arc, Digraph, is_semicomplete
from .errors import ConstructionError, PreconditionError


@dataclass(frozen=True)
class SubDigraph:
    """A vertex set together with arcs on it (possibly with isolated vertices)."""

    vertices: frozenset[int]
    arcs: frozenset[Arc]

    def __post_init__(self) -> None:
        for u, v in self.arcs:
            if u not in self.vertices or v not in self.vertices:
                raise PreconditionError(f"arc ({u},{v}) leaves the vertex set")


def _require_semicomplete(d: Digraph) -> None:
    if not is_semicomplete(d):
        raise PreconditionError("operation requires a semicomplete digraph")


def hamiltonian_path(d: Digraph) -> list[int]:
    """Hamiltonian path of a semicomplete digraph by vertex insertion."""
    _require_semicomplete(d)
    if d.n == 0:
        raise PreconditionError("hamiltonian_path requires at least one vertex")
    path = [0]
    for v in range(1, d.n):
        if d.has_arc(v, path[0]):
            path.insert(0, v)
            continue
        if d.has_arc(path[-1], v):
            path.append(v)
            continue
        # path[0] -> v and v -> path[-1], so the direction flips somewhere
        for i in range(len(path) - 1):
            if d.has_arc(path[i], v) and d.has_arc(v, path[i + 1]):
                path.insert(i + 1, v)
                break
        else:
            raise ConstructionError("no insertion point in a semicomplete digraph")
    return path


def _shortest_cycle_seed(d: Digraph) -> list[int]:
    """A 2- or 3-cycle of a strong semicomplete digraph (lex-first)."""
    for u in range(d.n):
        for v in d.out_neighbors(u):
            if v > u and d.has_arc(v, u):
                return [u, v]
    for u in range(d.n):
        for v in d.out_neighbors(u):
            for w in d.out_neighbors(v):
                if w != u and d.has_arc(w, u):
                    return [u, v, w]
    raise ConstructionError("strong semicomplete digraph with no short cycle")


def hamiltonian_cycle(d: Digraph) -> list[int]:
    """Hamiltonian cycle of a strong semicomplete digraph (n >= 2).

    Grows a short seed cycle by single-vertex insertion; when no outside
    vertex can be inserted, a domination argument yields an arc from the
    strictly-dominated side to the strictly-dominating side, letting two
    vertices splice in at once.
    """
    _require_semicomplete(d)
    if d.n < 2:
        raise PreconditionError("hamiltonian_cycle requires n >= 2")
    if not is_strong(d):
        raise PreconditionError("hamiltonian_cycle requires a strong digraph")
    cycle = _shortest_cycle_seed(d)
    on = set(cycle)
    while len(cycle) < d.n:
        inserted = False
        for v in range(d.n):
            if v in on:
                continue
            k = len(cycle)
            spot = next(
                (
                    i
                    for i in range(k)
                    if d.has_arc(cycle[i], v) and d.has_arc(v, cycle[(i + 1) % k])
                ),
                None,
            )
            if spot is not None:
                cycle.insert(spot + 1, v)
                on.add(v)
                inserted = True
                break
        if inserted:
            continue
        # every outside vertex either dominates the whole cycle or is
        # dominated by it; strongness forces an arc between the two camps
        outside = [v for v in range(d.n) if v not in on]
        dominated = [v for v in outside if not any(d.has_arc(v, c) for c in cycle)]
        dominating = [v for v in outside if not any(d.has_arc(c, v) for c in cycle)]
        splice = next(
            (
                (w, z)
                for w in dominated
                for z in dominating
                if d.has_arc(w, z)
            ),
            None,
        )
        if splice is None:
            raise ConstructionError("insertion stalled in a strong semicomplete digraph")
        w, z = splice
        cycle[1:1] = [w, z]  # cycle[0] -> w (dominated), z -> cycle[1] (dominating)
        on.update((w, z))
    return cycle


def _out_generator_ok(comps: list[frozenset[int]], x: int) -> bool:
    return x in comps[0]


def _in_generator_ok(comps: list[frozenset[int]], y: int) -> bool:
    return y in comps[-1]


def _component_path(d: Digraph, comp: frozenset[int], start: int | None, end: int | None) -> list[int]:
    """Hamiltonian path of a strong component with optional fixed start or end."""
    sub, ids = d.induced(comp)
    if sub.n == 1:
        return list(ids)
    cyc = hamiltonian_cycle(sub)
    if start is not None:
        i = cyc.index(ids.index(start))
        seq = cyc[i:] + cyc[:i]
    elif end is not None:
        i = cyc.index(ids.index(end))
        seq = cyc[i + 1 :] + cyc[: i + 1]
    else:
        seq = cyc
    return [ids[v] for v in seq]


def path_within(
    d: Digraph,
    vertices,
    start: int | None = None,
    end: int | None = None,
) -> list[int]:
    """Hamiltonian path of a strong induced subdigraph with a fixed start
    or end vertex (at most one of the two)."""
    if start is not None and end is not None:
        raise PreconditionError("fix at most one endpoint")
    return _component_path(d, frozenset(vertices), start, end)


def hamiltonian_path_between(d: Digraph, x: int, y: int | None = None) -> list[int]:
    """Hamiltonian path from x, ending at y when given.

    Preconditions (checked): d semicomplete; x an out-generator; when y is
    given, d must be non-strong and y an in-generator.  Successive strong
    components fully dominate later ones in a semicomplete digraph, so
    per-component paths chain with the bridging arcs always present.
    """
    _require_semicomplete(d)
    if not (0 <= x < d.n):
        raise PreconditionError("x must be a vertex")
    comps = strong_components(d)
    if not _out_generator_ok(comps, x):
        raise PreconditionError("x is not an out-generator (not in the first strong component)")
    if y is None:
        pieces = [_component_path(d, comps[0], x, None)]
        pieces += [_component_path(d, c, None, None) for c in comps[1:]]
    else:
        if not (0 <= y < d.n):
            raise PreconditionError("y must be a vertex")
        if len(comps) == 1:
            raise PreconditionError(
                "a fixed terminal requires a non-strong digraph (y in-generator)"
            )
        if not _in_generator_ok(comps, y):
            raise PreconditionError("y is not an in-generator (not in the last strong component)")
        pieces = [_component_path(d, comps[0], x, None)]
        pieces += [_component_path(d, c, None, None) for c in comps[1:-1]]
        pieces.append(_component_path(d, comps[-1], None, y))
    path: list[int] = []
    for piece in pieces:
        if path and not d.has_arc(path[-1], piece[0]):
            raise ConstructionError("missing bridge arc between strong components")
        path.extend(piece)
    return path


def cycle_covering_complement(d: Digraph, f: SubDigraph, z: int) -> list[int]:
    """A cycle of d avoiding A(f) that covers every vertex outside V(f), plus z.

    Requires d semicomplete, z in V(f), and d minus A(f) strong.  When the
    induced core (V minus V(f), plus z) is strong this is just a hamiltonian
    cycle of the core; otherwise the core's generator ends are bridged by a
    shortest patch path through the rest of the digraph.  The patch may pick
    up extra V(f) vertices; the cycle's arc set always avoids A(f).
    """
    if z not in f.vertices:
        raise PreconditionError("z must belong to the avoided subdigraph's vertex set")
    # adjacency may only be missing at pairs with an endpoint in V(f) - z,
    # since such vertices never enter the core or its bridging path
    for u in range(d.n):
        adj = d.out_mask(u) | d.in_mask(u)
        for v in range(u + 1, d.n):
            if not (adj >> v) & 1:
                if not (
                    (u in f.vertices and u != z) or (v in f.vertices and v != z)
                ):
                    raise PreconditionError(
                        f"vertices {u} and {v} are non-adjacent outside the "
                        "avoided subdigraph"
                    )
    h = d.remove_arcs(f.arcs)
    if not is_strong(h):
        raise PreconditionError("d minus the arcs of f must be strong")
    core = (set(d.vertices()) - set(f.vertices)) | {z}
    if len(core) == 1:
        # degenerate: a shortest cycle through z in h
        cycle = shortest_walk(h.out_neighbors, [z], {z})
        if cycle is None:
            raise ConstructionError("no cycle through z in a strong digraph")
        return cycle[:-1]
    sub, ids = d.induced(core)
    if is_strong(sub):
        return [ids[v] for v in hamiltonian_cycle(sub)]
    comps = strong_components(sub)
    first = {ids[v] for v in comps[0]}
    last = {ids[v] for v in comps[-1]}
    # shortest path in h from the in-generator side back to the out-generator
    # side: it runs from a last-component vertex to a first-component one
    patch = shortest_walk(h.out_neighbors, sorted(last), first)
    if patch is None:
        raise ConstructionError("no patch path despite d minus f-arcs being strong")
    internal = set(patch[1:-1])
    rest = core - internal
    sub2, ids2 = d.induced(rest)
    bridge = hamiltonian_path_between(sub2, ids2.index(patch[-1]), ids2.index(patch[0]))
    return [ids2[v] for v in bridge[:-1]] + patch[:-1]
