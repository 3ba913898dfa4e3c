"""Strong connectivity, cut arcs, arc-connectivity, and Menger certificates.

Strong connectivity runs on a vertex subset given as a bitmask over the
digraph's own rows (``_strong``, ``_components``), so no other module
needs a relabelled copy of a subset; ``is_strong`` and
``strong_components`` are the whole-digraph cases.

The max-flow kernel is a plain BFS-augmenting unit-capacity flow over the
digraph's own arcs, kept as two lists of bitmask rows: ``fwd[u]`` holds
the heads of the arcs out of u that carry flow and ``back[v]`` the tails
of the arcs into v that carry flow.  One residual step from v is then
``((out[v] & ~fwd[v]) | back[v]) & ~reached``.  Pushing flow on (u,v)
while (v,u) carries flow cancels the reverse unit instead of stacking, so
per-arc values stay in {0,1} and 2-cycles need no special case.

``arc_connectivity_certificate`` warm-starts each of its flows: the
direct arc s->t and every two-arc path s->w->t, read off
``out[s] & in[t]``, carry flow before the search augments.  On dense
digraphs these short paths are most of the flow.  The value and the
min-cut side it reads from a maximum flow are the same as from a cold
start, because the vertices reachable from s in the residual graph are
the same for every maximum flow.

Every connectivity condition of the paper is a threshold, so the package
asks ``_arc_strong(d, k)``, a memoised test of λ >= k, and not for λ
itself.  Like λ it needs only the pairs (0,v) and (v,0).  The direct arc
s->t and the two-arc paths s->w->t are arc-disjoint, so when they already
number k the pair needs no flow; otherwise its flow stops at k units.  On
dense digraphs most pairs need no flow at all.

The other modules share two walks from here: ``shortest_walk``, the
package's one breadth-first walk search, on bitmask rows and masks, and
``_row_paths``, which reads paths off flow rows.  Reachability alone is
``_closure``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .digraph import Arc, Digraph, _mask_bits, _mask_of
from .errors import ConstructionError, PreconditionError


@dataclass(frozen=True)
class CutCertificate:
    """Witness that fewer than the requested number of arc-disjoint paths exist.

    ``side_s`` contains the source side, ``side_t`` the rest; ``crossing_arcs``
    is exactly the set of arcs from S to T.
    """

    side_s: frozenset[int]
    side_t: frozenset[int]
    crossing_arcs: frozenset[Arc]

    def check(self, d: Digraph, ignore: frozenset[Arc] = frozenset()) -> list[str]:
        """Violation report against a digraph whose ``ignore`` arcs count
        as absent; empty means the sides partition the vertices and the
        crossing arcs are exactly the remaining arcs from S to T."""
        n, out = d.n, d._out  # noqa: SLF001 - package-internal
        # range-checked first: a mask cannot hold an id below 0
        if not all(0 <= v < n for side in (self.side_s, self.side_t) for v in side):
            return ["sides do not partition the vertices"]
        s, t = _mask_of(self.side_s), _mask_of(self.side_t)
        if s & t or s | t != (1 << n) - 1 or not s or not t:
            return ["sides do not partition the vertices"]
        crossing = {(u, v) for u in _mask_bits(s) for v in _mask_bits(out[u] & t)}
        if ignore:
            crossing.difference_update(ignore)
        if crossing != self.crossing_arcs:
            return ["crossing arcs do not match the digraph"]
        return []


def _closure(rows: Sequence[int], start: int, within: int = -1) -> int:
    """Mask of vertices reachable from ``start`` along ``rows`` adjacency
    without leaving the ``within`` mask (every vertex by default)."""
    seen = 1 << start
    frontier = seen
    while frontier:
        nxt = 0
        while frontier:  # _mask_bits inlined: this runs under every strongness test
            low = frontier & -frontier
            nxt |= rows[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & within & ~seen
        seen |= frontier
    return seen


def _strong(d: Digraph, within: int) -> bool:
    """True iff the vertices of ``within`` induce a strong subdigraph of d
    (at most one vertex counts as strong)."""
    if not within:
        return True
    v = (within & -within).bit_length() - 1
    return (
        _closure(d._out, v, within) == within  # noqa: SLF001 - package-internal
        and _closure(d._in, v, within) == within  # noqa: SLF001
    )


def is_strong(d: Digraph) -> bool:
    """True iff every ordered pair is joined by a path (n <= 1 counts as strong)."""
    return _strong(d, (1 << d.n) - 1)


def _components(d: Digraph, within: int) -> list[int]:
    """Strong components of the subdigraph induced by ``within``, as masks,
    in ``strong_components`` order.

    The component of the smallest vertex v not yet placed is the set of
    unplaced vertices that v reaches and that reach v; every path between
    two of them stays inside what v reaches, so the backward search need
    look no further.  The order then takes, again and again, the first
    component by smallest vertex that no remaining component has an arc
    into.
    """
    out, into = d._out, d._in  # noqa: SLF001 - package-internal
    found = []  # (component, tails of its entering arcs), by smallest vertex
    left = within
    while left:
        v = (left & -left).bit_length() - 1
        comp = _closure(into, v, _closure(out, v, left))
        tails = 0
        for w in _mask_bits(comp):
            tails |= into[w]
        found.append((comp, tails & ~comp))
        left &= ~comp
    order: list[int] = []
    left = within
    while found:
        comp, _ = found.pop(next(i for i, (_, tails) in enumerate(found) if not tails & left))
        left &= ~comp
        order.append(comp)
    return order


def strong_components(d: Digraph) -> list[frozenset[int]]:
    """Strongly connected components in an acyclic order.

    No arc runs from a later component to an earlier one.  Ties between
    incomparable components are broken by smallest contained vertex id, so
    the output is deterministic.
    """
    return [frozenset(_mask_bits(c)) for c in _components(d, (1 << d.n) - 1)]


@lru_cache(maxsize=1024)
def cut_arcs(d: Digraph) -> frozenset[Arc]:
    """Arcs whose single removal breaks strongness.  Requires a strong input.

    A 2-arc-strong digraph has none, which the memoised threshold test
    ``_arc_strong(d, 2)`` tells at once; only ``analyze`` and the public
    API compute λ itself.  Otherwise an arc (u,v) is a cut arc iff v is
    unreachable from u once the arc itself is dropped: any other broken
    pair could reroute through a surviving u-to-v path.  A two-arc detour
    u->w->v, read off ``out[u] & in[v]``, settles that without a search;
    otherwise one ``_closure`` from u on the rows with (u,v) cleared does.
    """
    if not is_strong(d):
        raise PreconditionError("cut_arcs requires a strong digraph")
    if _arc_strong(d, 2):
        return frozenset()
    out, into = d._out, d._in  # noqa: SLF001
    rows = list(out)
    result: set[Arc] = set()
    for u, v in d.arcs():
        if out[u] & into[v]:
            continue
        rows[u] = out[u] & ~(1 << v)
        if not _closure(rows, u) >> v & 1:
            result.add((u, v))
        rows[u] = out[u]
    return frozenset(result)


# ---- walks ----


def shortest_walk(
    rows: Sequence[int], sources: int, targets: int, within: int = -1
) -> list[int] | None:
    """Shortest walk of at least one arc from a source to a target.

    Bit v of ``rows[u]`` is the arc (u,v); ``sources`` and ``targets``
    are vertex masks, and every vertex after the first must lie in the
    ``within`` mask (every vertex by default).  Breadth-first search that
    takes the smallest source first and tries heads in ascending order,
    so ties break the same way on every run.  A source that is also a
    target is reached only by a cycle.  Returns the walk's vertices, or
    None when no target is reachable.
    """
    parent = [-1] * len(rows)
    seen = sources
    queue = list(_mask_bits(sources))
    for v in queue:  # the queue grows while it is read
        row = rows[v] & within
        hit = row & targets
        if hit:
            walk = [(hit & -hit).bit_length() - 1]
            while v != -1:
                walk.append(v)
                v = parent[v]
            walk.reverse()
            return walk
        step = row & ~seen
        seen |= step
        while step:
            low = step & -step
            w = low.bit_length() - 1
            parent[w] = v
            queue.append(w)
            step ^= low
    return None


def _row_paths(fwd: Sequence[int], x: int, y: int, k: int) -> list[list[int]]:
    """k simple (x,y)-paths read off flow rows: bit v of ``fwd[u]`` marks a flow arc (u,v).

    Each walk leaves x and takes the unused arc with the smallest head
    until it reaches y; when it returns to a vertex, the cycle in between
    is spliced out.  Raises ConstructionError when a walk stops short of y.
    """
    rows = list(fwd)
    paths: list[list[int]] = []
    for _ in range(k):
        path = [x]
        pos = {x: 0}
        v = x
        while v != y:
            row = rows[v]
            if not row:
                raise ConstructionError(f"flow walk stopped at {v}, short of {y}")
            low = row & -row
            rows[v] = row ^ low
            v = low.bit_length() - 1
            if v in pos:
                for gone in path[pos[v] + 1 :]:
                    del pos[gone]
                del path[pos[v] + 1 :]
            else:
                pos[v] = len(path)
                path.append(v)
        paths.append(path)
    return paths


# ---- unit-capacity max flow ----


def _max_flow(
    d: Digraph, s: int, t: int, limit: int | None = None, *, warm: bool = False
) -> tuple[int, list[int], int]:
    """BFS-augmenting unit-capacity flow from s to t.

    Returns (value, flow rows, residual-reachable mask from s); bit v of
    row u is set iff arc (u,v) carries flow.  Stops once the value reaches
    ``limit``, and then returns the mask 0: no caller reads a cut side
    unless the value fell below the limit.  With ``warm`` the flow starts from the direct
    arc s->t and the paths s->w->t in ascending w, at most ``limit`` units
    in all, before the search augments; the value and, after a maximum
    flow, the mask are the same as without it, the flow rows may not be.
    """
    out = d._out  # noqa: SLF001 - package-internal
    fwd = [0] * d.n  # fwd[u] bit v: arc (u,v) carries flow
    back = [0] * d.n  # back[v] bit u: arc (u,v) carries flow
    value = 0
    if warm:
        room = d.n if limit is None else limit  # no flow exceeds n - 1
        if room and out[s] >> t & 1:
            fwd[s] |= 1 << t
            back[t] |= 1 << s
            value = 1
        middles = out[s] & d._in[t]  # noqa: SLF001
        while middles and value < room:
            low = middles & -middles
            w = low.bit_length() - 1
            fwd[s] |= low
            back[w] |= 1 << s
            fwd[w] |= 1 << t
            back[t] |= low
            value += 1
            middles ^= low
    while limit is None or value < limit:
        parent = [-1] * d.n
        reached = 1 << s
        frontier = [s]
        while frontier and not reached >> t & 1:
            nxt: list[int] = []
            for v in frontier:
                step = ((out[v] & ~fwd[v]) | back[v]) & ~reached
                reached |= step
                if step >> t & 1:  # every parent is set at discovery, so stop here
                    parent[t] = v
                    break
                while step:  # _mask_bits inlined: this is the hot loop
                    low = step & -step
                    w = low.bit_length() - 1
                    parent[w] = v
                    nxt.append(w)
                    step ^= low
            frontier = nxt
        if not reached >> t & 1:
            return value, fwd, reached
        v = t
        while v != s:
            u = parent[v]
            if back[u] >> v & 1:  # cancel the reverse unit on (v,u)
                fwd[v] &= ~(1 << u)
                back[u] &= ~(1 << v)
            else:
                fwd[u] |= 1 << v
                back[v] |= 1 << u
            v = u
        value += 1
    return value, fwd, 0


def _certificate_from_mask(d: Digraph, reached: int) -> CutCertificate:
    out = d._out  # noqa: SLF001 - package-internal
    rest = ((1 << d.n) - 1) & ~reached
    crossing = frozenset(
        (u, v) for u in _mask_bits(reached) for v in _mask_bits(out[u] & rest)
    )
    side_s, side_t = frozenset(_mask_bits(reached)), frozenset(_mask_bits(rest))
    return CutCertificate(side_s, side_t, crossing)


@lru_cache(maxsize=1024)
def _arc_strong(d: Digraph, k: int) -> bool:
    """Whether d is k-arc-strong (λ >= k), without computing λ.

    True for k <= 0; False when n <= 1, by λ's convention.  From k = 2 on
    each pair (0,v), (v,0) first counts the direct arc and the two-arc
    paths s->w->t, which are arc-disjoint, and runs a flow limited to k
    units only when they number fewer than k.
    """
    if k <= 0:
        return True
    if d.n <= 1:
        return False
    if k == 1:
        return _strong(d, (1 << d.n) - 1)
    out, into = d._out, d._in  # noqa: SLF001 - package-internal
    for v in range(1, d.n):
        for s, t in ((0, v), (v, 0)):
            if (out[s] >> t & 1) + (out[s] & into[t]).bit_count() >= k:
                continue
            if _max_flow(d, s, t, limit=k, warm=True)[0] < k:
                return False
    return True


@lru_cache(maxsize=1024)
def arc_connectivity(d: Digraph) -> int:
    """The largest k such that removing any k-1 arcs leaves d strong.

    0 for non-strong digraphs and, by documented convention, when n <= 1.
    Only ``analyze`` and the public API compute λ; the package's own
    threshold conditions ask ``_arc_strong`` instead.
    """
    value, _ = arc_connectivity_certificate(d)
    return value


def arc_connectivity_certificate(d: Digraph) -> tuple[int, CutCertificate | None]:
    """Arc-connectivity together with a minimum cut certificate (None if n <= 1)."""
    if d.n <= 1:
        return 0, None
    best: int | None = None
    best_mask = 0
    for v in range(1, d.n):
        for s, t in ((0, v), (v, 0)):
            val, _, reached = _max_flow(d, s, t, limit=best, warm=True)
            if best is None or val < best:
                best = val
                best_mask = reached
                if best == 0:
                    return 0, _certificate_from_mask(d, best_mask)
    assert best is not None
    return best, _certificate_from_mask(d, best_mask)


def arc_disjoint_paths(
    d: Digraph, x: int, y: int, k: int
) -> list[list[int]] | CutCertificate:
    """k pairwise arc-disjoint simple (x,y)-paths, or a cut with < k crossing arcs.

    Paths are vertex sequences.  ``k = 0`` returns an empty list.  A cut
    is checked before it is returned: it must separate x from y in d
    with fewer than k crossing arcs, or ``ConstructionError`` is raised.
    """
    if not (0 <= x < d.n and 0 <= y < d.n):
        raise PreconditionError("x and y must be vertices of d")
    if x == y:
        raise PreconditionError("arc_disjoint_paths requires x != y")
    if k < 0:
        raise PreconditionError("k must be non-negative")
    if k == 0:
        return []
    value, fwd, reached = _max_flow(d, x, y, limit=k)
    if value < k:
        cert = _certificate_from_mask(d, reached)
        if (
            cert.check(d)
            or x not in cert.side_s
            or y not in cert.side_t
            or len(cert.crossing_arcs) >= k
        ):
            raise ConstructionError(f"cut certificate does not refute {k} paths {x}->{y}")
        return cert
    return _row_paths(fwd, x, y, k)
