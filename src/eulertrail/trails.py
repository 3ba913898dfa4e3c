"""Spanning trails between prescribed endpoints in semicomplete digraphs.

The central routine, ``spanning_trail``, turns two arc-disjoint (x,y)-paths
into a spanning (x,y)-trail that avoids the arc yx and leaves every vertex
at most twice (the terminal y at most once).  Any two such paths serve,
so the pair is read off the unit-capacity flow ``connectivity._max_flow``
that also decides whether it exists; a caller that has run that flow
hands its paths over (``paths``), so it runs once per pair.  The
construction runs a case ladder over how the digraph decomposes once the
shorter path's arcs are removed.  Every rung hands its candidate over as
bitmask out-rows (bit v of ``rows[u]`` is the arc (u,v)), and one pass
over the rows checks them against the digraph and that promise before
one Hierholzer walk orders them into the trail; a rejected candidate
falls through to the next strategy, ending with a completion via
circulation and finally a brute-force search on small inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .connectivity import (
    _arc_strong,
    _certificate_from_mask,
    _closure,
    _components,
    _max_flow,
    _row_paths,
    is_strong,
)
from .digraph import Arc, Digraph, _mask_bits, _mask_of, _rows_of, is_semicomplete
from .errors import ConstructionError, PreconditionError
from .hamilton import _cached_cycle, _covering_cycle, _cycle, _path_between
from ._flow import _circulate

@dataclass(frozen=True)
class Trail:
    """An open trail as a vertex sequence; consecutive arcs are distinct."""

    vertices: tuple[int, ...]

    @property
    def start(self) -> int:
        return self.vertices[0]

    @property
    def end(self) -> int:
        return self.vertices[-1]

    def arcs(self) -> list[Arc]:
        return [
            (self.vertices[i], self.vertices[i + 1])
            for i in range(len(self.vertices) - 1)
        ]

    def check(self, d: Digraph, x: int, y: int) -> list[str]:
        """Violation report for a claimed spanning (x,y)-trail of d; empty
        means valid."""
        issues: list[str] = []
        seq = self.vertices
        if not seq or seq[0] != x or seq[-1] != y:
            issues.append("endpoints do not match")
        arcs = self.arcs()
        for u, v in arcs:
            # an end outside 0..n-1 is no vertex, and has_arc cannot read it
            if not (0 <= u < d.n and 0 <= v < d.n and d.has_arc(u, v)):
                issues.append(f"arc {(u, v)} is not in the digraph")
        if len(set(arcs)) != len(arcs):
            issues.append("an arc repeats")
        if set(seq) != set(d.vertices()):
            issues.append("trail does not cover every vertex")
        return issues


@dataclass(frozen=True)
class EulerianSubdigraph:
    """A set of arcs balanced at every vertex and weakly connected."""

    arcs: frozenset[Arc]

    def vertices(self) -> frozenset[int]:
        return frozenset(v for a in self.arcs for v in a)

    def check(self, d: Digraph, avoid: frozenset[Arc] = frozenset()) -> list[str]:
        """Violation report for a claimed spanning eulerian subdigraph of d
        whose ``avoid`` arcs count as absent; empty means valid.  A lone
        vertex is connected and balanced, so with n <= 1 the empty arc set
        is eulerian; from two vertices on every vertex must be covered."""
        issues, near = _degree_issues(d, self.arcs, avoid)
        # every vertex is covered here, so one weak component means that
        # vertex 0 reaches them all
        if not issues and d.n and _closure(near, 0) != (1 << d.n) - 1:
            issues.append("arc set is not connected")
        return issues


def _degree_issues(
    d: Digraph, arcs: frozenset[Arc], avoid: frozenset[Arc]
) -> tuple[list[str], list[int]]:
    """Violation report for arcs claimed to be a spanning closed arc set of
    d whose ``avoid`` arcs count as absent: every arc must lie in d and not
    be avoided, and every vertex must be balanced and, from two vertices
    on, covered.  Also returns the undirected bitmask rows of the arcs."""
    issues: list[str] = []
    n, out = d.n, d._out  # noqa: SLF001 - package-internal
    outs = [0] * n
    ins = [0] * n
    near = [0] * n
    for u, v in arcs:
        # an end outside 0..n-1 is no vertex, though a negative one
        # would index these rows from the end
        if not (0 <= u < n and 0 <= v < n and out[u] >> v & 1):
            return [f"arc ({u},{v}) is not in the digraph"], near
        outs[u] += 1
        ins[v] += 1
        near[u] |= 1 << v
        near[v] |= 1 << u
    if not arcs.isdisjoint(avoid):
        issues.append("uses an avoided arc")
    for v in range(n):
        if outs[v] != ins[v]:
            issues.append(f"vertex {v} is unbalanced")
        if outs[v] == 0 and n >= 2:
            issues.append(f"vertex {v} is not covered")
    return issues, near


# ---- arc-set utilities ----


def _trail_walk(rows: list[int], m: int, x: int, y: int) -> list[int] | None:
    """The (x,y)-trail using each of the m arcs of the out-rows ``rows``
    once, or None.  A Hierholzer walk from x, smallest head first, that
    consumes the rows.  Its first sub-walk must end at y.  Each later one
    starts at a vertex u the stack left behind and is spliced in before
    the arc u took there, so only a sub-walk closed at u keeps the walk on
    arcs; an open one, which only an unbalanced set allows, is refused as
    it ends, and the length then tells whether every arc was used."""
    stack = [x]
    walk: list[int] = []
    while stack:
        v = start = stack.pop()
        row = rows[v]
        while row:  # walk on from v, stacking each vertex left behind
            stack.append(v)
            low = row & -row
            rows[v] = row ^ low
            v = low.bit_length() - 1
            row = rows[v]
        if v != (start if walk else y):
            return None
        walk.append(v)
    if len(walk) != m + 1:
        return None
    walk.reverse()
    return walk


def _path_arcs(path: list[int]) -> list[Arc]:
    return [(path[i], path[i + 1]) for i in range(len(path) - 1)]


def _cycle_rows(cycle: list[int] | tuple[int, ...], n: int) -> list[int]:
    """Out-rows of a cycle's arcs on n vertices."""
    rows = [0] * n
    u = cycle[-1]
    for v in cycle:
        rows[u] |= 1 << v
        u = v
    return rows


# ---- the case ladder ----


def _note(trace: list[str] | None, tag: str) -> None:
    if trace is not None:
        trace.append(tag)


def _direct_arc_case(d: Digraph, x: int, y: int, trace: list[str] | None) -> list[int] | None:
    """Cases where xy is an arc: one covering cycle plus the arc itself.

    When d is 2-arc-strong, h = d minus xy and yx is strong without a
    test: a directed cut of d holds at least two arcs, and at most one of
    xy and yx."""
    n = d.n
    two_arc_strong = _arc_strong(d, 2)
    # the cycle avoids xy and covers every vertex but y; the core misses
    # y, so d has the core arcs of h and its memo serves.  When d is
    # 2-arc-strong and the core, of two or more vertices, is strong, the
    # memo's hamiltonian cycle of the core is that cycle and h is not read
    core = (1 << n) - 1 & ~(1 << y)
    cyc = _cached_cycle(d, core) if two_arc_strong and core & (core - 1) else None
    h = None
    if cyc is None:
        d0 = d.remove_arcs([(y, x)]) if d.has_arc(y, x) else d
        h = d0.remove_arcs([(x, y)])
    if cyc is not None or two_arc_strong or is_strong(h):
        _note(trace, "direct-arc-covering-cycle")
        rows = _cycle_rows(_covering_cycle(d, h, core) if cyc is None else cyc, n)
        rows[x] |= 1 << y
        return rows
    # removing xy keeps d strong (the second disjoint path reroutes), and
    # yx is a cut arc there, so every hamiltonian cycle must traverse it;
    # without yx, d minus xy is not semicomplete and no cycle is sought.
    # d minus xy is built per pair, so its cycle skips the memo.
    _note(trace, "direct-arc-ham-cycle")
    if not d.has_arc(y, x):
        return None
    rows = _cycle_rows(_cycle(d.remove_arcs([(x, y)]), (1 << n) - 1), n)
    if not rows[y] >> x & 1:
        return None
    rows[y] ^= 1 << x
    return rows


def _split_case(
    d: Digraph,
    dprime: Digraph,
    x: int,
    y: int,
    p1: list[int],
    allow_mirror: bool,
    trace: list[str] | None,
) -> list[int] | None:
    """Cases for xy absent and d minus yx strong, relative to one path."""
    p1_arcs = _path_arcs(p1)
    h = dprime.remove_arcs(p1_arcs)
    full = (1 << d.n) - 1
    if is_strong(h):
        # the cycle avoids p1's arcs and covers every vertex off p1, plus x;
        # y lies on p1, so d has the core arcs of dprime
        _note(trace, "path-plus-covering-cycle")
        rows = _cycle_rows(_covering_cycle(d, h, full & ~_mask_of(p1) | 1 << x), d.n)
        for u, v in p1_arcs:
            rows[u] |= 1 << v
        return rows
    comps = _components(h, full)
    tail = comps[-1]
    head = full & ~tail
    if tail >> x & 1 and tail >> y & 1:
        return _absorb_head_side(d, x, y, p1, tail, head, trace)
    if head >> x & 1 and head >> y & 1 and allow_mirror:
        _note(trace, "mirrored")
        rev = d.reverse()
        got = _ladder_trail(rev, y, x, allow_mirror=False, trace=trace)
        if got is None:
            return None
        return _rows_of(((b, a) for a, b in got.arcs()), d.n)
    return None


def _absorb_head_side(
    d: Digraph,
    x: int,
    y: int,
    p1: list[int],
    tail: int,
    head: int,
    trace: list[str] | None,
) -> list[int] | None:
    """Both terminals sit in the sink side: recurse there, splice the rest.

    The path p1 crosses into the source side exactly once; that side is
    dominated by everything after the crossing's predecessor, so a
    hamiltonian path of it can replace one outgoing arc of the predecessor
    in the recursive trail.
    """
    crossings = [w for w in p1 if head >> w & 1]
    if len(crossings) != 1:
        return None
    x1 = crossings[0]
    i = p1.index(x1)
    w1 = p1[i - 1]
    try:
        q = _path_between(d, head, x1)
    except (PreconditionError, ConstructionError):
        return None
    tq = q[-1]
    tail_sub, tail_ids = d.induced(_mask_bits(tail))
    xl, yl = tail_ids.index(x), tail_ids.index(y)
    w1l = tail_ids.index(w1)
    artificial = not tail_sub.has_arc(w1l, yl)
    aug = tail_sub.add_arcs([(w1l, yl)]) if artificial else tail_sub
    if not is_strong(aug):
        return None
    value, fwd, _ = _max_flow(aug, xl, yl, limit=2)
    if value < 2:
        return None
    _note(trace, "sink-side-recursion")
    paths = _row_paths(fwd, xl, yl, 2)
    inner = _ladder_trail(aug, xl, yl, allow_mirror=True, trace=trace, paths=paths)
    if inner is None:
        return None
    w_arcs = {(tail_ids[a], tail_ids[b]) for a, b in inner.arcs()}
    if artificial and (w1, y) in w_arcs:
        u = y
        w_arcs.discard((w1, y))
    else:
        outs = sorted(b for a, b in w_arcs if a == w1)
        if not outs:
            return None
        u = outs[0]
        w_arcs.discard((w1, u))
    if not d.has_arc(tq, u) or not d.has_arc(w1, x1):
        return None
    w_arcs.add((w1, x1))
    w_arcs.update(_path_arcs(q))
    w_arcs.add((tq, u))
    return _rows_of(w_arcs, d.n)


def _completion_case(
    d: Digraph,
    dprime: Digraph,
    x: int,
    y: int,
    base_path: list[int],
    trace: list[str] | None,
) -> list[int] | None:
    """Cover the vertices missed by one path with cycles via circulation."""
    n = d.n
    path = _rows_of(_path_arcs(base_path), n)
    covered = _mask_of(base_path)
    lo = [0 if covered >> v & 1 else 1 for v in range(n)]
    hi = [(1 if v == y else 2) - path[v].bit_count() for v in range(n)]
    offered = [row & ~p for row, p in zip(dprime._out, path)]  # noqa: SLF001
    picked, _, _ = _circulate(offered, lo, hi)
    if picked is None:
        return None
    _note(trace, "circulation-completion")
    return [p | q for p, q in zip(path, picked)]


def _accepted_trail(d: Digraph, rows: list[int], x: int, y: int) -> Trail | None:
    """The candidate with out-rows ``rows`` (bit v of ``rows[u]`` is the
    arc (u,v)) as a spanning (x,y)-trail of d that keeps
    ``spanning_trail``'s promise, or None when it is not one.  One pass
    over the rows checks them against d, the promise and the cover; one
    walk then orders the arcs.  Consumes the rows."""
    out = d._out  # noqa: SLF001 - package-internal
    m = 0
    reached = 1 << x
    for u, row in enumerate(rows):
        # a bit at n or beyond lies outside every row of d
        if row & ~out[u]:
            return None
        k = row.bit_count()
        if k > 2:
            return None
        m += k
        reached |= row
    last = rows[y]
    if reached != (1 << d.n) - 1 or last & (last - 1) or last >> x & 1:
        return None
    walk = _trail_walk(rows, m, x, y)
    return None if walk is None else Trail(tuple(walk))


def _ladder_trail(
    d: Digraph,
    x: int,
    y: int,
    allow_mirror: bool,
    trace: list[str] | None,
    paths: list[list[int]] | None = None,
) -> Trail | None:
    """Candidate generation ladder; the first accepted candidate wins.

    d is strong and semicomplete at every level: ``spanning_trail``
    checks it, and the recursions run on its reverse or on the induced
    sink side plus at most one arc, once that is found strong.
    When d is 2-arc-strong (``_arc_strong(d, 2)``, memoised), no
    strongness test after removing one arc, or one 2-cycle, is needed.
    ``paths`` are two arc-disjoint (x,y)-paths of d read off its cold
    ``_max_flow`` by a caller that ran it; without them the ladder runs
    that flow itself, and only when xy is absent and d minus yx strong.
    Every rung hands its candidate over as out-rows.
    """

    def attempt(thunk) -> Trail | None:
        try:
            got = thunk()
        except (PreconditionError, ConstructionError):
            return None
        return None if got is None else _accepted_trail(d, got, x, y)

    if d.has_arc(x, y):
        got = attempt(lambda: _direct_arc_case(d, x, y, trace))
        if got is not None:
            return got
    else:
        dprime = d.remove_arcs([(y, x)])
        if not (_arc_strong(d, 2) or is_strong(dprime)):
            # yx is a cut arc, so it lies on every hamiltonian cycle of d
            def via_ham() -> list[int]:
                _note(trace, "cut-arc-ham-cycle")
                rows = _cycle_rows(_cached_cycle(d, (1 << d.n) - 1), d.n)
                rows[y] &= ~(1 << x)
                return rows

            got = attempt(via_ham)
            if got is not None:
                return got
        else:
            if paths is None:
                paths = _row_paths(_max_flow(d, x, y, limit=2)[1], x, y, 2)
            p1, p2 = sorted(paths, key=len)
            for path in (p1, p2):
                got = attempt(
                    lambda p=path: _split_case(d, dprime, x, y, p, allow_mirror, trace)
                )
                if got is not None:
                    return got
            for path in (p1, p2):
                got = attempt(
                    lambda p=path: _completion_case(d, dprime, x, y, p, trace)
                )
                if got is not None:
                    return got
    # last resort on small inputs: exhaustive search
    from . import oracle

    try:
        caps = {v: 2 for v in range(d.n)}
        caps[y] = 1
        found = oracle.find_trail_oracle(d, x, y, must_avoid={(y, x)}, out_cap=caps)
    except PreconditionError:
        return None
    got = None if found is None else _accepted_trail(d, _rows_of(found, d.n), x, y)
    if got is not None:
        _note(trace, "exhaustive")
    return got


@lru_cache(maxsize=1024)
def _semicomplete(d: Digraph) -> bool:
    """``is_semicomplete``, memoised per digraph for ``spanning_trail``,
    which asks it of every pair; the public predicate stays uncached."""
    return is_semicomplete(d)


def spanning_trail(
    d: Digraph, x: int, y: int, trace: list[str] | None = None
) -> Trail:
    """Spanning (x,y)-trail avoiding the arc yx, out-degree at most 2.

    Requires a strong semicomplete digraph with two arc-disjoint
    (x,y)-paths; their absence raises ``PreconditionError`` carrying the
    separating cut.  The returned trail never uses the arc from y to x,
    leaves each vertex at most twice, and leaves y at most once.
    """
    if not _semicomplete(d):
        raise PreconditionError("spanning_trail requires a semicomplete digraph")
    if not (0 <= x < d.n and 0 <= y < d.n) or x == y:
        raise PreconditionError("x and y must be distinct vertices")
    # from two vertices on, strong means arc-connectivity at least 1
    if not _arc_strong(d, 1):
        raise PreconditionError("spanning_trail requires a strong digraph")
    return _spanning_trail(d, x, y, trace)


def _spanning_trail(
    d: Digraph,
    x: int,
    y: int,
    trace: list[str] | None = None,
    paths: list[list[int]] | None = None,
) -> Trail:
    """``spanning_trail`` for a d already known to be strong and
    semicomplete and two distinct vertices of it.  A caller that has run
    the flow for d and (x,y) hands its two paths over as ``paths``;
    otherwise the paths are checked here, by that flow when d is not
    2-arc-strong, and the ladder reads the pair off it, so each flow
    runs once."""
    if paths is None and not _arc_strong(d, 2):
        value, fwd, reached = _max_flow(d, x, y, limit=2)
        if value < 2:
            raise PreconditionError(
                f"need two arc-disjoint ({x},{y})-paths; "
                f"cut {sorted(_certificate_from_mask(d, reached).crossing_arcs)} separates them"
            )
        if not d.has_arc(x, y):  # the ladder reads the pair only then
            paths = _row_paths(fwd, x, y, 2)
    trail = _ladder_trail(d, x, y, allow_mirror=True, trace=trace, paths=paths)
    if trail is None:
        raise ConstructionError(f"no spanning trail construction succeeded for ({x}, {y})")
    return trail


def is_eulerian_connected(d: Digraph) -> tuple[bool, tuple[int, int] | None]:
    """Whether every ordered vertex pair admits a spanning trail.

    Returns (True, None) or (False, (x, y)) for the first failing pair.
    Two-arc-strong digraphs qualify outright; otherwise each pair is
    settled constructively when two arc-disjoint paths exist and by
    exhaustive search when they do not.  Below arc-connectivity 2 some
    pair has no two such paths, so past the oracle's guard (more than
    ``ORACLE_MAX_VERTICES`` vertices, which a semicomplete digraph fills
    with more than ``ORACLE_MAX_ARCS`` arcs) this raises the guard's
    ``PreconditionError`` instead of answering.
    """
    if not is_semicomplete(d):
        raise PreconditionError("eulerian-connectedness requires a semicomplete digraph")
    if d.n <= 1:
        return True, None
    if _arc_strong(d, 2):
        return True, None
    from . import oracle

    for x in range(d.n):
        for y in range(d.n):
            if x == y:
                continue
            if _max_flow(d, x, y, limit=2)[0] >= 2:
                continue
            if oracle.find_trail_oracle(d, x, y) is None:
                return False, (x, y)
    return True, None
