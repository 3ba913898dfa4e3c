"""Exhaustive ground-truth searches over small digraphs.

Everything here decides by brute force: one pruned depth-first search
over arc subsets for spanning eulerian subdigraphs, trails and factors,
plus generators sweeping every tournament or semicomplete digraph of a
given small order.  The search drops the avoided arcs from its bitmask
rows before it starts, then decides the remaining arcs pair by pair
(for u < v, first (u,v), then (v,u)), so each vertex closes as soon as
its own pairs are decided and both prunes fire early.  It keeps the
chosen arcs as an undirected neighbour mask per vertex and prunes only
where no solution can lie, so the set of solutions does not depend on
the order, and the order they come out in depends on the digraph and
the constraints alone.  These routines
are the independent check against which the constructive modules are
validated; they share no logic with them.

Size guards keep the searches honest: inputs beyond the guard raise
``PreconditionError`` instead of running forever.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations

from .digraph import Arc, Digraph, _mask_bits
from .errors import PreconditionError

ORACLE_MAX_ARCS = 24
ORACLE_MAX_VERTICES = 10


def _check_size(d: Digraph) -> None:
    if d.m <= ORACLE_MAX_ARCS or d.n <= ORACLE_MAX_VERTICES:
        return
    raise PreconditionError(
        f"oracle guard: {d.n} vertices / {d.m} arcs exceeds the search budget"
    )


# ---- pruned subset search ----


def _seals_short(rows: list[int], start: int, still_open: int, full: int) -> bool:
    """True iff the weak component of ``start`` along the undirected ``rows``
    holds no vertex of ``still_open`` and yet misses some vertex of ``full``."""
    comp = frontier = 1 << start
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = rows[low.bit_length() - 1] & ~comp
        if new & still_open:
            return False
        comp |= new
        frontier |= new
    return comp != full


def _search(
    d: Digraph,
    must_contain: frozenset[Arc],
    must_avoid: frozenset[Arc],
    imbalance: dict[int, int],
    out_cap: dict[int, int] | None,
    limit: int | None,
    connected: bool,
) -> list[frozenset[Arc]]:
    """Depth-first search over arc subsets with degree-window pruning.

    A subset qualifies when every vertex v satisfies
    out(v) - in(v) == imbalance.get(v, 0), is touched by at least one arc,
    and (if ``connected``) the chosen arcs form a single weak component.

    The avoided arcs leave the bitmask rows before the search starts;
    those that d lacks or that name a vertex outside 0..n-1 are ignored,
    and an arc both to contain and to avoid leaves nothing to find.  The
    remaining arcs are decided pair by pair: for u < v, (u,v) and then
    (v,u), each taken before it is skipped, so every vertex closes once
    its own pairs are decided rather than at the last tail, and solutions
    come out in one fixed order.  Which subsets qualify does not depend
    on that order; only the order of the list, and so the one that
    ``limit=1`` returns, does.  Two prunes cut the tree, and both are
    sound: the degree window (each end of the arc just decided can still
    reach its balance, within its out-cap, with at least one arc) and, if
    ``connected``, a sealed component (an end with no undecided arcs left
    lies in a weak component of the chosen arcs whose vertices are all
    decided, yet which misses a vertex).  The chosen arcs are kept as one
    undirected neighbour mask per vertex.  At a leaf each vertex passed
    the window when its last arc was decided and, if ``connected``, the
    seal test on the last arc saw its component span every vertex, so a
    leaf is a solution as soon as it is reached; a vertex with no allowed
    arcs at all can never be covered and empties the search at the start.
    """
    n = d.n
    out_rows = list(d._out)
    in_rows = list(d._in)
    for u, v in must_avoid:
        if 0 <= u < n and 0 <= v < n:
            out_rows[u] &= ~(1 << v)
            in_rows[v] &= ~(1 << u)
    if any(not out_rows[u] >> v & 1 for u, v in must_contain):
        return []
    if n <= 1:
        return [frozenset()]
    if limit is not None and limit <= 0:
        return []
    if any(not (out_rows[v] | in_rows[v]) for v in range(n)):
        return []  # a vertex without allowed arcs can never be covered
    arcs: list[Arc] = []
    for u in range(n):
        for v in _mask_bits((out_rows[u] | in_rows[u]) >> u + 1 << u + 1):
            if out_rows[u] >> v & 1:
                arcs.append((u, v))
            if out_rows[v] >> u & 1:
                arcs.append((v, u))
    full = (1 << n) - 1
    steps = []
    still_open = 0  # vertices with an arc after the current one
    for arc in reversed(arcs):
        u, v = arc
        branches: tuple[bool, ...] = (True,) if arc in must_contain else (True, False)
        seal_u = connected and not still_open >> u & 1
        seal_v = connected and not still_open >> v & 1
        steps.append((arc, u, v, 1 << u, 1 << v, branches, seal_u, seal_v, still_open))
        still_open |= 1 << u | 1 << v
    steps.reverse()
    rem_out = [row.bit_count() for row in out_rows]
    rem_in = [row.bit_count() for row in in_rows]
    out_used = [0] * n
    # departures the arrivals so far call for: arcs in plus the surplus
    out_due = [imbalance.get(v, 0) for v in range(n)]
    # the fewest departures that cover the vertex (none if it owes arrivals)
    least = [min(1, 1 + k) for k in out_due]
    cap = [out_cap.get(v, n) if out_cap else n for v in range(n)]
    rows = [0] * n  # undirected neighbours along the chosen arcs
    chosen: list[Arc] = []
    results: list[frozenset[Arc]] = []
    m = len(arcs)

    def rec(i: int) -> bool:
        if i == m:
            results.append(frozenset(chosen))
            return limit is not None and len(results) >= limit
        arc, u, v, bu, bv, branches, seal_u, seal_v, still_open = steps[i]
        rem_out[u] -= 1
        rem_in[v] -= 1
        stop = False
        for take in branches:
            if take:
                if out_used[u] >= cap[u]:
                    continue
                out_used[u] += 1
                out_due[v] += 1
                fresh = not rows[u] & bv  # (v,u) may already join them
                if fresh:
                    rows[u] |= bv
                    rows[v] |= bu
                chosen.append(arc)
            # the degree window at u, then at v: the most departures still
            # possible, top, must reach those made, those due and the least
            out = out_used[u]
            due = out_due[u]
            top = out + rem_out[u]
            if top > due + rem_in[u]:
                top = due + rem_in[u]
            if top > cap[u]:
                top = cap[u]
            ok = top >= out and top >= due and top >= least[u]
            if ok:
                out = out_used[v]
                due = out_due[v]
                top = out + rem_out[v]
                if top > due + rem_in[v]:
                    top = due + rem_in[v]
                if top > cap[v]:
                    top = cap[v]
                ok = top >= out and top >= due and top >= least[v]
            if ok and seal_u and _seals_short(rows, u, still_open, full):
                ok = False
            if ok and seal_v and _seals_short(rows, v, still_open, full):
                ok = False
            if ok and rec(i + 1):
                stop = True
            if take:
                chosen.pop()
                out_used[u] -= 1
                out_due[v] -= 1
                if fresh:
                    rows[u] ^= bv
                    rows[v] ^= bu
            if stop:
                break
        rem_out[u] += 1
        rem_in[v] += 1
        return stop

    rec(0)
    return results


def enumerate_spanning_eulerian(
    d: Digraph,
    must_contain: frozenset[Arc] | set[Arc] = frozenset(),
    must_avoid: frozenset[Arc] | set[Arc] = frozenset(),
    limit: int | None = None,
) -> list[frozenset[Arc]]:
    """All spanning eulerian subdigraphs honoring the constraints (up to limit).

    A spanning eulerian subdigraph is a connected spanning subdigraph with
    in-degree equal to out-degree at every vertex.  An arc both to contain
    and to avoid leaves nothing to find.  Raises on inputs beyond the
    oracle size guard.
    """
    _check_size(d)
    return _search(
        d,
        frozenset(must_contain),
        frozenset(must_avoid),
        {},
        None,
        limit,
        connected=True,
    )


def spanning_eulerian_exists(
    d: Digraph,
    must_contain: frozenset[Arc] | set[Arc] = frozenset(),
    must_avoid: frozenset[Arc] | set[Arc] = frozenset(),
) -> bool:
    return bool(enumerate_spanning_eulerian(d, must_contain, must_avoid, limit=1))


def find_trail_oracle(
    d: Digraph,
    x: int,
    y: int,
    must_avoid: frozenset[Arc] | set[Arc] = frozenset(),
    out_cap: dict[int, int] | None = None,
) -> frozenset[Arc] | None:
    """First spanning (x,y)-trail found by brute force, as an arc set.

    The arc set is balanced except for one surplus departure at x and one
    surplus arrival at y, touches every vertex, and is weakly connected,
    which makes it traversable as a single open trail.
    """
    _check_size(d)
    if x == y or not (0 <= x < d.n and 0 <= y < d.n):
        raise PreconditionError("trail search needs distinct vertices x, y")
    found = _search(
        d,
        frozenset(),
        frozenset(must_avoid),
        {x: 1, y: -1},
        out_cap,
        1,
        connected=True,
    )
    return found[0] if found else None


def oracle_eulerian_factor(
    d: Digraph, avoid: frozenset[Arc] | set[Arc] = frozenset()
) -> bool:
    """Whether a spanning subdigraph with in = out >= 1 everywhere exists
    inside d minus the avoided arcs (connectivity not required)."""
    _check_size(d)
    return bool(
        _search(d, frozenset(), frozenset(avoid), {}, None, 1, connected=False)
    )


# ---- exhaustive enumeration with caching ----


@lru_cache(maxsize=1024)
def all_spanning_eulerian(d: Digraph) -> tuple[frozenset[Arc], ...]:
    """Every spanning eulerian subdigraph of d, memoized per digraph, in
    increasing order of the mask of their arc indices in ``d.arcs()``."""
    index = {arc: i for i, arc in enumerate(d.arcs())}
    return tuple(
        sorted(
            enumerate_spanning_eulerian(d),
            key=lambda sub: sum(1 << index[arc] for arc in sub),
        )
    )


def enumerate_all_tournaments(n: int):
    """Yield every tournament on n vertices (n <= 5), one per orientation."""
    if n > 5:
        raise PreconditionError("tournament sweep is limited to n <= 5")
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        arcs = [
            (u, v) if mask >> i & 1 else (v, u) for i, (u, v) in enumerate(pairs)
        ]
        yield Digraph(n, arcs)


def enumerate_all_semicomplete(n: int, sample: int = 3000):
    """Yield semicomplete digraphs on n vertices.

    Full sweep for n <= 4 (three states per pair); n == 5 yields a fixed
    pseudorandom sample of the 3^10 possibilities.
    """
    if n > 5:
        raise PreconditionError("semicomplete sweep is limited to n <= 5")
    pairs = list(combinations(range(n), 2))
    total = 3 ** len(pairs)

    def build(code: int) -> Digraph:
        arcs: list[Arc] = []
        for u, v in pairs:
            code, state = divmod(code, 3)
            if state == 0:
                arcs.append((u, v))
            elif state == 1:
                arcs.append((v, u))
            else:
                arcs.extend(((u, v), (v, u)))
        return Digraph(n, arcs)

    if n <= 4:
        for code in range(total):
            yield build(code)
    else:
        rng = random.Random(0)
        for code in sorted(rng.sample(range(total), min(sample, total))):
            yield build(code)
