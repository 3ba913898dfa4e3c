"""The split-node circulation that every factor and completion is solved with.

``_circulate`` keeps its flow as bitmask rows and augments one unit per
breadth-first search, in the idiom of ``connectivity._max_flow``.
"""

from __future__ import annotations

from typing import Sequence

from .digraph import _mask_of
from .errors import PreconditionError


def _circulate(
    offered: Sequence[int], lo: list[int], hi: list[int], surplus: list[int] | None = None
) -> tuple[list[int] | None, int, int]:
    """Pick each arc of the out-rows ``offered`` (bit v of ``offered[u]``
    is the arc (u,v)) at most once under per-vertex degree bounds.

    At every vertex v the picked arcs leave ``surplus[v]`` (0 by default)
    more times than they enter, and between ``lo[v]`` and ``hi[v]`` of
    them pass through v.  Returns the picked arcs as out-rows and two zero
    masks; when no choice exists, None plus the masks of the vertices
    whose entry side and whose exit side lie on the source side of the
    blocking cut.  ``offered`` is left as it is.  A surplus that does not
    sum to 0 raises PreconditionError.

    Solved as a circulation on the split-node network: arc (u, v) runs
    from the exit side of u to the entry side of v, and vertex v's own
    edge from its entry side to its exit side carries the through traffic.
    With the lower bounds taken as given, each exit side v has a supply of
    ``lo[v]`` plus the positive part of ``surplus[v]`` and each entry side
    a demand of ``lo[v]`` plus the negative part.  Each unit is one
    breadth-first search from the exit sides with supply left, in
    ascending order, to the first entry side with demand left.  An exit
    side scans its unpicked arcs' heads in ascending order and then its
    own edge backwards; an entry side scans its picked arcs' tails in
    ascending order and then its own edge forwards.  This is the order in
    which Edmonds-Karp searches the network built from the arcs sorted,
    so it picks what that would.
    """
    n = len(offered)
    if surplus is None:
        surplus = [0] * n
    elif sum(surplus) != 0:
        raise PreconditionError(f"surplus sums to {sum(surplus)}, not 0")
    if any(a > b for a, b in zip(lo, hi)):
        return None, (1 << n) - 1, (1 << n) - 1
    free = list(offered)  # the arcs not picked; offered[u] ^ free[u] are u's picks
    taken = [0] * n  # taken[v] bit u: arc (u,v) picked, for the entry sides' scans
    room = [b - a for a, b in zip(lo, hi)]  # own-edge units allowed above lo
    extra = [0] * n  # own-edge units carried above lo
    supply = [a + max(s, 0) for a, s in zip(lo, surplus)]
    demand = [a + max(-s, 0) for a, s in zip(lo, surplus)]
    sources = [v for v in range(n) if supply[v]]  # the stocked exit sides, ascending
    stocked = _mask_of(sources)
    needy = _mask_of(v for v in range(n) if demand[v])
    while stocked:
        via_in = [0] * n  # exit side each reached entry side came from
        via_out = [-1] * n  # entry side each reached exit side came from
        seen_in, seen_out = 0, stocked
        frontier = sources  # rebound below, never changed in place
        hit = -1
        while frontier:
            entries: list[int] = []
            for u in frontier:
                step = free[u] & ~seen_in
                seen_in |= step
                hits = step & needy
                if hits:
                    hit = (hits & -hits).bit_length() - 1
                    via_in[hit] = u
                    break
                while step:  # _mask_bits inlined: this is the hot loop
                    low = step & -step
                    w = low.bit_length() - 1
                    via_in[w] = u
                    entries.append(w)
                    step ^= low
                if extra[u] and not seen_in >> u & 1:
                    seen_in |= 1 << u
                    via_in[u] = u
                    if needy >> u & 1:
                        hit = u
                        break
                    entries.append(u)
            if hit >= 0:
                break
            frontier = []
            for v in entries:
                step = taken[v] & ~seen_out
                seen_out |= step
                while step:
                    low = step & -step
                    w = low.bit_length() - 1
                    via_out[w] = v
                    frontier.append(w)
                    step ^= low
                if extra[v] < room[v] and not seen_out >> v & 1:
                    seen_out |= 1 << v
                    via_out[v] = v
                    frontier.append(v)
        if hit < 0:
            return None, seen_in, seen_out
        demand[hit] -= 1
        if not demand[hit]:
            needy ^= 1 << hit
        v = hit
        while True:
            u = via_in[v]
            if u == v:
                extra[v] -= 1
            else:
                free[u] ^= 1 << v
                taken[v] |= 1 << u
            v = via_out[u]
            if v < 0:
                break
            if v == u:
                extra[u] += 1
            else:
                free[u] |= 1 << v
                taken[v] ^= 1 << u
        supply[u] -= 1
        if not supply[u]:
            stocked ^= 1 << u
            sources.remove(u)
    return [a ^ b for a, b in zip(offered, free)], 0, 0
