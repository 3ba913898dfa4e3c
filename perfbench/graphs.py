"""Digraph routines of the benchmark's own, written with the standard library.

The input generators and the answer checker rely on these instead of the
package under test, so a change to the package can neither reshape the
inputs nor vouch for its own answers.  A digraph is ``(n, out)`` where
``out[u]`` is the bit mask of the heads of the arcs leaving ``u``.
"""

from __future__ import annotations

import json
import random

Arc = tuple[int, int]


def out_rows(n: int, arcs) -> list[int]:
    out = [0] * n
    for u, v in arcs:
        out[u] |= 1 << v
    return out


def arc_list(out: list[int]) -> list[Arc]:
    return [(u, v) for u, row in enumerate(out) for v in bits(row)]


def bits(mask: int) -> list[int]:
    found = []
    while mask:
        low = mask & -mask
        found.append(low.bit_length() - 1)
        mask ^= low
    return found


def to_json(n: int, arcs) -> str:
    return json.dumps({"n": n, "arcs": [[u, v] for u, v in sorted(arcs)]})


# ---- reachability and connectivity ----


def reach(out: list[int], start: int, skip: Arc | None = None) -> int:
    """Mask of the vertices reachable from ``start``, ignoring arc ``skip``."""
    seen = frontier = 1 << start
    while frontier:
        nxt = 0
        for w in bits(frontier):
            row = out[w]
            if skip is not None and w == skip[0]:
                row &= ~(1 << skip[1])
            nxt |= row
        frontier = nxt & ~seen
        seen |= frontier
    return seen


def reverse_rows(out: list[int]) -> list[int]:
    inn = [0] * len(out)
    for u, row in enumerate(out):
        for v in bits(row):
            inn[v] |= 1 << u
    return inn


def is_strong(out: list[int]) -> bool:
    n = len(out)
    if n <= 1:
        return True
    full = (1 << n) - 1
    return reach(out, 0) == full and reach(reverse_rows(out), 0) == full


def cut_arcs(out: list[int]) -> set[Arc]:
    """Arcs of a strong digraph whose removal leaves it not strong."""
    return {
        (u, v) for u, v in arc_list(out) if not reach(out, u, skip=(u, v)) >> v & 1
    }


def max_flow(out: list[int], s: int, t: int, limit: int) -> int:
    """Number of arc-disjoint (s,t)-paths, counted up to ``limit``.

    Breadth-first augmentation over residual bit-mask rows; ``flow`` holds
    the net flow on each vertex pair, so a pair joined both ways can carry
    one unit in each direction.
    """
    res = list(out)
    flow: dict[Arc, int] = {}
    value = 0
    while value < limit:
        parent = {s: s}
        seen = 1 << s
        frontier = [s]
        while frontier and not seen >> t & 1:
            nxt = []
            for w in frontier:
                new = res[w] & ~seen
                if new:
                    seen |= new
                    for v in bits(new):
                        parent[v] = w
                        nxt.append(v)
            frontier = nxt
        if not seen >> t & 1:
            break
        v = t
        while v != s:
            u = parent[v]
            f = flow.get((u, v), 0) + 1
            flow[(u, v)] = f
            flow[(v, u)] = -f
            if (out[u] >> v & 1) - f > 0:
                res[u] |= 1 << v
            else:
                res[u] &= ~(1 << v)
            if (out[v] >> u & 1) + f > 0:
                res[v] |= 1 << u
            else:
                res[v] &= ~(1 << u)
            v = u
        value += 1
    return value


def arc_connectivity_at_least(out: list[int], k: int) -> bool:
    """Whether removing any k-1 arcs leaves the digraph strong.

    With a fixed root r, the digraph is k-arc-strong exactly when k
    arc-disjoint paths run from r to every vertex and from every vertex
    to r.
    """
    n = len(out)
    if k <= 0:
        return True
    if n <= 1:
        return False
    if any(row.bit_count() < k for row in out):
        return False
    inn = reverse_rows(out)
    if any(row.bit_count() < k for row in inn):
        return False
    return all(
        max_flow(out, 0, v, k) >= k and max_flow(out, v, 0, k) >= k
        for v in range(1, n)
    )


# ---- generators ----


def random_semicomplete(n: int, two_cycle_prob: float, rng: random.Random) -> list[Arc]:
    """Each vertex pair gets both arcs with the given probability, else one
    arc in a uniformly random direction."""
    arcs: list[Arc] = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < two_cycle_prob:
                arcs += [(u, v), (v, u)]
            elif rng.random() < 0.5:
                arcs.append((u, v))
            else:
                arcs.append((v, u))
    return arcs


def _strong_block(vertices: list[int], rng: random.Random) -> list[Arc]:
    """A strong semicomplete digraph on ``vertices``: a hamiltonian cycle
    plus a random arc or two for every other pair."""
    k = len(vertices)
    if k == 1:
        return []
    order = vertices[:]
    rng.shuffle(order)
    arcs = {(order[i], order[(i + 1) % k]) for i in range(k)}
    for i in range(k):
        for j in range(i + 1, k):
            a, b = order[i], order[j]
            if (a, b) in arcs or (b, a) in arcs:
                if rng.random() < 0.3:
                    arcs |= {(a, b), (b, a)}
                continue
            r = rng.random()
            if r < 0.3:
                arcs |= {(a, b), (b, a)}
            else:
                arcs.add((a, b) if r < 0.65 else (b, a))
    return sorted(arcs)


def backward_chain(n: int, rng: random.Random) -> list[Arc]:
    """A strong semicomplete digraph with arc connectivity 1.

    The vertices fall into ordered blocks, each strong on its own, with
    every arc between two blocks pointing forward.  A chain of backward
    arcs runs from the last block to the first; consecutive backward arcs
    meet in one shared block, so every cut between two consecutive
    junction blocks is crossed backward by exactly one arc, which makes
    each backward arc a cut arc.  Mostly singleton blocks, and forward
    arcs that are sometimes dropped where a backward arc joins two
    neighbouring singletons, produce the regular, left and right patterns
    of bad arcs.
    """
    sizes: list[int] = []
    while sum(sizes) < n:
        sizes.append(min(n - sum(sizes), rng.choice((1, 1, 1, 1, 2, 2, 3, 4))))
    blocks: list[list[int]] = []
    nxt = 0
    for size in sizes:
        blocks.append(list(range(nxt, nxt + size)))
        nxt += size
    width = len(blocks)
    anchors = [width - 1]
    while anchors[-1] > 0:
        step = rng.choice((1, 2, 3, 3, 4, 5, 6))
        anchors.append(max(0, anchors[-1] - step))
    arcs: set[Arc] = set()
    for block in blocks:
        arcs.update(_strong_block(block, rng))
    backward = [
        (hi, lo, rng.choice(blocks[hi]), rng.choice(blocks[lo]))
        for hi, lo in zip(anchors, anchors[1:])
    ]
    dropped = {
        (t, s)
        for hi, lo, s, t in backward
        if hi == lo + 1 and len(blocks[hi]) == len(blocks[lo]) == 1 and rng.random() < 0.5
    }
    for i in range(width):
        for j in range(i + 1, width):
            for u in blocks[i]:
                for v in blocks[j]:
                    if (u, v) not in dropped:
                        arcs.add((u, v))
    arcs.update((s, t) for _, _, s, t in backward)
    return sorted(arcs)


def relabel(n: int, arcs: list[Arc], rng: random.Random) -> list[Arc]:
    """The same digraph under a random vertex permutation."""
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted((perm[u], perm[v]) for u, v in arcs)
