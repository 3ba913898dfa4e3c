"""Hand-built digraphs shared across the test modules, and reference
searches that share no code with the library.

Each builder returns a fresh Digraph so tests can't leak state through
the cached oracle enumerations.
"""

import random

import eulertrail as et


def three_cycle() -> et.Digraph:
    return et.Digraph(3, [(0, 1), (1, 2), (2, 0)])


def complete(n: int) -> et.Digraph:
    return et.Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])


def transitive(n: int) -> et.Digraph:
    return et.Digraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def t4() -> et.Digraph:
    """Strong tournament on four vertices whose only spanning eulerian
    subdigraph is the hamiltonian cycle 0 1 2 3."""
    return et.Digraph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 0)])


def figure_chain() -> et.Digraph:
    """Nineteen vertices in ten sets with three backward arcs.

    The third set {5, 6, 7} is shared by the second and third backward
    arcs and carries two arc-disjoint routes from 5 to 7, so it stays in
    one piece; positions 1, 2, 4 and 8 end up ignored.
    """
    sets = [[0], [1, 2], [3, 4], [5, 6, 7], [8, 9], [10, 11],
            [12, 13], [14, 15], [16, 17], [18]]
    pos = {}
    for i, s in enumerate(sets):
        for v in s:
            pos[v] = i
    arcs = []
    for u in range(19):
        for v in range(19):
            if u != v and pos[u] < pos[v]:
                arcs.append((u, v))
    for a, b in ((1, 2), (3, 4), (8, 9), (10, 11), (12, 13), (14, 15), (16, 17)):
        arcs += [(a, b), (b, a)]
    arcs += [(5, 6), (6, 7), (5, 7), (7, 5)]
    arcs += [(18, 10), (14, 5), (7, 0)]
    return et.Digraph(19, arcs)


def split_chain() -> et.Digraph:
    """Eighteen vertices where the within-pair arc (5, 6) is itself a cut
    arc, so the decomposition splits that pair and widens to eleven sets."""
    sets = [[0]] + [[2 * i - 1, 2 * i] for i in range(1, 9)] + [[17]]
    pos = {}
    for i, s in enumerate(sets):
        for v in s:
            pos[v] = i
    arcs = []
    for u in range(18):
        for v in range(18):
            if u != v and pos[u] < pos[v]:
                arcs.append((u, v))
    for i in range(1, 9):
        arcs += [(2 * i - 1, 2 * i), (2 * i, 2 * i - 1)]
    arcs += [(17, 9), (13, 5), (6, 0)]
    return et.Digraph(18, arcs)


def compulsory_chain() -> et.Digraph:
    """Twelve vertices in ten sets with four backward arcs.

    The arc (4, 5) joins two adjacent ignored singleton sets and the arc
    (0, 2) jumps over the singleton {1} whose only entry is a backward
    arc, so both arcs lie on every spanning eulerian subdigraph.  Vertex 3
    is head of one backward arc and tail of the next; the sets {6, 11}
    and {8, 9} carry a second vertex so that only the four intended arcs
    are cut arcs.
    """
    pos = {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5,
           6: 6, 11: 6, 7: 7, 8: 8, 9: 8, 10: 9}
    arcs = []
    for u in range(12):
        for v in range(12):
            if u != v and pos[u] < pos[v]:
                arcs.append((u, v))
    arcs.remove((0, 1))
    arcs += [(6, 11), (11, 6), (8, 9), (9, 8)]
    arcs += [(10, 6), (7, 3), (3, 1), (1, 0)]
    return et.Digraph(12, arcs)


def single_backward_chain() -> et.Digraph:
    """Six vertices, one backward arc; every middle position is ignored."""
    pos = {0: 0, 1: 1, 2: 1, 3: 2, 4: 2, 5: 3}
    arcs = []
    for u in range(6):
        for v in range(6):
            if u != v and pos[u] < pos[v]:
                arcs.append((u, v))
    arcs += [(1, 2), (2, 1), (3, 4), (4, 3), (5, 0)]
    return et.Digraph(6, arcs)


def backward_chain(n: int, rng: random.Random) -> et.Digraph:
    """Vertices 0..n-1 in sets of one or two along a line: every arc
    points forward except 2-cycles inside the sets and a few backward
    arcs, the last of which closes the chain into a strong digraph."""
    pos, i = [], 0
    while len(pos) < n:
        pos += [i] * min(rng.choice((1, 2)), n - len(pos))
        i += 1
    arcs = {(u, v) for u in range(n) for v in range(n) if u != v and pos[u] <= pos[v]}
    for _ in range(rng.randint(0, 3)):
        u = rng.randrange(1, n)
        v = rng.randrange(u)
        if pos[v] < pos[u]:
            arcs.discard((v, u))
            arcs.add((u, v))
    arcs.discard((0, n - 1))
    arcs.add((n - 1, 0))
    return et.Digraph(n, arcs)


def strong_backward_chain(n: int, rng: random.Random) -> et.Digraph:
    """The first strong digraph ``backward_chain`` draws."""
    while True:
        d = backward_chain(n, rng)
        if et.is_strong(d):
            return d


def random_strong_semicomplete(n: int, seed: int) -> et.Digraph:
    rng = random.Random(seed)
    for attempt in range(500):
        d = et.gen_random_semicomplete(n, rng.random(), rng.randrange(1 << 30))
        if et.is_strong(d):
            return d
    raise RuntimeError(f"no strong semicomplete digraph found for n={n}")


def weak_components(n: int, arcs) -> list[frozenset[int]]:
    """Vertex sets of the weak components of the arcs on vertices 0..n-1,
    ordered by smallest member; a vertex on no arc is a component alone.
    A union-find, kept apart from the library's mask closures so that
    tests can recount components independently."""
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in arcs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    groups: dict[int, set[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), set()).add(v)
    return [frozenset(groups[r]) for r in sorted(groups)]


def reference_shortest_walk(succ, sources, targets) -> list[int] | None:
    """``connectivity.shortest_walk`` as it was before it moved onto
    bitmask rows: a breadth-first search over a successor callable and
    dicts, kept so that tests can check the row search against it.  It
    tries the heads ``succ(v)`` in the order given and the sources in the
    order given; a source that is also a target is reached only by a
    cycle."""
    parent = dict.fromkeys(sources, -1)
    queue = list(parent)
    for v in queue:  # the queue grows while it is read
        for w in succ(v):
            if w in targets:
                walk = [w]
                while v != -1:
                    walk.append(v)
                    v = parent[v]
                walk.reverse()
                return walk
            if w not in parent:
                parent[w] = v
                queue.append(w)
    return None
