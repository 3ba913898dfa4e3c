"""Independent checks of the answers the package gives.

Each check takes the digraph as the benchmark generated it, ``(n, out)``
with ``out[u]`` the mask of heads leaving ``u``, and an answer as plain
data, and returns a list of defects; an empty list accepts the answer.
Nothing here calls into the package under test.
"""

from __future__ import annotations

from .graphs import Arc, bits


def _has(out: list[int], u: int, v: int) -> bool:
    return 0 <= u < len(out) and 0 <= v < len(out) and bool(out[u] >> v & 1)


def closed_subdigraph(
    n: int, out: list[int], arcs, forbidden=frozenset(), connected: bool = True
) -> list[str]:
    """A spanning eulerian subdigraph: arcs of d, balanced at every vertex,
    touching every vertex, weakly connected and free of forbidden arcs.
    With ``connected`` false it checks an eulerian factor instead, which
    may fall apart into several closed pieces."""
    arcs = [tuple(a) for a in arcs]
    bad: list[str] = []
    if len(set(arcs)) != len(arcs):
        bad.append("an arc is listed twice")
    missing = [a for a in arcs if not _has(out, *a)]
    if missing:
        return bad + [f"arc {missing[0]} is not in the digraph"]
    used = [a for a in arcs if a in forbidden]
    if used:
        bad.append(f"forbidden arc {used[0]} is used")
    balance = [0] * n
    touched = 0
    link = list(range(n))

    def root(v: int) -> int:
        while link[v] != v:
            link[v] = link[link[v]]
            v = link[v]
        return v

    for u, v in arcs:
        balance[u] += 1
        balance[v] -= 1
        touched |= 1 << u | 1 << v
        link[root(u)] = root(v)
    if any(balance):
        bad.append(f"vertex {next(v for v in range(n) if balance[v])} is unbalanced")
    if n > 1 and touched != (1 << n) - 1:
        bad.append("some vertex is not touched")
    elif connected and n > 1 and len({root(v) for v in range(n)}) != 1:
        bad.append("the arcs are not connected")
    return bad


def open_trail(n: int, out: list[int], seq, x: int, y: int) -> list[str]:
    """A spanning (x,y)-trail as a vertex sequence that never uses (y, x)."""
    seq = list(seq)
    bad: list[str] = []
    if not seq or seq[0] != x or seq[-1] != y:
        bad.append("the trail does not run from x to y")
    steps = list(zip(seq, seq[1:]))
    absent = [a for a in steps if not _has(out, *a)]
    if absent:
        bad.append(f"step {absent[0]} is not an arc")
    if len(set(steps)) != len(steps):
        bad.append("an arc repeats")
    if set(seq) != set(range(n)):
        bad.append("the trail does not visit every vertex")
    if (y, x) in steps:
        bad.append("the trail uses the arc (y, x)")
    return bad


def cut(
    n: int,
    out: list[int],
    side_s,
    side_t,
    crossing,
    below: int,
    forbidden=frozenset(),
    x: int | None = None,
    y: int | None = None,
) -> list[str]:
    """A cut (S, T): the sides partition the vertices, x lies in S and y in
    T, the listed arcs are exactly the allowed arcs from S to T, and there
    are fewer than ``below`` of them."""
    s, t = set(side_s), set(side_t)
    bad: list[str] = []
    if not s or not t or s & t or s | t != set(range(n)):
        return ["the sides do not partition the vertices"]
    if x is not None and x not in s:
        bad.append("x is not on the source side")
    if y is not None and y not in t:
        bad.append("y is not on the sink side")
    s_mask = sum(1 << v for v in s)
    t_mask = sum(1 << v for v in t)
    actual = {
        (u, v)
        for u in bits(s_mask)
        for v in bits(out[u] & t_mask)
        if (u, v) not in forbidden
    }
    listed = {tuple(a) for a in crossing}
    if listed != actual:
        bad.append(
            f"listed crossing arcs differ from the digraph's: "
            f"{sorted(listed ^ actual)[:4]}"
        )
    if len(actual) >= below:
        bad.append(f"{len(actual)} arcs cross, not fewer than {below}")
    return bad


def partition(
    n: int, out: list[int], r1, r2, mid, forbidden=frozenset()
) -> list[str]:
    """An obstruction (r1, r2, y) to every eulerian factor of the allowed
    arcs: y is independent, no allowed arc enters y from r2 or leaves y
    into r1, and fewer than |y| allowed arcs run from r2 to r1."""
    r1, r2, mid = set(r1), set(r2), set(mid)
    if r1 & r2 or r1 & mid or r2 & mid or r1 | r2 | mid != set(range(n)):
        return ["the parts do not partition the vertices"]
    if not mid:
        return ["the middle part is empty"]

    def allowed(a: set[int], b: set[int]) -> list[Arc]:
        return [
            (u, v)
            for u in a
            for v in b
            if u != v and _has(out, u, v) and (u, v) not in forbidden
        ]

    bad: list[str] = []
    if allowed(mid, mid):
        bad.append("the middle part is not independent")
    if allowed(r2, mid):
        bad.append("an allowed arc runs from r2 into the middle part")
    if allowed(mid, r1):
        bad.append("an allowed arc runs from the middle part into r1")
    back = len(allowed(r2, r1))
    if back >= len(mid):
        bad.append(f"{back} arcs run from r2 to r1, not fewer than {len(mid)}")
    return bad
