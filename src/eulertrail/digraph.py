"""Core digraph type, semicompleteness predicates, named generators, and I/O.

Digraphs are simple (no loops, no parallel arcs) with vertices 0..n-1.
Adjacency is stored as one out-row and one in-row of bit masks per vertex,
which keeps neighborhood queries and set-style operations cheap on the dense
instances this package works with.
"""

from __future__ import annotations

import json
import random
from typing import Iterable, Iterator

from .errors import ParseError, PreconditionError

Arc = tuple[int, int]

# largest vertex count ``parse_json`` accepts; the adjacency rows are
# allocated before anything else can refuse an input
MAX_VERTICES = 1000


def _mask_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_of(vertices: Iterable[int]) -> int:
    """The mask with the bit of each of ``vertices`` set."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def _rows_of(arcs: Iterable[Arc], n: int) -> list[int]:
    """Out-rows of arcs of a digraph on n vertices: bit v of ``rows[u]``
    is the arc (u,v)."""
    rows = [0] * n
    for u, v in arcs:
        rows[u] |= 1 << v
    return rows


def _row_arcs(rows: Iterable[int]) -> set[Arc]:
    """The arcs of out-rows, the inverse of ``_rows_of``."""
    return {(u, v) for u, row in enumerate(rows) for v in _mask_bits(row)}


class Digraph:
    """Immutable simple digraph on vertices ``0..n-1``."""

    __slots__ = ("n", "_out", "_in")

    n: int
    _out: tuple[int, ...]
    _in: tuple[int, ...]

    def __init__(self, n: int, arcs: Iterable[Arc] = ()):
        if n < 0:
            raise PreconditionError(f"vertex count must be non-negative, got {n}")
        out_rows = [0] * n
        in_rows = [0] * n
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise PreconditionError(f"arc ({u},{v}) out of range for n={n}")
            if u == v:
                raise PreconditionError(f"loop ({u},{u}) not allowed")
            bit = 1 << v
            if out_rows[u] & bit:
                raise PreconditionError(f"duplicate arc ({u},{v})")
            out_rows[u] |= bit
            in_rows[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_out", tuple(out_rows))
        object.__setattr__(self, "_in", tuple(in_rows))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Digraph instances are immutable")

    # ---- queries ----

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self._out[u] >> v & 1)

    def out_mask(self, u: int) -> int:
        return self._out[u]

    def in_mask(self, v: int) -> int:
        return self._in[v]

    def out_neighbors(self, u: int) -> Iterator[int]:
        return _mask_bits(self._out[u])

    def in_neighbors(self, v: int) -> Iterator[int]:
        return _mask_bits(self._in[v])

    def out_degree(self, u: int) -> int:
        return self._out[u].bit_count()

    def in_degree(self, v: int) -> int:
        return self._in[v].bit_count()

    @property
    def m(self) -> int:
        """Number of arcs."""
        return sum(row.bit_count() for row in self._out)

    def arcs(self) -> Iterator[Arc]:
        """All arcs in lexicographic (tail, head) order."""
        for u in range(self.n):
            for v in _mask_bits(self._out[u]):
                yield (u, v)

    def vertices(self) -> range:
        return range(self.n)

    # ---- derived digraphs ----

    @classmethod
    def _from_rows(
        cls, n: int, out_rows: tuple[int, ...], in_rows: tuple[int, ...]
    ) -> "Digraph":
        d = object.__new__(cls)
        object.__setattr__(d, "n", n)
        object.__setattr__(d, "_out", out_rows)
        object.__setattr__(d, "_in", in_rows)
        return d

    def add_arcs(self, arcs: Iterable[Arc]) -> "Digraph":
        return Digraph(self.n, list(self.arcs()) + list(arcs))

    def remove_arcs(self, arcs: Iterable[Arc]) -> "Digraph":
        out_rows = list(self._out)
        in_rows = list(self._in)
        for u, v in set(arcs):
            if not (0 <= u < self.n and 0 <= v < self.n and out_rows[u] >> v & 1):
                raise PreconditionError(f"cannot remove absent arc ({u},{v})")
            out_rows[u] &= ~(1 << v)
            in_rows[v] &= ~(1 << u)
        return Digraph._from_rows(self.n, tuple(out_rows), tuple(in_rows))

    def reverse(self) -> "Digraph":
        return Digraph._from_rows(self.n, self._in, self._out)

    def induced(self, vertices: Iterable[int]) -> tuple["Digraph", list[int]]:
        """Subdigraph induced by ``vertices``.

        Returns the induced digraph on relabeled vertices ``0..k-1`` together
        with the sorted original-id list; position i of the list is the
        original id of new vertex i.
        """
        keep = sorted(set(vertices))
        if keep and not (0 <= keep[0] and keep[-1] < self.n):
            raise PreconditionError("induced vertices out of range")
        out_rows = []
        in_rows = []
        for u in keep:
            row_o = self._out[u]
            row_i = self._in[u]
            new_o = new_i = 0
            for i, w in enumerate(keep):
                new_o |= (row_o >> w & 1) << i
                new_i |= (row_i >> w & 1) << i
            out_rows.append(new_o)
            in_rows.append(new_i)
        return Digraph._from_rows(len(keep), tuple(out_rows), tuple(in_rows)), keep

    # ---- dunder plumbing ----

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self._out == other._out

    def __hash__(self) -> int:
        return hash((self.n, self._out))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={self.m})"


# ---- predicates ----


def require_arcs(d: Digraph, arcs: Iterable[Arc], role: str) -> None:
    """Raise ``PreconditionError`` naming the first of ``arcs`` that is not
    an arc of d.  Unlike ``has_arc``, which hot loops call unchecked, this
    refuses ends outside 0..n-1, negative ones included."""
    for u, v in arcs:
        if not (0 <= u < d.n and 0 <= v < d.n and d.has_arc(u, v)):
            raise PreconditionError(f"{role} {(u, v)} is not in the digraph")


def is_semicomplete(d: Digraph) -> bool:
    """True iff every unordered vertex pair is joined by at least one arc."""
    for u in range(d.n):
        adj = d._out[u] | d._in[u] | (1 << u)
        if adj.bit_count() != d.n:
            return False
    return True


def is_tournament(d: Digraph) -> bool:
    """True iff semicomplete with no 2-cycles (exactly one arc per pair)."""
    return is_semicomplete(d) and all(
        not (d._out[u] & d._in[u]) for u in range(d.n)
    )


# ---- generators ----


def gen_random_semicomplete(n: int, two_cycle_prob: float, seed: int) -> Digraph:
    """Random semicomplete digraph, deterministic in ``(n, two_cycle_prob, seed)``.

    Each unordered pair independently receives both arcs with probability
    ``two_cycle_prob`` and otherwise a uniformly random single direction.
    """
    if n < 0:
        raise PreconditionError("n must be non-negative")
    if not 0.0 <= two_cycle_prob <= 1.0:
        raise PreconditionError("two_cycle_prob must lie in [0, 1]")
    rng = random.Random(seed)
    arcs: list[Arc] = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < two_cycle_prob:
                arcs.append((u, v))
                arcs.append((v, u))
            elif rng.random() < 0.5:
                arcs.append((u, v))
            else:
                arcs.append((v, u))
    return Digraph(n, arcs)


def gen_d3() -> Digraph:
    """The 3-vertex semicomplete digraph with arcs xy, yz, zy, zx (x,y,z = 0,1,2).

    Its arc zy is the canonical example of an avoidable arc that lies in no
    spanning eulerian subdigraph: the unique such subdigraph is the 3-cycle.
    """
    return Digraph(3, [(0, 1), (1, 2), (2, 1), (2, 0)])


def gen_exceptional(with_cb: bool) -> Digraph:
    """The 4-vertex digraph whose arc ad is unavoidable for exceptional reasons.

    Vertices a,b,c,d = 0,1,2,3; arcs {ab, bc, cd, ad, ca, db}, optionally
    plus cb.  Both variants are semicomplete.
    """
    arcs: list[Arc] = [(0, 1), (1, 2), (2, 3), (0, 3), (2, 0), (3, 1)]
    if with_cb:
        arcs.append((2, 1))
    return Digraph(4, arcs)


def _random_tournament(n: int, rng: random.Random) -> Digraph:
    arcs = [
        (u, v) if rng.random() < 0.5 else (v, u)
        for u in range(n)
        for v in range(u + 1, n)
    ]
    return Digraph(n, arcs)


def _strong_tournament(n: int, seed: int) -> Digraph:
    # strongness check is local to avoid an import cycle with connectivity
    from .connectivity import is_strong

    for attempt in range(1000):
        t = _random_tournament(n, random.Random(f"{seed}:{attempt}"))
        if is_strong(t):
            return t
    raise PreconditionError(
        f"no strong tournament on {n} vertices found within 1000 retries"
    )


def gen_blocked_arc_tournament(
    size_a: int, size_b: int, seed_a: int, seed_b: int
) -> tuple[Digraph, Arc]:
    """Strong tournament with a distinguished arc lying in no spanning eulerian subdigraph.

    Layout: a strong tournament A on ``size_a`` vertices, a chain x → y → z
    (with x → z), and a strong tournament B on ``size_b`` vertices.  All arcs
    go A → {x,y,z} → B and A → B, except the single feedback arc from the
    first vertex of B back to vertex 0 of A.  Every closed spanning trail
    must traverse y between x and z, so the shortcut arc (x, z) is in none.

    Returns the digraph and that distinguished arc.
    """
    if size_a < 3 or size_b < 3:
        raise PreconditionError("both tournament blocks need at least 3 vertices")
    ta = _strong_tournament(size_a, seed_a)
    tb = _strong_tournament(size_b, seed_b)
    x, y, z = size_a, size_a + 1, size_a + 2
    b0 = size_a + 3
    arcs: list[Arc] = list(ta.arcs())
    arcs += [(u + b0, v + b0) for u, v in tb.arcs()]
    arcs += [(x, y), (y, z), (x, z)]
    for a in range(size_a):
        arcs += [(a, x), (a, y), (a, z)]
    for b in range(b0, b0 + size_b):
        arcs += [(x, b), (y, b), (z, b)]
    for a in range(size_a):
        for b in range(b0, b0 + size_b):
            if a == 0 and b == b0:
                arcs.append((b, a))
            else:
                arcs.append((a, b))
    return Digraph(size_a + 3 + size_b, arcs), (x, z)


# ---- stable I/O ----


def _first_bad_arc(rows: list) -> int:
    """Index of the first entry of a parsed JSON list that is not a
    ``[tail, head]`` list of two integers, or -1.  The types are exact:
    ``json.loads`` makes plain lists and ints, and a bool is no int here."""
    for i, item in enumerate(rows):
        if not (
            type(item) is list
            and len(item) == 2
            and type(item[0]) is int
            and type(item[1]) is int
        ):
            return i
    return -1


def parse_json(text: str) -> Digraph:
    """Parse ``{"n": int, "arcs": [[u, v], ...]}`` into a digraph."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at position {exc.pos}: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ParseError("top-level JSON value must be an object")
    if "n" not in obj or "arcs" not in obj:
        raise ParseError('JSON object must have keys "n" and "arcs"')
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ParseError('"n" must be a non-negative integer')
    if n > MAX_VERTICES:
        raise ParseError(f'"n" must be at most {MAX_VERTICES}')
    raw = obj["arcs"]
    if not isinstance(raw, list):
        raise ParseError('"arcs" must be a list of [tail, head] pairs')
    bad = _first_bad_arc(raw)
    if bad >= 0:
        raise ParseError(f"arc #{bad} must be a pair of integers")
    try:
        return Digraph(n, raw)  # the checked rows unpack as (tail, head)
    except PreconditionError as exc:
        raise ParseError(str(exc)) from exc


def serialize_json(d: Digraph) -> str:
    """Canonical JSON form: arcs in lexicographic (tail, head) order."""
    return json.dumps({"n": d.n, "arcs": [[u, v] for u, v in d.arcs()]})


def to_dot(d: Digraph) -> str:
    """GraphViz DOT text with one edge statement per arc."""
    lines = ["digraph {"]
    for v in range(d.n):
        lines.append(f"  {v};")
    for u, v in d.arcs():
        lines.append(f"  {u} -> {v};")
    lines.append("}")
    return "\n".join(lines)
