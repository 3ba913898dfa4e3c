"""The package's memos: where they live, and that they change no answer.

Every memo is a module-level ``functools.lru_cache``, bounded unless it
takes no argument, so the benchmark's ``Caches`` finds and clears it with
the others between digraphs; a memo kept in a module-level dict or list
would survive that.
"""

import ast
import inspect
import random
import sys
from collections import Counter
from pathlib import Path

import eulertrail as et
import eulertrail.cli  # noqa: F401 - Caches finds the memos of loaded modules
import eulertrail.oracle  # noqa: F401
from eulertrail.hamilton import _cached_cycle
from instances import backward_chain, random_strong_semicomplete

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.run import Caches  # noqa: E402

MEMO_DECORATORS = {"lru_cache", "cache"}
EMPTY_CONTAINERS = {"dict", "list", "set", "defaultdict", "OrderedDict", "deque"}


def _decorator_name(node: ast.expr) -> str | None:
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Attribute):
        return target.attr
    return getattr(target, "id", None)


def _is_empty_container(node: ast.expr | None) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set)):
        return not (getattr(node, "keys", None) or getattr(node, "elts", None))
    return (
        isinstance(node, ast.Call)
        and _decorator_name(node) in EMPTY_CONTAINERS
        and not node.args
        and not node.keywords
    )


def _package_sources() -> list[Path]:
    return sorted((ROOT / "src" / "eulertrail").glob("*.py"))


def test_every_memo_is_a_module_level_lru_cache_that_the_benchmark_clears() -> None:
    memos, misplaced, state = set(), [], []
    for path in _package_sources():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                _decorator_name(dec) in MEMO_DECORATORS for dec in node.decorator_list
            ):
                memos.add(f"{path.stem}.{node.name}")
                if node not in tree.body:
                    misplaced.append(f"{path.stem}.{node.name}")
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                state.append(f"{path.stem}: {type(node).__name__.lower()} {node.names}")
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_empty_container(node.value):
                state.append(f"{path.stem}: line {node.lineno} binds an empty container")
    assert not misplaced, misplaced
    assert not state, state
    caches = Caches()
    assert set(caches.fns) == memos
    assert "hamilton._cached_cycle" in memos
    for name, fn in caches.fns.items():
        # unbounded only with no argument to key it
        bounded = fn.cache_parameters()["maxsize"] is not None
        assert bounded or not inspect.signature(fn).parameters, name


def _trail_cases():
    """Seeded pairs, n = 4-25, on backward chains and random strong
    semicomplete digraphs, grouped by digraph."""
    rng = random.Random(4471)
    for i in range(90):
        n = rng.randint(4, 25)
        d = backward_chain(n, rng) if i % 2 else random_strong_semicomplete(n, rng.randrange(10**6))
        if not et.is_strong(d):
            continue
        every = [(x, y) for x in range(n) for y in range(n) if x != y]
        yield d, rng.sample(every, min(len(every), 24))


def _answer(d: et.Digraph, x: int, y: int):
    trace: list[str] = []
    try:
        return et.spanning_trail(d, x, y, trace=trace).vertices, trace
    except (et.PreconditionError, et.ConstructionError) as exc:
        return f"{type(exc).__name__}: {exc}", trace


def test_spanning_trail_is_the_same_with_cold_and_warm_caches() -> None:
    caches = Caches()
    trails, tags = 0, Counter()
    hits = 0
    for d, pairs in _trail_cases():
        cold = []
        for x, y in pairs:
            caches.clear()
            cold.append(_answer(d, x, y))
        caches.clear()
        warm = [_answer(d, x, y) for x, y in pairs]
        hits += _cached_cycle.cache_info().hits
        assert warm == cold, sorted(d.arcs())
        trails += sum(isinstance(got, tuple) for got, _ in warm)
        tags.update(tag for _, trace in warm for tag in trace)
    caches.clear()
    assert trails >= 1000, trails
    assert hits > 500, hits
    for tag in ("mirrored", "cut-arc-ham-cycle", "direct-arc-ham-cycle",
                "direct-arc-covering-cycle", "path-plus-covering-cycle"):
        assert tags[tag] > 0, tags


def test_hamiltonian_cycle_hands_out_a_fresh_list() -> None:
    d = random_strong_semicomplete(9, 5)
    first = et.hamiltonian_cycle(d)
    expected = list(first)
    first.reverse()
    first.append(first[0])
    assert et.hamiltonian_cycle(d) == expected
    assert et.hamiltonian_cycle(d) is not et.hamiltonian_cycle(d)
