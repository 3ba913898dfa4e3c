"""Time ``classify_all`` on chains and dense digraphs beyond the benchmark sizes.

    python3 tools/scale_times.py [--chains 60 100 150] [--seeds 0 1 2] [--dense 100 200]
        [--repeat N]

Run from the root of a checkout; the package is imported from its
``src``.  Each chain is ``perfbench.graphs.backward_chain(n,
random.Random(f"{n}:{s}"))`` for every n and seed s, and each dense
digraph is ``gen_random_semicomplete(n, 0.3, 1)``.  Each input is timed
``--repeat`` times (default 1), with every ``lru_cache`` of the package
cleared before each run, so every run starts cold.  One line per input
gives its kind, n, seed, arc count, the median wall time of the call and
the min and max over the repeats, "ok" or the type of what it raised,
and the first 16 hex digits of a sha256 over the answer in the canonical
JSON of ``tools/answer_dump.py``.  When the repeats of an input give
different answers the line ends in "DIFFERS" and the exit code is 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import eulertrail as et  # noqa: E402
from answer_dump import plain  # noqa: E402
from perfbench.graphs import backward_chain  # noqa: E402
from perfbench.run import Caches  # noqa: E402


def run_once(d: et.Digraph) -> tuple[float, str, str]:
    """Wall time, status and answer digest of one cold ``classify_all(d)``."""
    Caches().clear()  # built per run: it finds the memos of every module loaded so far
    start = time.perf_counter()
    try:
        answer, status = et.classify_all(d), "ok"
    except Exception as exc:  # a raise is an answer too
        answer, status = exc, type(exc).__name__
    took = time.perf_counter() - start
    text = json.dumps(plain(answer), sort_keys=True, separators=(",", ":"))
    return took, status, hashlib.sha256(text.encode()).hexdigest()[:16]


def timed(kind: str, n: int, seed: int, d: et.Digraph, repeat: int) -> bool:
    """Print one line for the input; False when its repeats answer differently."""
    runs = [run_once(d) for _ in range(repeat)]
    took = [t for t, _, _ in runs]
    same = len({(status, digest) for _, status, digest in runs}) == 1
    _, status, digest = runs[0]
    print(f"{kind} n={n} seed={seed} arcs={d.m} seconds={statistics.median(took):.2f} "
          f"min={min(took):.2f} max={max(took):.2f} {status} answer={digest}"
          f"{'' if same else ' DIFFERS'}", flush=True)
    return same


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--chains", nargs="*", type=int, default=[60, 100, 150])
    parser.add_argument("--seeds", nargs="*", type=int, default=[0, 1, 2])
    parser.add_argument("--dense", nargs="*", type=int, default=[100, 200])
    parser.add_argument("--repeat", type=int, default=1, help="runs per input")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    same = True
    for n in args.chains:
        for s in args.seeds:
            d = et.Digraph(n, backward_chain(n, random.Random(f"{n}:{s}")))
            same = timed("chain", n, s, d, args.repeat) and same
    for n in args.dense:
        same = timed("dense", n, 1, et.gen_random_semicomplete(n, 0.3, 1), args.repeat) and same
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
