"""Time ``classify_all`` on chains and dense digraphs beyond the benchmark sizes.

    python3 tools/scale_times.py [--chains 60 100 150] [--seeds 0 1 2] [--dense 100 200]

Run from the root of a checkout; the package is imported from its
``src``.  Each chain is ``perfbench.graphs.backward_chain(n,
random.Random(f"{n}:{s}"))`` for every n and seed s, and each dense
digraph is ``gen_random_semicomplete(n, 0.3, 1)``.  One line per input
gives its kind, n, seed, arc count, wall time of the call, "ok" or the
type of what it raised, and the first 16 hex digits of a sha256 over the
answer in the canonical JSON of ``tools/answer_dump.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import eulertrail as et  # noqa: E402
from answer_dump import plain  # noqa: E402
from perfbench.graphs import backward_chain  # noqa: E402


def timed(kind: str, n: int, seed: int, d: et.Digraph) -> None:
    start = time.perf_counter()
    try:
        answer, status = et.classify_all(d), "ok"
    except Exception as exc:  # a raise is an answer too
        answer, status = exc, type(exc).__name__
    took = time.perf_counter() - start
    text = json.dumps(plain(answer), sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    print(f"{kind} n={n} seed={seed} arcs={d.m} seconds={took:.2f} {status} answer={digest}",
          flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--chains", nargs="*", type=int, default=[60, 100, 150])
    parser.add_argument("--seeds", nargs="*", type=int, default=[0, 1, 2])
    parser.add_argument("--dense", nargs="*", type=int, default=[100, 200])
    args = parser.parse_args(argv)
    for n in args.chains:
        for s in args.seeds:
            timed("chain", n, s, et.Digraph(n, backward_chain(n, random.Random(f"{n}:{s}"))))
    for n in args.dense:
        timed("dense", n, 1, et.gen_random_semicomplete(n, 0.3, 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
