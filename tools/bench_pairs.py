"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 tools/bench_pairs.py --base DIR --change DIR --workload NAME \
        --seeds 1 2 3 4 5 [--seconds S] [--out FILE]

Each seed makes one pair: ``perfbench/run.py`` runs once in each checkout,
from that checkout's root and on that checkout's package, with the base
going first on even-numbered pairs and the change first on odd ones.
For every end-to-end metric of ``BENCHMARK.json`` the script prints the
median [lower quartile, upper quartile] of the base runs and of the
change runs, and in how many pairs the change was better.  Each run's
``correct`` and ``failed`` follow.  ``--out`` writes one JSON line per
run: the side, the seed, and the run's own metadata and result lines.
The exit code is 1 when a run exits non-zero or reports a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("base", "change")


def run_once(root: Path, workload: str, seed: int, seconds: float) -> tuple[int, dict, dict]:
    """(exit code, metadata, result) of one benchmark run in a checkout."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env=env, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.splitlines()
    if len(lines) < 2:
        raise SystemExit(f"bench_pairs: no result from {root} seed {seed}:\n{proc.stderr}")
    return proc.returncode, json.loads(lines[-2])["meta"], json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float]:
    """Median and the two quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def directions(root: Path) -> dict[str, str]:
    """Which way is better for each end-to-end metric of the benchmark."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True, help="one pair per seed")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", help="write every run's metadata and result here")
    args = parser.parse_args(argv)
    roots = {"base": args.base.resolve(), "change": args.change.resolve()}
    better = directions(roots["change"])
    results: dict[str, list[dict]] = {side: [] for side in SIDES}
    ok = True
    out = open(args.out, "w", encoding="utf-8") if args.out else None
    try:
        for pair, seed in enumerate(args.seeds):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                code, meta, result = run_once(roots[side], args.workload, seed, args.seconds)
                ok = ok and code == 0 and result["correct"]
                results[side].append(result)
                print(f"pair {pair} seed {seed} {side}: exit {code} correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", flush=True)
                if out is not None:
                    row = {"side": side, "seed": seed, "meta": meta, "result": result}
                    out.write(json.dumps(row) + "\n")
    finally:
        if out is not None:
            out.close()
    print(f"{args.workload}, {len(args.seeds)} pairs: base median [quartiles] -> change; change wins")
    for name, way in better.items():
        base = [r["metrics"][name]["value"] for r in results["base"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        wins = sum((c > b) if way == "higher" else (c < b) for b, c in zip(base, change))
        (bm, b1, b3), (cm, c1, c3) = spread(base), spread(change)
        print(f"  {name:14} {bm:.4g} [{b1:.4g}, {b3:.4g}] -> {cm:.4g} [{c1:.4g}, {c3:.4g}]"
              f"  {wins}/{len(base)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
