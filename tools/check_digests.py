"""Check the verdict digests of benchmark seeds without recording them.

    python3 tools/check_digests.py [--workload NAME] ... SEED [SEED ...]

Run from the root of a checkout.  For each workload and seed the script
makes one pass over the seed's inputs, as ``perfbench.run.verdict_digest``
does, and prints one line: the workload, the seed, the digest, the digest
recorded in ``perfbench/digests.json`` and the number of failed items.
Nothing is written.  The exit code is 1 when any digest differs from the
recorded one or none is recorded for the seed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.run import Caches, recorded_digest, run_ops, seeded_inputs  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="one workload; repeat for more (default: all)")
    parser.add_argument("seeds", nargs="+", type=int)
    args = parser.parse_args(argv)
    mismatched = 0
    for name in args.workload or WORKLOADS:
        for seed in args.seeds:
            with seeded_inputs(name, seed) as (workload, instances, _):
                ops = run_ops(workload, instances, 0, Caches(), 1)
            recorded = recorded_digest(name, seed)
            same = ops.digest == recorded
            mismatched += not same
            print(f"{name} {seed} digest={ops.digest} recorded={recorded} "
                  f"failed={ops.failed} {'ok' if same else 'MISMATCH'}", flush=True)
    print(f"{mismatched} mismatched")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
