"""Record the verdict digests that benchmark runs are checked against.

    python3 perfbench/record_digests.py SEED [SEED ...]

Makes one pass per workload and seed and writes the digests into
``perfbench/digests.json``.  A run whose seed is listed there fails when its
verdicts hash differently, so a change that alters verdicts on purpose
records them again with this script.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import run  # noqa: E402


def main(argv: list[str]) -> int:
    seeds = [int(arg) for arg in argv]
    table = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.exists() else {}
    for name in run.WORKLOADS:
        for seed in seeds:
            table.setdefault(name, {})[str(seed)] = run.verdict_digest(name, seed)
            print(name, seed, table[name][str(seed)], flush=True)
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
