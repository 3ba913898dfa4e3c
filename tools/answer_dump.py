"""Dump every answer the benchmark workloads get, certificates included.

    python3 tools/answer_dump.py [--workload NAME ...] [--seeds 1 2 3] [--out FILE]

Run from the root of a checkout.  Inputs come from ``perfbench``'s own
generators and every package cache is cleared before each digraph, as in
a benchmark pass; nothing under ``perfbench`` is changed.  Each answer is
turned into canonical JSON (dataclasses by field, sets sorted, a raise as
its type and message), and one sha256 per workload, over all the chosen
seeds, goes to stdout.  The classify-all and avoid-regimes workloads run
the CLI, so their answers are its exit code and its stdout as printed,
and their sums cover those bytes.  Two trees that print the same lines
gave the same answers, byte for byte; ``--out`` writes one JSON line per
answer so that a difference can be located with ``diff``.  The verdict
digests of ``perfbench`` hash only verdict kinds, so they cannot show
this.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.run import Caches, seeded_inputs  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def plain(obj, memo: dict | None = None):
    """A JSON-ready form of an answer that is the same whenever the answer is.

    A dataclass or a set met twice in one answer, such as a witness that
    many rows share, is converted once: ``memo`` maps its id to the object
    and its form, and holding the object keeps the id from being reused."""
    if memo is None:
        memo = {}
    if id(obj) in memo:
        return memo[id(obj)][1]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {f.name: plain(getattr(obj, f.name), memo) for f in dataclasses.fields(obj)}
        form = {type(obj).__name__: fields}
    elif isinstance(obj, (set, frozenset)):
        form = sorted((plain(x, memo) for x in obj), key=json.dumps)
    elif isinstance(obj, (list, tuple)):
        return [plain(x, memo) for x in obj]
    elif isinstance(obj, BaseException):
        return {"raised": type(obj).__name__, "message": str(obj)}
    else:
        return obj
    memo[id(obj)] = obj, form
    return form


def answers(name: str, seed: int):
    """(input index, task, answer) for one pass over a seed's inputs."""
    with seeded_inputs(name, seed) as (workload, instances, _):
        caches = Caches()
        for index, inst in enumerate(instances):
            caches.clear()
            try:
                prepared, broken = workload.prepare(inst), None
            except Exception as exc:  # the package failed on this input
                prepared, broken = None, exc
            for task in inst.tasks:
                answer = broken
                if broken is None:
                    try:
                        answer = workload.call(inst, task, prepared)
                    except Exception as exc:  # a raise is an answer too
                        answer = exc
                yield index, task, answer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="+", choices=list(WORKLOADS), default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    parser.add_argument("--out", help="also write one JSON line per answer here")
    args = parser.parse_args(argv)
    out = open(args.out, "w", encoding="utf-8") if args.out else None
    try:
        for name in args.workload:
            digest = hashlib.sha256()
            count = 0
            for seed in args.seeds:
                for index, task, answer in answers(name, seed):
                    row = {"workload": name, "seed": seed, "input": index,
                           "task": plain(task), "answer": plain(answer)}
                    line = json.dumps(row, sort_keys=True, separators=(",", ":"))
                    digest.update(line.encode() + b"\n")
                    count += 1
                    if out is not None:
                        out.write(line + "\n")
            seeds = ",".join(map(str, args.seeds))
            print(f"{name} seeds={seeds} answers={count} sha256={digest.hexdigest()}")
    finally:
        if out is not None:
            out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
