"""Smoke test of ``tools/bench_pairs.py``: one pair of zero-second runs
with the same checkout on both sides."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_one_pair_on_the_same_checkout(tmp_path) -> None:
    out = tmp_path / "runs.jsonl"
    proc = subprocess.run(
        [sys.executable, "tools/bench_pairs.py", "--base", str(ROOT), "--change", str(ROOT),
         "--workload", "avoid-regimes", "--seeds", "1", "--seconds", "0", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("pair 0 seed 1 base: exit 0 correct=True failed=")
    assert lines[1].startswith("pair 0 seed 1 change: exit 0 correct=True failed=")
    assert lines[2] == "avoid-regimes, 1 pairs: base median [quartiles] -> change; change wins"
    names = [line.split()[0] for line in lines[3:]]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert names == [m["name"] for m in spec["end_to_end"]]
    runs = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert [(r["side"], r["seed"]) for r in runs] == [("base", 1), ("change", 1)]
    assert all(r["meta"]["workload"] == "avoid-regimes" and r["result"]["correct"] for r in runs)
