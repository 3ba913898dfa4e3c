"""Smoke test of ``tools/check_digests.py``: one recorded seed of one
workload, which must match and leave the recorded digests untouched."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_one_recorded_seed_matches_and_nothing_is_written() -> None:
    digests = ROOT / "perfbench" / "digests.json"
    before = digests.read_bytes()
    proc = subprocess.run(
        [sys.executable, "tools/check_digests.py", "--workload", "avoid-regimes", "1"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    line, total = proc.stdout.splitlines()
    name, seed, digest, recorded, failed, verdict = line.split()
    assert (name, seed, verdict) == ("avoid-regimes", "1", "ok")
    assert digest.removeprefix("digest=") == recorded.removeprefix("recorded=")
    assert failed == "failed=0"
    assert total == "0 mismatched"
    assert digests.read_bytes() == before
