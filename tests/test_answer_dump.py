"""Tests of ``tools/answer_dump.py``: the printed count and sum describe
the lines it writes, nothing under ``perfbench`` changes, and seed 1's
answers on every workload are the pinned ones, byte for byte."""

import hashlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _perfbench_files() -> dict[Path, bytes]:
    """Every file under ``perfbench`` but the bytecode caches, with its bytes."""
    return {
        p: p.read_bytes()
        for p in sorted((ROOT / "perfbench").rglob("*"))
        if p.is_file() and "__pycache__" not in p.parts
    }


def test_printed_count_and_sum_describe_the_written_lines(tmp_path) -> None:
    out = tmp_path / "answers.jsonl"
    before = _perfbench_files()
    proc = subprocess.run(
        [sys.executable, "tools/answer_dump.py", "--workload", "avoid-regimes",
         "--seeds", "1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    name, seeds, count, digest = proc.stdout.split()
    assert (name, seeds) == ("avoid-regimes", "seeds=1")
    written = out.read_bytes()
    assert int(count.removeprefix("answers=")) == written.count(b"\n") > 0
    assert digest.removeprefix("sha256=") == hashlib.sha256(written).hexdigest()
    assert _perfbench_files() == before


# The sums ``tools/answer_dump.py --seeds 1`` prints, one per workload.  A
# change that alters an answer on purpose re-pins them and says so.
PINNED = {
    "classify-all": "b8f66f41e1890197497abb1b2580d1679a044633142d30a36562b5999fd68738",
    "trail-pairs": "0bbf4a0f9b6d7cb6a9c57b906e3af5c614fcb8a37897afacc6f58f8d91c3e626",
    "avoid-regimes": "f00b2d8d69b149e190ea4bed17607d85530e9c50e1c97d7c3114659d672572aa",
    "oracle-diff": "8492890abaa44bd62b8f8df3a8e77ce43af6182bbd23465a28fc9b1eb9cbf477",
}


def test_every_workload_answers_as_pinned_byte_for_byte() -> None:
    proc = subprocess.run(
        [sys.executable, "tools/answer_dump.py", "--seeds", "1"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    sums = {}
    for line in proc.stdout.splitlines():
        name, _, _, digest = line.split()
        sums[name] = digest.removeprefix("sha256=")
    assert sums == PINNED
