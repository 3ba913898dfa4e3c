"""Smoke test of ``tools/answer_dump.py``: the printed count and sum
describe the lines it writes, and nothing under ``perfbench`` changes."""

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
