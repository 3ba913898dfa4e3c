"""Tests of ``tools/scale_times.py``: smoke runs at n = 12, and pinned
answers past the benchmark's sizes."""

import importlib
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LINE = re.compile(
    r"(chain|dense) n=12 seed=(\d+) arcs=\d+ seconds=(\S+) min=(\S+) max=(\S+) "
    r"(\w+) answer=[0-9a-f]{16}$"
)


def test_repeated_runs_print_the_median_and_the_range() -> None:
    proc = subprocess.run(
        [sys.executable, "tools/scale_times.py", "--chains", "12", "--seeds", "0", "1",
         "--dense", "12", "--repeat", "3"],
        cwd=ROOT, capture_output=True, text=True, check=False, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3, lines
    for line in lines:
        match = LINE.match(line)
        assert match, line
        median, low, high = map(float, match.group(3, 4, 5))
        assert low <= median <= high


def test_merge_heavy_inputs_past_the_benchmark_sizes_keep_their_answers() -> None:
    # chains at n = 60 and a dense digraph at n = 100 weld many factor
    # components per completion, more than any benchmark workload does
    proc = subprocess.run(
        [sys.executable, "tools/scale_times.py", "--chains", "60", "--seeds", "0", "1", "2",
         "--dense", "100"],
        cwd=ROOT, capture_output=True, text=True, check=False, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    answers = [re.search(r"^(\w+ n=\d+ seed=\d+) .* ok answer=(\w+)$", line).groups()
               for line in proc.stdout.splitlines()]
    assert answers == [
        ("chain n=60 seed=0", "18d68d5dfbed5747"),
        ("chain n=60 seed=1", "69c15a58741c41ba"),
        ("chain n=60 seed=2", "d9d80cfbba03b7b6"),
        ("dense n=100 seed=1", "b237ec22d3f9f18a"),
    ]


def test_answers_that_differ_between_repeats_fail_the_run(monkeypatch, capsys) -> None:
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    scale_times = importlib.import_module("scale_times")
    digests = iter(["0" * 16, "f" * 16])
    monkeypatch.setattr(scale_times, "run_once", lambda d: (0.0, "ok", next(digests)))
    assert scale_times.main(["--chains", "12", "--seeds", "0", "--dense", "--repeat", "2"]) == 1
    assert capsys.readouterr().out.rstrip().endswith("answer=" + "0" * 16 + " DIFFERS")
