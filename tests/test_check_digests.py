"""Smoke tests of ``tools/check_digests.py``: recorded seeds that must
match and leave the recorded digests untouched."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _check(workload: str, seed: int) -> tuple[str, str]:
    """The digest line's failed-item field and verdict, after checking
    that the run matched and wrote nothing."""
    digests = ROOT / "perfbench" / "digests.json"
    before = digests.read_bytes()
    proc = subprocess.run(
        [sys.executable, "tools/check_digests.py", "--workload", workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line, total = proc.stdout.splitlines()
    name, got_seed, digest, recorded, failed, verdict = line.split()
    assert (name, got_seed) == (workload, str(seed))
    assert digest.removeprefix("digest=") == recorded.removeprefix("recorded=")
    assert total == "0 mismatched"
    assert digests.read_bytes() == before
    return failed, verdict


def test_one_recorded_seed_matches_and_nothing_is_written() -> None:
    assert _check("avoid-regimes", 1) == ("failed=0", "ok")


def test_classify_all_seed_with_raising_digraphs_keeps_its_verdicts() -> None:
    """Seed 2 holds digraphs on which ``classify --all`` raises: a change
    that turns one of those raises into an answer, or an answer into a
    raise, moves the digest."""
    assert _check("classify-all", 2) == ("failed=87", "ok")


def test_trail_pairs_seed_keeps_its_known_gap() -> None:
    """Seed 0 holds the one trail-pairs item the ladder cannot answer, the
    pair (4,7) of input 24: a candidate check that refuses a sound trail
    adds a failure, and one that passes an unsound candidate hides it."""
    assert _check("trail-pairs", 0) == ("failed=1", "ok")


def test_oracle_diff_seed_answers_every_item() -> None:
    """Oracle-diff judges the avoidance answers by the exhaustive oracle.
    On seed 1, input 4339 has a factor whose merge only a relabelled
    factor finishes, and every item's verdict agrees with the oracle."""
    assert _check("oracle-diff", 1) == ("failed=0", "ok")
