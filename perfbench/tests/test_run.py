"""Small end-to-end runs of every workload through the harness."""

import json
import sys
from pathlib import Path

import pytest

from perfbench import run, tracer
from perfbench.workloads import Judgement

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
TINY = {"classify-all": 2, "trail-pairs": 1, "avoid-regimes": 9, "oracle-diff": 60}


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a few inputs; the recorded digests are for
    full-size inputs, so none applies."""
    for name, size in TINY.items():
        monkeypatch.setattr(run.WORKLOADS[name], "size", size)
    monkeypatch.setattr(run, "recorded_digest", lambda name, seed: None)


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_run_answers_correctly(tiny, name):
    result, meta = run.run_workload(name, 7, 0, False)
    assert result["correct"], meta["defects"]
    assert result["attempted"] == meta["items"][0] > 0
    # every failed item is a raise or an "unknown", none a wrong answer
    assert meta["defects"] == []
    assert result["failed"] == 0 or meta["error_count"] > 0
    assert meta["fail_frac"] == result["failed"] / result["attempted"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_and_untraced_verdicts_agree(tiny, name):
    result, meta = run.run_workload(name, 7, 0, True)
    assert meta["traced_digest"] == meta["digest"]
    assert result["correct"], meta["defects"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    calls = {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}
    assert calls["cli.main.calls"] == (name in ("classify-all", "avoid-regimes")) * TINY[name]
    assert (calls["decomposition.nice_decomposition.calls"] > 0) == (name == "classify-all")


def test_tracer_restores_every_original():
    run.load_package()
    modules = {k: dict(vars(m)) for k, m in sys.modules.items() if k.startswith("eulertrail")}
    digraph = sys.modules["eulertrail.digraph"].Digraph
    methods = dict(vars(digraph))
    trace = tracer.Tracer()
    trace.install()
    assert digraph.induced is not methods["induced"]
    trace.remove()
    assert dict(vars(digraph)) == methods
    for key, before in modules.items():
        assert dict(vars(sys.modules[key])) == before


def test_a_changed_verdict_digest_fails_the_run(tiny, monkeypatch, capsys):
    monkeypatch.setattr(run, "recorded_digest", lambda name, seed: "0" * 16)
    code = run.main(["--workload", "avoid-regimes", "--seed", "7", "--seconds", "0", "--trace", "0"])
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is False


def test_a_rejected_answer_fails_the_run(tiny, monkeypatch):
    monkeypatch.setattr(run.WORKLOADS["avoid-regimes"], "judge", _reject_all)
    result, meta = run.run_workload("avoid-regimes", 7, 0, False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def _reject_all(self, inst, task, answer):
    return Judgement(["rejected"], 1, 1, ["rejected by the test"])
