"""Benchmark of the eulertrail package on four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                 # every workload, untraced then traced

Run from the root of a checkout; the package is imported from ``src/``.
A run generates its inputs from the seed, makes full passes over them
until it has made three and ``--seconds`` seconds of wall time have gone
by, and checks every answer with the benchmark's own checker.  Each
operation's time is scaled to the machine's reference speed (``pace``)
and its median over the passes is its latency.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's metadata.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the run makes one untraced and one
traced pass over the same inputs and reports per-function timings, cache
hit ratios and the tracing overhead.  The exit code is 1 when an answer is
wrong (the checker rejects it, or it contradicts a guarantee of the
inputs) or the verdicts differ from those recorded for the seed, between
passes, or between the untraced and the traced pass.  Raises and
"unknown" answers count as failed items but are not wrong answers.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
SETUP_REPEATS = 7
MIN_PASSES = 3
CACHE_RATIOS = (
    "connectivity.arc_connectivity",
    "connectivity.cut_arcs",
    "decomposition.nice_decomposition",
)

# Times importing the package and parsing every input digraph in a fresh
# interpreter, scaled to reference speed.  The texts arrive on stdin, one
# per line, read before the clock starts.
SETUP_PROBE = """
import statistics, sys, time
from perfbench.pace import REFERENCE_S, reference_time
texts = sys.stdin.read().splitlines()
speed = statistics.median(reference_time() for _ in range(5))
start = time.perf_counter()
import eulertrail
for text in texts:
    eulertrail.parse_json(text)
print((time.perf_counter() - start) * REFERENCE_S / speed)
"""

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import tracer as tracing  # noqa: E402
from perfbench.pace import Pace  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def load_package():
    """Import eulertrail from this checkout's ``src``, and nowhere else."""
    if not (SRC / "eulertrail" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no eulertrail package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import eulertrail
    import eulertrail.cli
    import eulertrail.oracle

    if SRC.resolve() not in Path(eulertrail.__file__).resolve().parents:
        raise SystemExit(f"perfbench: eulertrail was imported from {eulertrail.__file__}")
    return eulertrail


class Caches:
    """Every lru_cache in the package, cleared together, with hit counts
    that survive the clearing."""

    def __init__(self) -> None:
        self.fns = {}
        for key, mod in list(sys.modules.items()):
            if mod is None or not (key == "eulertrail" or key.startswith("eulertrail.")):
                continue
            for value in vars(mod).values():
                if hasattr(value, "cache_info") and hasattr(value, "cache_clear"):
                    name = f"{value.__module__.rsplit('.', 1)[-1]}.{value.__name__}"
                    self.fns[name] = value
        self.hits = dict.fromkeys(self.fns, 0)
        self.misses = dict.fromkeys(self.fns, 0)

    def clear(self) -> None:
        for name, fn in self.fns.items():
            info = fn.cache_info()
            self.hits[name] += info.hits
            self.misses[name] += info.misses
            fn.cache_clear()

    def ratio(self, name: str) -> float:
        """Hits over lookups since the last reset; 0 when never looked up."""
        looked = self.hits.get(name, 0) + self.misses.get(name, 0)
        return self.hits[name] / looked if looked else 0.0

    def reset_counts(self) -> None:
        self.clear()
        self.hits = dict.fromkeys(self.fns, 0)
        self.misses = dict.fromkeys(self.fns, 0)


class Pass:
    """What repeated passes over the inputs measured and answered.

    ``items`` and ``failed`` count each item once, as the first pass saw it:
    later passes must repeat its verdicts, failures included, so the counts
    depend on the seed alone and not on how many passes the time allowed.
    """

    def __init__(self) -> None:
        self.samples: list[list[float]] = []
        self.items = 0
        self.failed = 0
        self.defects: list[str] = []
        self.errors: list[str] = []
        self.verdicts: list = []
        self.passes = 0
        self.pace = Pace()

    @property
    def latencies(self) -> list[float]:
        """Each operation's median scaled time over the passes."""
        return [statistics.median(times) for times in self.samples]

    @property
    def digest(self) -> str:
        text = json.dumps(self.verdicts, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_ops(
    workload, instances, seconds: float, caches: Caches, min_passes: int, between=None
) -> Pass:
    """Full passes over the inputs, in order, until ``min_passes`` are done
    and ``seconds`` of wall time have gone by; ``between`` runs after each
    pass.  Each operation's time is scaled to reference speed.  Verdicts of
    the first pass are kept, and later passes must repeat them.
    """
    result = Pass()
    pace = result.pace
    clock = time.perf_counter
    start = clock()
    while result.passes < min_passes or clock() - start < seconds:
        pos = 0
        for index, inst in enumerate(instances):
            caches.clear()
            try:
                prepared, broken = workload.prepare(inst), None
            except Exception as exc:  # the package failed on this input
                prepared, broken = None, exc
            for task in inst.tasks:
                pace.tick()
                began = clock()
                if broken is None:
                    try:
                        answer = workload.call(inst, task, prepared)
                    except Exception as exc:  # a raising call is a failed item
                        answer = exc
                else:
                    answer = broken
                took = (clock() - began) * pace.scale()
                judged = workload.judge(inst, task, answer)
                where = f"input {index}" + ("" if task is None else f", task {task}")
                if result.passes == 0:
                    result.items += judged.items
                    result.failed += judged.failed
                    result.samples.append([took])
                    result.verdicts.append(judged.verdicts)
                    result.defects += [f"{where}: {d}" for d in judged.defects]
                    result.errors += [f"{where}: {e}" for e in judged.errors]
                else:
                    result.samples[pos].append(took)
                    if judged.verdicts != result.verdicts[pos]:
                        result.defects.append(f"{where}: verdicts changed between passes")
                pos += 1
        result.passes += 1
        if between is not None:
            between()
    return result


def measure_setup(instances) -> float:
    """Import-and-parse time of a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE],
        input="\n".join(inst.text for inst in instances),
        capture_output=True, text=True, cwd=ROOT, timeout=120, check=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(ROOT)))),
    )
    return float(done.stdout.strip().splitlines()[-1])


def git_revision() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def recorded_digest(workload: str, seed: int) -> str | None:
    try:
        table = json.loads(DIGESTS.read_text())
    except FileNotFoundError:
        return None
    return table.get(workload, {}).get(str(seed))


def end_to_end(ops: Pass, setup: list[float]) -> dict:
    lat = ops.latencies
    return {
        "throughput": (ops.items / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3 if len(lat) > 1 else lat[0] * 1e3, "ms"),
        "success_frac": (1 - ops.failed / ops.items, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def per_layer(trace: tracing.Tracer, caches: Caches, plain: Pass, traced: Pass) -> dict:
    out: dict = {}
    for name, value in trace.metrics().items():
        unit = "count" if name.endswith(".calls") else "ratio" if name.endswith("_ratio") else "s"
        out[name] = (value, unit)
    for name in CACHE_RATIOS:
        out[f"{name}.hit_ratio"] = (caches.ratio(name), "ratio")
    out["tracing_overhead"] = (sum(traced.latencies) / sum(plain.latencies) - 1, "frac")
    return out


@contextlib.contextmanager
def seeded_inputs(name: str, seed: int):
    """The workload and its inputs for a seed, with a scratch directory
    inside the checkout that is removed afterwards."""
    et = load_package()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        workload = WORKLOADS[name](et, workdir)
        began = time.perf_counter()
        instances = workload.generate(random.Random(f"{name}:{seed}"), workload.size)
        yield workload, instances, time.perf_counter() - began
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def verdict_digest(name: str, seed: int) -> str:
    """The digest of one pass over a seed's inputs."""
    with seeded_inputs(name, seed) as (workload, instances, _):
        return run_ops(workload, instances, 0, Caches(), 1).digest


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """One benchmark run; returns (result line, metadata)."""
    with seeded_inputs(name, seed) as (workload, instances, generate_s):
        caches = Caches()
        meta = {
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "git_revision": git_revision(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "processes": 1,
            "threads": 1,
            "item": workload.item,
            "inputs": [[inst.n, len(inst.arcs)] for inst in instances],
            "generate_s": generate_s,
            "recorded_digest": recorded_digest(name, seed),
        }
        # set-up is timed between passes too, so that its median spans the run
        setup = []
        if trace:
            plain = run_ops(workload, instances, 0, caches, 1)
        else:
            plain = run_ops(
                workload, instances, seconds, caches, MIN_PASSES,
                between=lambda: setup.append(measure_setup(instances)),
            )
            while len(setup) < SETUP_REPEATS:
                setup.append(measure_setup(instances))
        passes = [plain]
        if trace:
            caches.reset_counts()
            trace_run = tracing.Tracer()
            trace_run.install()
            try:
                traced = run_ops(workload, instances, 0, caches, 1)
            finally:
                trace_run.remove()
            caches.clear()
            passes.append(traced)
            metrics = per_layer(trace_run, caches, plain, traced)
            meta["spans"] = trace_run.span_tree()
            meta["traced_digest"] = traced.digest
        else:
            meta["setup_runs_s"] = setup
            metrics = end_to_end(plain, setup)
        defects = [d for p in passes for d in p.defects]
        if meta["recorded_digest"] not in (None, plain.digest):
            defects.append(f"verdict digest {plain.digest} differs from the recorded one")
        if trace and traced.digest != plain.digest:
            defects.append("traced verdicts differ from untraced verdicts")
        meta.update(
            digest=plain.digest,
            operations=[len(p.latencies) for p in passes],
            items=[p.items for p in passes],
            failed_items=[p.failed for p in passes],
            passes=plain.passes,
            timed_s=[sum(p.latencies) for p in passes],
            reference_s=[
                [min(p.pace.samples), statistics.median(p.pace.samples), max(p.pace.samples)]
                for p in passes
            ],
            fail_frac=plain.failed / plain.items,
            defects=defects[:20],
            errors=[e for p in passes for e in p.errors][:20],
            error_count=sum(len(p.errors) for p in passes),
        )
    result = {
        "correct": not defects,
        "attempted": plain.items,
        "failed": plain.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, meta


def summary(result: dict, meta: dict) -> str:
    ops, items = meta["operations"][-1], meta["items"][-1]
    lines = [
        f"{meta['workload']} seed={meta['seed']} trace={meta['trace']}: "
        f"{ops} operations, {items} {meta['item']}s, {meta['passes'] or 1} pass(es), "
        f"fail_frac={meta['fail_frac']:.4f}, digest {meta['digest']}"
    ]
    shown = result["metrics"]
    if meta["trace"]:
        shown = {k: v for k, v in shown.items() if not k.endswith((".calls", ".total_s"))}
    for name, m in shown.items():
        if meta["trace"] and m["unit"] == "s" and m["value"] == 0:
            continue
        lines.append(f"  {name:<50} {m['value']:>12.6g} {m['unit']}")
    if not meta["trace"]:
        lines.append(
            f"  (latencies: medians over {meta['passes']} passes of {ops} operations; "
            f"setup over {len(meta['setup_runs_s'])} runs)"
        )
    for defect in meta["defects"]:
        lines.append(f"  WRONG {defect}")
    for error in meta["errors"]:
        lines.append(f"  FAILED {error}")
    return "\n".join(lines)


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process so that
    peak memory is the workload's own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT, check=False,
            )
            sys.stderr.write(done.stderr)
            worst = max(worst, done.returncode)
            lines = done.stdout.strip().splitlines()
            if not lines:
                combined["correct"] = False
                continue
            result = json.loads(lines[-1])
            print(lines[-2] if len(lines) > 1 else "{}")
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, value in result["metrics"].items():
                combined["metrics"][f"{name}/{key}"] = value
    print(json.dumps(combined))
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result, meta = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(summary(result, meta), file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
