"""The four workloads: seeded inputs, the timed call, and the answer check.

Every workload draws its inputs from its seed with the benchmark's own
generators (``graphs``), hands the package only the generated digraph
texts and arc lists, and judges each answer with ``checker`` and with the
guarantees the inputs were built to have.  ``call`` is the only part that
is timed.

* ``classify-all`` -- ``eulertrail classify --all`` in process, one digraph
  per operation, one item per arc, 100 small digraphs so that the median
  and the 90th percentile do not hang on a few.  Half are dense random
  semicomplete ones (mostly of arc connectivity at least 2, where every arc
  must be good), half are backward chains (arc connectivity 1: cut arcs,
  and bad arcs labelled regular, left and right).  The only workload where
  ``decomposition`` and ``classify`` work, and the heaviest user of
  ``_flow`` circulations and ``factor.merge_all``.
* ``trail-pairs`` -- the library sequence ``eulertrail trail`` runs, for
  120 ordered pairs of each of 48 larger digraphs: ``arc_disjoint_paths(d,
  x, y, 2)``, then ``spanning_trail`` when the pair is linked.  One item
  per pair.  ``trails``, ``hamilton``, ``Digraph.induced`` and the Menger
  probe work while ``factor`` and ``_flow`` stay idle and the
  ``connectivity`` caches stay warm across the pairs of one digraph.
  Library calls rather than the CLI, because per-call argument parsing and
  JSON loading would otherwise take half the time.  The slow tail is the
  trails of backward chains, and how slow they are differs from chain to
  chain; with every pair of a dozen digraphs, which six chains a seed drew
  moved ``op_p90_ms`` by up to 17%, so the pairs are spread over many
  digraphs instead.
* ``avoid-regimes`` -- ``eulertrail avoid`` in process on a fresh digraph
  each time, one item per instance: the paper's guaranteed regimes (k <= 3
  arbitrary arcs or a k-arc star at arc connectivity k+1, and the
  multipartite reduction at ((k+1)^2+3)//4+1 for k = 4, 5), which must
  return a certificate, and backward chains with a cut arc forbidden (a
  cut obstruction) or an arc forbidden that every spanning eulerian
  subdigraph uses (a partition obstruction), 50 instances of each.  Caches
  are cold on every operation, so ``arc_connectivity`` is paid in full.
  The reduction route makes up the slowest tenth, and its times differ
  fivefold from instance to instance, so ``op_p90_ms`` needs many of them.
* ``oracle-diff`` -- the factor and avoidance decisions against the
  exhaustive oracle on digraphs of 5 vertices with up to six forbidden
  arcs.  The only workload where ``oracle`` runs.  Six vertices are left
  out: there the slowest 1% of instances take a third of the time (single
  ones up to seconds, and at seven vertices up to a minute), so a handful
  of instances would decide a run's throughput.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field

from . import checker
from . import graphs as g


@dataclass
class Instance:
    """One generated digraph and what the workload asks about it."""

    n: int
    arcs: list
    kind: str
    text: str = ""
    out: list = field(default_factory=list)
    forbidden: frozenset = frozenset()
    tasks: list = field(default_factory=list)
    facts: dict = field(default_factory=dict)
    paths: tuple = ()

    def __post_init__(self) -> None:
        self.text = g.to_json(self.n, self.arcs)
        self.out = g.out_rows(self.n, self.arcs)
        if not self.tasks:
            self.tasks = [None]


@dataclass
class Judgement:
    """Verdicts of one operation and how many of its items failed.

    ``defects`` are wrong answers: a rejected certificate or obstruction,
    or a definite verdict that contradicts a guarantee.  ``errors`` are
    failures without a wrong answer: a raise, an input-error exit or an
    "unknown".  Both count as failed items.
    """

    verdicts: list
    items: int
    failed: int
    defects: list
    errors: list = field(default_factory=list)


# Sizes and two-cycle probabilities are spread evenly over their ranges
# rather than drawn, so that every seed gets the same mix and the seed
# changes only the structure; that keeps the figures of different seeds
# comparable.


def _size(j: int, lo: int, hi: int) -> int:
    """The j-th size of a family, cycling through lo..hi."""
    return lo + j % (hi - lo + 1)


def _share(j: int, lo: float, hi: float) -> float:
    """The j-th value of a family, spread evenly over [lo, hi)."""
    return lo + (hi - lo) * (j * 0.6180339887498949 % 1.0)


def _strong_semicomplete(rng: random.Random, n: int, p: float, lam: int):
    """A random semicomplete digraph of arc connectivity at least ``lam``."""
    for _ in range(1000):
        arcs = g.random_semicomplete(n, p, rng)
        if g.arc_connectivity_at_least(g.out_rows(n, arcs), lam):
            return arcs
    raise RuntimeError(f"no {lam}-arc-strong digraph at n={n}, p={p:.3f}")


def _chain(rng: random.Random, n: int):
    return g.relabel(n, g.backward_chain(n, rng), rng)


def _cli(main, argv: list[str]):
    """Run the CLI entry point in process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


class Workload:
    name = ""
    item = ""
    size = 0  # inputs in one pass at the benchmark's run length

    def __init__(self, et, workdir: str) -> None:
        self.et = et
        self.workdir = workdir

    def generate(self, rng: random.Random, size: int) -> list[Instance]:
        raise NotImplementedError

    def prepare(self, inst: Instance):
        """Untimed per-digraph work before its first operation."""
        return None

    def call(self, inst: Instance, task, prepared):
        raise NotImplementedError

    def judge(self, inst: Instance, task, answer) -> Judgement:
        raise NotImplementedError

    def _write(self, inst: Instance, index: int) -> None:
        """Files the CLI reads: the digraph and its forbidden arcs."""
        base = os.path.join(self.workdir, f"{self.name}-{index}")
        with open(base + ".json", "w", encoding="utf-8") as fh:
            fh.write(inst.text)
        with open(base + ".arcs.json", "w", encoding="utf-8") as fh:
            json.dump(sorted([u, v] for u, v in inst.forbidden), fh)
        inst.paths = (base + ".json", base + ".arcs.json")


def _failed_call(answer, items: int) -> Judgement | None:
    if isinstance(answer, Exception):
        return Judgement(["raised"] * items, items, items, [], [f"raised {answer!r}"])
    return None


# ---- classify-all ----


class ClassifyAll(Workload):
    name = "classify-all"
    item = "arc"
    size = 100

    def generate(self, rng, size):
        found = []
        for i in range(size):
            n = _size(i // 2, 9, 14)
            if i % 2:
                arcs = _strong_semicomplete(rng, n, _share(i // 2, 0.0, 0.3), 1)
                kind = "dense"
            else:
                arcs = _chain(rng, n)
                kind = "chain"
            inst = Instance(n, arcs, kind)
            inst.facts = {
                "cut_arcs": g.cut_arcs(inst.out),
                "lambda_ge_2": g.arc_connectivity_at_least(inst.out, 2),
            }
            self._write(inst, i)
            found.append(inst)
        return found

    def call(self, inst, task, prepared):
        return _cli(self.et.cli.main, ["classify", "--all", "--quiet", inst.paths[0]])

    def judge(self, inst, task, answer):
        m = len(inst.arcs)
        failed = _failed_call(answer, m)
        if failed:
            return failed
        code, text = answer
        if code != 0:
            return Judgement([f"exit {code}"] * m, m, m, [], [f"classify exited {code}"])
        rows = {tuple(r["arc"]): r for r in json.loads(text)["arcs"]}
        verdicts, defects, bad = [], [], 0
        for arc in sorted(inst.arcs):
            row = rows.get(arc)
            problems = ["arc missing from the output"] if row is None else self._row(inst, arc, row)
            if problems:
                bad += 1
                defects.append(f"arc {arc}: {problems}")
            verdicts.append(
                None if row is None else [row["good"], row["bad_pattern"], row["unavoidable"]]
            )
        return Judgement(verdicts, m, bad, defects)

    @staticmethod
    def _row(inst: Instance, arc, row) -> list[str]:
        n, out = inst.n, inst.out
        bad: list[str] = []
        if row["good"]:
            witness = row["witness"] or []
            bad += checker.closed_subdigraph(n, out, witness)
            if list(arc) not in witness:
                bad.append("the witness misses its arc")
        elif row["bad_pattern"] not in ("regular", "left", "right"):
            bad.append(f"bad arc with pattern {row['bad_pattern']!r}")
        elif inst.facts["lambda_ge_2"]:
            bad.append("a bad arc in a 2-arc-strong digraph")
        kind = row["unavoidable"]
        is_cut = arc in inst.facts["cut_arcs"]
        if is_cut != (kind == "cut"):
            bad.append(f"cut arc {is_cut} but unavoidable kind {kind!r}")
        if kind == "cut":
            cert = row["cut_certificate"] or {}
            bad += checker.cut(
                n, out, cert.get("side_s", ()), cert.get("side_t", ()),
                cert.get("crossing_arcs", ()), 1, forbidden={arc},
            )
        elif kind is False:
            bad += checker.closed_subdigraph(
                n, out, row["avoidance_witness"] or [], forbidden={arc}
            )
        else:
            part = row["partition"] or {}
            bad += checker.partition(
                n, out, part.get("r1", ()), part.get("r2", ()), part.get("y", ()),
                forbidden={arc},
            )
        return bad


# ---- trail-pairs ----


class TrailPairs(Workload):
    name = "trail-pairs"
    item = "pair"
    size = 48
    pairs = 120  # ordered pairs asked of each digraph

    def generate(self, rng, size):
        found = []
        for i in range(size):
            n = _size(i // 2, 20, 25)
            if i % 2:
                arcs = _strong_semicomplete(rng, n, _share(i // 2, 0.0, 0.5), 2)
                kind = "dense"
            else:
                arcs = _chain(rng, n)
                kind = "chain"
            inst = Instance(n, arcs, kind)
            every = [(x, y) for x in range(n) for y in range(n) if x != y]
            inst.tasks = rng.sample(every, self.pairs)
            inst.facts = {"lambda_ge_2": g.arc_connectivity_at_least(inst.out, 2)}
            found.append(inst)
        return found

    def prepare(self, inst):
        return self.et.parse_json(inst.text)

    def call(self, inst, task, d):
        x, y = task
        probe = self.et.arc_disjoint_paths(d, x, y, 2)
        if isinstance(probe, self.et.CutCertificate):
            return probe
        return self.et.spanning_trail(d, x, y)

    def judge(self, inst, task, answer):
        failed = _failed_call(answer, 1)
        if failed:
            return failed
        x, y = task
        if isinstance(answer, self.et.Trail):
            verdict = "trail"
            bad = checker.open_trail(inst.n, inst.out, answer.vertices, x, y)
        else:
            verdict = "cut"
            bad = checker.cut(
                inst.n, inst.out, answer.side_s, answer.side_t,
                answer.crossing_arcs, 2, x=x, y=y,
            )
            if inst.facts["lambda_ge_2"]:
                bad.append("a cut below 2 in a 2-arc-strong digraph")
        defects = [f"pair {task}: {bad}"] if bad else []
        return Judgement([verdict], 1, int(bool(bad)), defects)


# ---- avoid-regimes ----


def _reduction_set(rng: random.Random, n: int, arcs: list, k: int):
    """k forbidden arcs holding the 2-cycles a-b and b-c, which leave a
    remainder that is not multipartite and so take the reduction route."""
    have = set(arcs)
    while True:
        a, b, c = rng.sample(range(n), 3)
        if {(a, b), (b, a), (b, c), (c, b)} <= have:
            break
    chosen = {(a, b), (b, a), (b, c), (c, b)}
    pool = [x for x in arcs if x not in chosen and not {a, b, c} & set(x)]
    chosen.update(rng.sample(pool, k - len(chosen)))
    return chosen


def _unavoidable_non_cut(inst: Instance) -> list:
    """Non-cut arcs (u, v) whose ends, once the arc is gone, have the same
    out- and in-neighbourhoods, disjoint from each other, with exactly one
    arc from the out-side to the in-side."""
    out = inst.out
    inn = g.reverse_rows(out)
    cuts = g.cut_arcs(out)
    found = []
    for u, v in inst.arcs:
        if (u, v) in cuts:
            continue
        out_u = out[u] & ~(1 << v)
        in_v = inn[v] & ~(1 << u)
        if out_u != out[v] or inn[u] != in_v or out_u & inn[u]:
            continue
        crossing = sum((out[a] & inn[u]).bit_count() for a in g.bits(out_u))
        if crossing == 1:
            found.append((u, v))
    return found


class AvoidRegimes(Workload):
    name = "avoid-regimes"
    item = "instance"
    size = 450
    regimes = (
        "arbitrary-1", "arbitrary-2", "arbitrary-3", "star-4", "star-5",
        "reduction-4", "reduction-5", "chain-cut", "chain-partition",
    )

    def generate(self, rng, size):
        found = []
        for i in range(size):
            regime = self.regimes[i % len(self.regimes)]
            family, _, k = regime.partition("-")
            j = i // len(self.regimes)
            if family == "chain":
                n = _size(j, 12, 30)
                while True:
                    arcs = _chain(rng, n)
                    inst = Instance(n, arcs, regime)
                    pool = (
                        sorted(g.cut_arcs(inst.out)) if k == "cut"
                        else _unavoidable_non_cut(inst)
                    )
                    if pool:
                        break
                inst.forbidden = frozenset([rng.choice(pool)])
                inst.facts = {"expect": "obstruction"}
            else:
                k = int(k)
                if family == "reduction":
                    lam = ((k + 1) ** 2 + 3) // 4 + 1
                    n = _size(j, lam + 6, 30)
                    arcs = _strong_semicomplete(rng, n, _share(j, 0.7, 1.0), lam)
                    forbidden = _reduction_set(rng, n, arcs, k)
                elif family == "star":
                    n = _size(j, 12, 30)
                    arcs = _strong_semicomplete(rng, n, _share(j, 0.7, 1.0), k + 1)
                    center = rng.randrange(n)
                    forbidden = rng.sample([a for a in arcs if center in a], k)
                else:
                    n = _size(j, 12, 30)
                    arcs = _strong_semicomplete(rng, n, _share(j, 0.5, 1.0), k + 1)
                    forbidden = rng.sample(arcs, k)
                inst = Instance(n, arcs, regime)
                inst.forbidden = frozenset(forbidden)
                inst.facts = {"expect": "certificate"}
            self._write(inst, i)
            found.append(inst)
        return found

    def call(self, inst, task, prepared):
        path, arcs_path = inst.paths
        return _cli(self.et.cli.main, ["avoid", "--quiet", path, "--arcs", arcs_path])

    def judge(self, inst, task, answer):
        failed = _failed_call(answer, 1)
        if failed:
            return failed
        code, text = answer
        n, out, forbidden = inst.n, inst.out, inst.forbidden
        expect = inst.facts["expect"]
        if code == 0:
            verdict = "certificate"
            bad = checker.closed_subdigraph(
                n, out, json.loads(text)["certificate"], forbidden
            )
        elif code == 2:
            obstruction = json.loads(text)["obstruction"]
            verdict = obstruction["kind"]
            if verdict == "cut":
                cut = obstruction["cut"]
                bad = checker.cut(
                    n, out, cut["side_s"], cut["side_t"], cut["crossing_arcs"], 1,
                    forbidden=forbidden,
                )
            else:
                part = obstruction["partition"]
                bad = checker.partition(n, out, part["r1"], part["r2"], part["y"], forbidden)
        else:
            verdict = "unknown" if code == 3 else f"exit {code}"
            error = f"{inst.kind} {sorted(forbidden)}: avoid exited {code}"
            return Judgement([verdict], 1, 1, [], [error])
        if (verdict == "certificate") != (expect == "certificate"):
            bad.append(f"{inst.kind} expects a {expect}, got a {verdict}")
        defects = [f"{inst.kind} {sorted(forbidden)}: {bad}"] if bad else []
        return Judgement([verdict], 1, int(bool(bad)), defects)


# ---- oracle-diff ----


class OracleDiff(Workload):
    name = "oracle-diff"
    item = "instance"
    size = 6000

    def generate(self, rng, size):
        found = []
        for i in range(size):
            arcs = g.random_semicomplete(5, _share(i, 0.0, 1.0), rng)
            inst = Instance(5, arcs, "semicomplete")
            inst.forbidden = frozenset(rng.sample(arcs, i % 7))
            inst.facts = {"strong": g.is_strong(inst.out)}
            found.append(inst)
        return found

    def prepare(self, inst):
        return self.et.parse_json(inst.text)

    def call(self, inst, task, d):
        et, oracle, avoid = self.et, self.et.oracle, inst.forbidden
        factor = oracle.oracle_eulerian_factor(d, avoid), et.eulerian_factor(d, avoid)
        if not inst.facts["strong"]:
            return factor, None
        spanning = (
            oracle.enumerate_spanning_eulerian(d, must_avoid=avoid, limit=1),
            et.spanning_eulerian_avoiding(d, avoid),
        )
        return factor, spanning

    def judge(self, inst, task, answer):
        failed = _failed_call(answer, 1)
        if failed:
            return failed
        et, n, out, avoid = self.et, inst.n, inst.out, inst.forbidden
        (exists, fast), spanning = answer
        bad: list[str] = []
        if isinstance(fast, et.ObstructionPartition):
            bad += checker.partition(n, out, fast.r1, fast.r2, fast.y, avoid)
        else:
            bad += checker.closed_subdigraph(n, out, fast.arcs, avoid, connected=False)
        if exists != (not isinstance(fast, et.ObstructionPartition)):
            bad.append(f"oracle factor {exists}, fast {type(fast).__name__}")
        verdict = [exists, None]
        if spanning is not None:
            found, got = spanning
            if found:
                bad += checker.closed_subdigraph(n, out, found[0], avoid)
            if isinstance(got, et.EulerianSubdigraph):
                verdict[1] = "certificate"
                bad += checker.closed_subdigraph(n, out, got.arcs, avoid)
            elif isinstance(got, et.NonStrongCut):
                verdict[1] = "cut"
                c = got.certificate
                bad += checker.cut(n, out, c.side_s, c.side_t, c.crossing_arcs, 1, avoid)
            elif isinstance(got, et.ObstructionPartition):
                verdict[1] = "partition"
                bad += checker.partition(n, out, got.r1, got.r2, got.y, avoid)
            else:
                verdict[1] = "unknown"
            if verdict[1] != "unknown" and bool(found) != (verdict[1] == "certificate"):
                bad.append(f"oracle found {bool(found)}, fast {verdict[1]}")
        where = f"{inst.text} avoid {sorted(avoid)}"
        defects = [f"{where}: {bad}"] if bad else []
        errors = [f"{where}: avoidance answer unknown"] if verdict[1] == "unknown" else []
        return Judgement([verdict], 1, int(bool(bad or errors)), defects, errors)


WORKLOADS = {w.name: w for w in (ClassifyAll, TrailPairs, AvoidRegimes, OracleDiff)}
