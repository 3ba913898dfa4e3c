"""Command-line surface.

Subcommands expose the decision procedures with machine-readable
certificates: ``analyze`` (connectivity and decomposition report),
``classify`` (per-arc containment and unavoidability), ``trail``
(spanning trail between two vertices), ``avoid`` (spanning eulerian
subdigraph avoiding prescribed arcs), and ``conjecture-search`` (random
probe for avoidance counterexamples).  The answer goes to stdout as
one line of JSON with sorted keys (``python3 -m json.tool`` indents it),
a short human summary to stderr; exit codes are 0 for
decided-with-certificate, 2 for decided-impossible-with-obstruction, 3
for unknown, 1 for input errors.  The library checks each certificate
once, where it builds it; the commands here read the input and print
the answer.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from functools import lru_cache, partial
from pathlib import Path

from .classify import (
    ArcContainment,
    ArcUnavoidability,
    _containment,
    _require,
    _unavoidability,
    classify_all,
)
from .connectivity import (
    CutCertificate,
    _arc_strong,
    arc_connectivity,
    arc_disjoint_paths,
    cut_arcs,
    is_strong,
)
from .decomposition import (
    ignored_sets,
    natural_backward_ordering,
    nice_decomposition,
    one_decomposition,
)
from .digraph import (
    MAX_VERTICES, Arc, Digraph, _first_bad_arc, gen_random_semicomplete, is_semicomplete,
    parse_json, to_dot,
)
from .errors import ConstructionError, EulertrailError, ParseError, PreconditionError
from .factor import NonStrongCut, ObstructionPartition, spanning_eulerian_avoiding
from .trails import EulerianSubdigraph, _spanning_trail

EXIT_CERTIFICATE = 0
EXIT_INPUT = 1
EXIT_OBSTRUCTION = 2
EXIT_UNKNOWN = 3


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit with the input-error code."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


# ---- serialization helpers ----


def _arc_rows(arcs) -> list[list[int]]:
    return [[u, v] for u, v in sorted(arcs)]


def _cut_json(cert: CutCertificate) -> dict:
    return {
        "side_s": sorted(cert.side_s),
        "side_t": sorted(cert.side_t),
        "crossing_arcs": _arc_rows(cert.crossing_arcs),
    }


def _partition_json(part: ObstructionPartition) -> dict:
    return {"r1": sorted(part.r1), "r2": sorted(part.r2), "y": sorted(part.y)}


def _digraph_json(d: Digraph) -> dict:
    return {"n": d.n, "arcs": _arc_rows(d.arcs())}


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _say(args: argparse.Namespace, text: str) -> None:
    if not args.quiet:
        print(text, file=sys.stderr)


# ---- input handling ----


def _load_digraph(path: str) -> Digraph:
    text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    return parse_json(text)


def _load_arc_file(path: str) -> frozenset[Arc]:
    text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"arc file is not valid JSON: {exc}") from exc
    if not isinstance(rows, list):
        raise ParseError("arc file must hold a JSON list of [tail, head] pairs")
    bad = _first_bad_arc(rows)
    if bad >= 0:
        raise ParseError(f"bad arc entry: {rows[bad]!r}")
    return frozenset((u, v) for u, v in rows)


# ---- analyze ----


def cmd_analyze(args: argparse.Namespace) -> int:
    d = _load_digraph(args.input)
    if args.format == "dot":
        print(to_dot(d), end="")
        _say(args, f"n={d.n} m={d.m} (dot)")
        return EXIT_CERTIFICATE
    strong = is_strong(d)
    lam = arc_connectivity(d)
    cuts = cut_arcs(d) if strong else None
    payload: dict = {
        "n": d.n,
        "m": d.m,
        "strong": strong,
        "lambda": lam,
        "cut_arcs": None if cuts is None else _arc_rows(cuts),
        "decomposition": None,
        "backward_ordering": None,
        "ignored_sets": None,
    }
    if strong and is_semicomplete(d) and d.n >= 2:
        dec = nice_decomposition(d) if d.n >= 4 else one_decomposition(d)
        payload["decomposition"] = [sorted(s) for s in dec.sets]
        try:
            order = natural_backward_ordering(dec, d)
        except PreconditionError:
            order = None
        if order is not None:
            payload["backward_ordering"] = [[s, t] for s, t in order]
            payload["ignored_sets"] = sorted(ignored_sets(dec, d))
    _say(
        args,
        f"n={d.n} m={d.m} strong={strong} lambda={lam} "
        f"cut_arcs={'none' if cuts is None else len(cuts)}",
    )
    _emit(payload)
    return EXIT_CERTIFICATE


# ---- classify ----


def _classify_row(
    cont: ArcContainment,
    unav: ArcUnavoidability,
    lists: dict[EulerianSubdigraph, list[list[int]]],
) -> dict:
    """One arc's row; rows that share a witness share its sorted arc list,
    kept in ``lists``."""
    arc = cont.arc
    for witness in (cont.witness, unav.avoidance_witness):
        if witness is not None and witness not in lists:
            lists[witness] = _arc_rows(witness.arcs)
    return {
        "arc": [arc[0], arc[1]],
        "good": cont.in_some,
        "bad_pattern": cont.obstruction,
        "witness": lists[cont.witness] if cont.witness else None,
        "unavoidable": unav.kind if unav.unavoidable else False,
        "cut_certificate": _cut_json(unav.cut_certificate)
        if unav.cut_certificate
        else None,
        "partition": _partition_json(unav.partition) if unav.partition else None,
        "avoidance_witness": lists[unav.avoidance_witness]
        if unav.avoidance_witness
        else None,
    }


def cmd_classify(args: argparse.Namespace) -> int:
    d = _load_digraph(args.input)
    lists: dict[EulerianSubdigraph, list[list[int]]] = {}
    if args.arc is not None:
        arc = (args.arc[0], args.arc[1])
        _require(d, [arc])
        row = _classify_row(_containment(d, arc), _unavoidability(d, arc, []), lists)
        _say(
            args,
            f"arc {arc}: "
            + ("good" if row["good"] else f"bad ({row['bad_pattern']})")
            + ", "
            + (
                f"unavoidable ({row['unavoidable']})"
                if row["unavoidable"]
                else "avoidable"
            ),
        )
        _emit(row)
        return EXIT_CERTIFICATE
    rows = [_classify_row(cont, unav, lists) for cont, unav in classify_all(d)]
    good = sum(1 for r in rows if r["good"])
    heavy = sum(1 for r in rows if r["unavoidable"])
    _say(
        args,
        f"{len(rows)} arcs: {good} good, {len(rows) - good} bad; "
        f"{heavy} unavoidable",
    )
    _emit({"n": d.n, "arcs": rows})
    return EXIT_CERTIFICATE


# ---- trail ----


def cmd_trail(args: argparse.Namespace) -> int:
    d = _load_digraph(args.input)
    x, y = args.src, args.dst
    if not is_semicomplete(d):
        raise PreconditionError("trail construction requires a semicomplete digraph")
    if not is_strong(d):
        raise PreconditionError("trail construction requires a strong digraph")
    if not (0 <= x < d.n and 0 <= y < d.n) or x == y:
        raise PreconditionError("endpoints must be two distinct vertices")
    probe = arc_disjoint_paths(d, x, y, 2)
    if isinstance(probe, CutCertificate):
        _say(args, f"no two arc-disjoint paths {x}->{y}: cut of size {len(probe.crossing_arcs)}")
        _emit({"trail": None, "cut": _cut_json(probe)})
        return EXIT_OBSTRUCTION
    trail = _spanning_trail(d, x, y, paths=probe)
    _say(args, f"spanning trail {x}->{y} with {len(trail.vertices) - 1} arcs")
    _emit({"trail": list(trail.vertices), "cut": None})
    return EXIT_CERTIFICATE


# ---- avoid ----


def cmd_avoid(args: argparse.Namespace) -> int:
    d = _load_digraph(args.input)
    forbidden = _load_arc_file(args.arcs) if args.arcs else frozenset()
    result = spanning_eulerian_avoiding(d, forbidden)
    if isinstance(result, EulerianSubdigraph):
        _say(args, f"certificate with {len(result.arcs)} arcs")
        _emit({"certificate": _arc_rows(result.arcs), "obstruction": None})
        return EXIT_CERTIFICATE
    if isinstance(result, NonStrongCut):
        _say(args, "obstruction: allowed arcs are not strongly connected")
        _emit(
            {
                "certificate": None,
                "obstruction": {"kind": "cut", "cut": _cut_json(result.certificate)},
            }
        )
        return EXIT_OBSTRUCTION
    if isinstance(result, ObstructionPartition):
        _say(args, "obstruction: no eulerian factor avoids the set")
        _emit(
            {
                "certificate": None,
                "obstruction": {
                    "kind": "partition",
                    "partition": _partition_json(result),
                },
            }
        )
        return EXIT_OBSTRUCTION
    _say(args, "unknown: no certificate or obstruction found")
    _emit({"certificate": None, "obstruction": None})
    return EXIT_UNKNOWN


# ---- conjecture search ----


def _gen_hard_instance(
    rng: random.Random, k: int, n_max: int
) -> tuple[Digraph, frozenset[Arc]] | None:
    """One random instance with arc connectivity above k, or None."""
    n_min = max(4, k + 2)
    for _ in range(400):
        n = rng.randint(n_min, n_max)
        prob = rng.uniform(0.55, 1.0)
        d = gen_random_semicomplete(n, prob, rng.randrange(1 << 30))
        if not _arc_strong(d, k + 1):
            continue
        avoid = frozenset(rng.sample(list(d.arcs()), k))
        return d, avoid
    return None


def _run_trial(seed: int, k: int, n_max: int, index: int) -> dict:
    rng = random.Random(f"{seed}:{index}")
    inst = _gen_hard_instance(rng, k, n_max)
    if inst is None:
        return {"index": index, "status": "skipped"}
    d, avoid = inst
    result = spanning_eulerian_avoiding(d, avoid)
    if isinstance(result, EulerianSubdigraph):
        return {"index": index, "status": "certificate"}
    from .oracle import enumerate_spanning_eulerian

    try:
        found = enumerate_spanning_eulerian(d, must_avoid=avoid, limit=1)
    except PreconditionError:  # past the oracle's size guard
        if result is None:
            return {"index": index, "status": "unknown"}
        found = []  # the obstruction was checked where it was built
    if found:
        if isinstance(result, (ObstructionPartition, NonStrongCut)):
            raise ConstructionError(
                f"trial {index}: obstruction contradicted by an exhaustive witness"
            )
        return {"index": index, "status": "pipeline-miss"}
    return {
        "index": index,
        "status": "candidate",
        "digraph": _digraph_json(d),
        "avoid": _arc_rows(avoid),
    }


def run_conjecture_search(
    k: int, n_max: int, trials: int, seed: int, jobs: int = 1
) -> dict:
    """Probe random high-connectivity instances for avoidance failures.

    Each trial is deterministic given (seed, index), so results are
    reproducible and mergeable regardless of worker count.  Arguments
    out of range, more jobs than CPUs included, are refused before any
    worker starts.
    """
    if k < 1 or n_max < 4 or trials < 1 or jobs < 1:
        raise PreconditionError("k, n, trials, and jobs must be positive (n at least 4)")
    if n_max < k + 2:
        raise PreconditionError(f"connectivity {k + 1} needs at least {k + 2} vertices")
    cpus = os.cpu_count() or 1
    if jobs > cpus:
        raise PreconditionError(f"jobs must be at most the CPU count, {cpus}")
    if n_max > MAX_VERTICES:
        raise PreconditionError(f"n must be at most {MAX_VERTICES}")
    worker = partial(_run_trial, seed, k, n_max)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(
                pool.map(worker, range(trials), chunksize=max(1, trials // (jobs * 8)))
            )
    else:
        results = [worker(i) for i in range(trials)]
    counts = {"certificate": 0, "skipped": 0, "pipeline-miss": 0, "unknown": 0, "candidate": 0}
    candidates = []
    for row in results:
        counts[row["status"]] += 1
        if row["status"] == "candidate":
            candidates.append(row)
    return {
        "k": k,
        "n_max": n_max,
        "trials": trials,
        "seed": seed,
        "certificates": counts["certificate"],
        "skipped": counts["skipped"],
        "pipeline_misses": counts["pipeline-miss"],
        "unknowns": counts["unknown"],
        "candidates": candidates,
    }


def cmd_conjecture_search(args: argparse.Namespace) -> int:
    report = run_conjecture_search(args.k, args.n, args.trials, args.seed, args.jobs)
    _say(
        args,
        f"trials={report['trials']} certificates={report['certificates']} "
        f"skipped={report['skipped']} misses={report['pipeline_misses']} "
        f"unknowns={report['unknowns']} candidates={len(report['candidates'])}",
    )
    _emit(report)
    return EXIT_UNKNOWN if report["candidates"] or report["unknowns"] else EXIT_CERTIFICATE


# ---- entry point ----


def _add_input(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="digraph JSON file, or - for stdin")


def _analyze_args(p: argparse.ArgumentParser) -> None:
    _add_input(p)
    p.add_argument("--format", choices=["json", "dot"], default="json")


def _classify_args(p: argparse.ArgumentParser) -> None:
    _add_input(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--arc", nargs=2, type=int, metavar=("U", "V"))
    group.add_argument("--all", action="store_true")


def _trail_args(p: argparse.ArgumentParser) -> None:
    _add_input(p)
    p.add_argument("--from", dest="src", type=int, required=True, metavar="X")
    p.add_argument("--to", dest="dst", type=int, required=True, metavar="Y")


def _avoid_args(p: argparse.ArgumentParser) -> None:
    _add_input(p)
    p.add_argument("--arcs", help="JSON file with a list of [tail, head] pairs")


def _conjecture_search_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True, help="forbidden arcs per instance")
    p.add_argument("--n", type=int, required=True, help="largest vertex count")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)


# name -> (help text, adds the arguments, runs the command)
_COMMANDS = {
    "analyze": ("connectivity and decomposition report", _analyze_args, cmd_analyze),
    "classify": ("per-arc containment and unavoidability", _classify_args, cmd_classify),
    "trail": ("spanning trail between two vertices", _trail_args, cmd_trail),
    "avoid": ("spanning eulerian subdigraph avoiding arcs", _avoid_args, cmd_avoid),
    "conjecture-search": (
        "random probe for avoidance counterexamples",
        _conjecture_search_args,
        cmd_conjecture_search,
    ),
}


@lru_cache(maxsize=len(_COMMANDS) + 1)
def _build_parser(command: str | None) -> _Parser:
    """The parser for one call: with ``command`` it holds that command's
    subparser only, with None all of them (for ``--help``, no arguments
    or an unknown command).  Building all five subparsers takes about
    four times as long as building one, and far longer than the parse;
    a call that names its command can reach no other subparser, so the
    others are not built.  The usage line still lists every command."""
    parser = _Parser(prog="eulertrail", description=__doc__)
    # the default metavar lists the commands built; a one-command parser
    # names them all by hand (a set metavar also renames the argument in
    # the errors only the full parser gives)
    every = "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=every if command else None)
    for name in (command,) if command else _COMMANDS:
        help_text, add_args, func = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--quiet", action="store_true", help="suppress the stderr summary")
        add_args(p)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, PreconditionError, OSError) as exc:
        print(f"eulertrail: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except EulertrailError as exc:
        print(f"eulertrail: internal error: {exc}", file=sys.stderr)
        raise


if __name__ == "__main__":
    sys.exit(main())
