"""End-to-end checks of the command-line interface.

Every test drives ``main`` in-process and inspects the JSON payload,
the stderr summary, and the exit code.
"""

import argparse
import gc
import io
import json
import os
import random
import sys
import time
import warnings

import pytest

import eulertrail as et
from eulertrail import classify, cli, connectivity, factor, trails
from eulertrail.cli import main, run_conjecture_search
from eulertrail.digraph import MAX_VERTICES
from eulertrail.oracle import enumerate_all_semicomplete
from instances import complete, random_strong_semicomplete, strong_backward_chain, t4, three_cycle


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _digraph_file(tmp_path, d, name="d.json"):
    return _write(tmp_path, name, et.serialize_json(d))


def test_analyze_reports_connectivity_and_decomposition(tmp_path, capsys):
    path = _digraph_file(tmp_path, et.gen_d3())
    code = main(["analyze", path])
    out, err = capsys.readouterr()
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "n": 3,
        "m": 4,
        "strong": True,
        "lambda": 1,
        "cut_arcs": [[0, 1], [1, 2], [2, 0]],
        "decomposition": [[0], [2], [1]],
        "backward_ordering": [[1, 2], [2, 0]],
        "ignored_sets": [],
    }
    assert err.strip() == "n=3 m=4 strong=True lambda=1 cut_arcs=3"


def test_analyze_reads_stdin(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(et.serialize_json(et.gen_d3())))
    code = main(["analyze", "-"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert json.loads(out)["lambda"] == 1


def test_analyze_reports_a_non_strong_digraph(tmp_path, capsys):
    path = _write(tmp_path, "d.json", '{"n":3,"arcs":[[0,1],[1,2],[0,2]]}')
    code = main(["analyze", path])
    out, err = capsys.readouterr()
    assert code == 0
    assert json.loads(out) == {
        "n": 3,
        "m": 3,
        "strong": False,
        "lambda": 0,
        "cut_arcs": None,
        "decomposition": None,
        "backward_ordering": None,
        "ignored_sets": None,
    }
    assert err.strip() == "n=3 m=3 strong=False lambda=0 cut_arcs=none"


def test_analyze_reports_the_nice_decomposition(tmp_path, capsys):
    path = str(tmp_path / "d.json")
    strong = 0
    for d in enumerate_all_semicomplete(4):
        if not et.is_strong(d):
            continue
        strong += 1
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(et.serialize_json(d))
        assert main(["analyze", path, "--quiet"]) == 0
        sets = json.loads(capsys.readouterr().out)["decomposition"]
        assert sets == [sorted(s) for s in et.nice_decomposition(d).sets]
    assert strong == 543


def test_analyze_does_not_fall_back_when_the_nice_decomposition_fails(
    tmp_path, capsys, monkeypatch
):
    def broken(d):
        raise et.ConstructionError("no nice decomposition")

    monkeypatch.setattr(cli, "nice_decomposition", broken)
    path = _digraph_file(tmp_path, strong_backward_chain(9, random.Random(3)))
    with pytest.raises(et.ConstructionError):
        main(["analyze", path, "--quiet"])
    assert capsys.readouterr().out == ""


def test_analyze_dot_format(tmp_path, capsys):
    path = _digraph_file(tmp_path, et.gen_d3())
    code = main(["analyze", path, "--format", "dot"])
    out, err = capsys.readouterr()
    assert code == 0
    assert out == (
        "digraph {\n"
        "  0;\n"
        "  1;\n"
        "  2;\n"
        "  0 -> 1;\n"
        "  1 -> 2;\n"
        "  2 -> 0;\n"
        "  2 -> 1;\n"
        "}"
    )
    assert err.strip() == "n=3 m=4 (dot)"


def test_quiet_suppresses_the_summary(tmp_path, capsys):
    path = _digraph_file(tmp_path, et.gen_d3())
    code = main(["analyze", path, "--quiet"])
    _, err = capsys.readouterr()
    assert code == 0
    assert err == ""


def test_classify_left_bad_arc(tmp_path, capsys):
    path = _digraph_file(tmp_path, t4())
    code = main(["classify", path, "--arc", "0", "2"])
    out, err = capsys.readouterr()
    assert code == 0
    row = json.loads(out)
    assert row["good"] is False
    assert row["bad_pattern"] == "left"
    assert row["witness"] is None
    assert row["unavoidable"] is False
    assert row["avoidance_witness"] == [[0, 1], [1, 2], [2, 3], [3, 0]]
    assert "bad (left)" in err and "avoidable" in err


def test_classify_exceptional_arc(tmp_path, capsys):
    path = _digraph_file(tmp_path, t4())
    code = main(["classify", path, "--arc", "1", "2"])
    out, _ = capsys.readouterr()
    assert code == 0
    row = json.loads(out)
    assert row["good"] is True
    assert row["witness"] == [[0, 1], [1, 2], [2, 3], [3, 0]]
    assert row["unavoidable"] == "exceptional"
    assert row["partition"] == {"r1": [0], "r2": [3], "y": [1, 2]}


def test_classify_all_arcs(tmp_path, capsys):
    path = _digraph_file(tmp_path, t4())
    code = main(["classify", path, "--all"])
    out, err = capsys.readouterr()
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 4
    seen = [(tuple(r["arc"]), r["good"], r["bad_pattern"], r["unavoidable"]) for r in payload["arcs"]]
    assert seen == [
        ((0, 1), True, None, "cut"),
        ((0, 2), False, "left", False),
        ((1, 2), True, None, "exceptional"),
        ((1, 3), False, "right", False),
        ((2, 3), True, None, "cut"),
        ((3, 0), True, None, "cut"),
    ]
    assert err.strip() == "6 arcs: 4 good, 2 bad; 4 unavoidable"


def test_classify_all_rows_match_the_single_arc_rows(tmp_path, capsys):
    for d in (t4(), et.gen_d3(), strong_backward_chain(9, random.Random(3))):
        path = _digraph_file(tmp_path, d)
        assert main(["classify", path, "--all", "--quiet"]) == 0
        rows = json.loads(capsys.readouterr().out)["arcs"]
        assert [tuple(r["arc"]) for r in rows] == list(d.arcs())
        for row in rows:
            u, v = row["arc"]
            assert main(["classify", path, "--arc", str(u), str(v), "--quiet"]) == 0
            alone = json.loads(capsys.readouterr().out)
            assert {k: x for k, x in row.items() if k != "avoidance_witness"} == {
                k: x for k, x in alone.items() if k != "avoidance_witness"
            }
            if row["avoidance_witness"] is not None:
                witness = et.EulerianSubdigraph(
                    frozenset(tuple(a) for a in row["avoidance_witness"])
                )
                assert witness.check(d, frozenset({(u, v)})) == []


def test_classify_all_refuses_a_digraph_it_cannot_classify(tmp_path, capsys):
    path = _write(tmp_path, "empty.json", '{"n":3,"arcs":[]}')
    errors = []
    for argv in (["classify", path, "--all"], ["classify", path, "--arc", "0", "1"]):
        assert main(argv) == 1, argv
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("eulertrail: error: classification requires a")
    path = _write(tmp_path, "one.json", '{"n":1,"arcs":[]}')
    assert main(["classify", path, "--all"]) == 0
    out, _ = capsys.readouterr()
    assert json.loads(out) == {"n": 1, "arcs": []}


def test_classify_generated_exceptional_tournament(tmp_path, capsys):
    path = _digraph_file(tmp_path, et.gen_exceptional(False))
    code = main(["classify", path, "--arc", "0", "3"])
    out, _ = capsys.readouterr()
    assert code == 0
    row = json.loads(out)
    assert row["unavoidable"] == "exceptional"
    assert row["partition"] == {"r1": [2], "r2": [1], "y": [0, 3]}


def test_trail_certificate(tmp_path, capsys):
    path = _digraph_file(tmp_path, complete(3))
    code = main(["trail", path, "--from", "0", "--to", "1"])
    out, _ = capsys.readouterr()
    assert code == 0
    payload = json.loads(out)
    assert payload["cut"] is None
    assert payload["trail"] == [0, 2, 0, 1]


def test_trail_cut_obstruction(tmp_path, capsys):
    path = _digraph_file(tmp_path, three_cycle())
    code = main(["trail", path, "--from", "0", "--to", "1"])
    out, _ = capsys.readouterr()
    assert code == 2
    payload = json.loads(out)
    assert payload["trail"] is None
    assert payload["cut"] == {
        "side_s": [0],
        "side_t": [1, 2],
        "crossing_arcs": [[0, 1]],
    }


@pytest.mark.parametrize("side_s", ["s and t", "every vertex"])
def test_a_flow_cut_that_holds_t_is_refused_before_it_is_printed(
    tmp_path, capsys, monkeypatch, side_s
):
    def wrong(d, s, t, limit=None, *, warm=False):
        mask = (1 << s | 1 << t) if side_s == "s and t" else (1 << d.n) - 1
        return 0, [0] * d.n, mask

    monkeypatch.setattr(connectivity, "_max_flow", wrong)
    d = three_cycle()  # the mask {0, 1} leaves one crossing arc, (1, 2)
    with pytest.raises(et.ConstructionError):
        et.arc_disjoint_paths(d, 0, 1, 2)
    with pytest.raises(et.ConstructionError):
        main(["trail", _digraph_file(tmp_path, d), "--from", "0", "--to", "1", "--quiet"])
    assert capsys.readouterr().out == ""


def test_trail_probes_its_pair_once_and_forward_arc_witness_not_at_all(
    tmp_path, capsys, monkeypatch
):
    d = random_strong_semicomplete(8, 224)
    assert et.arc_connectivity(d) == 1
    assert et.nice_decomposition(d).arc_tag((4, 0)) == "forward"
    probes = []
    real = et.arc_disjoint_paths

    def counted(host, x, y, k):
        probes.append((host._out, x, y))
        return real(host, x, y, k)

    for module in (cli, trails):
        monkeypatch.setattr(module, "arc_disjoint_paths", counted)
    path = _digraph_file(tmp_path, d)
    assert main(["trail", path, "--from", "0", "--to", "4", "--quiet"]) == 0
    assert probes.count((d._out, 0, 4)) == 1
    probes.clear()
    assert et.classify_containment(d, (4, 0)).in_some  # by the forced completion
    assert probes.count((d._out, 0, 4)) == 0


def test_trail_rejects_bad_endpoints(tmp_path, capsys):
    path = _digraph_file(tmp_path, three_cycle())
    assert main(["trail", path, "--from", "0", "--to", "0"]) == 1
    assert main(["trail", path, "--from", "0", "--to", "7"]) == 1
    _, err = capsys.readouterr()
    assert "two distinct vertices" in err


def test_avoid_certificate(tmp_path, capsys):
    path = _digraph_file(tmp_path, complete(4))
    arcs = _write(tmp_path, "avoid.json", "[[0, 1]]")
    code = main(["avoid", path, "--arcs", arcs])
    out, _ = capsys.readouterr()
    assert code == 0
    payload = json.loads(out)
    assert payload["obstruction"] is None
    assert payload["certificate"] == [[0, 2], [1, 3], [2, 1], [3, 0]]
    assert [0, 1] not in payload["certificate"]


def test_input_files_are_closed(tmp_path, capsys, monkeypatch):
    # an unclosed file warns as it is collected, where an error cannot
    # propagate, so the errors are gathered from the unraisable hook
    raised = []
    monkeypatch.setattr(sys, "unraisablehook", raised.append)
    path = _digraph_file(tmp_path, complete(4))
    arcs = _write(tmp_path, "avoid.json", "[[0, 1]]")
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        assert main(["analyze", "--quiet", path]) == 0
        assert main(["avoid", "--quiet", path, "--arcs", arcs]) == 0
        gc.collect()
    capsys.readouterr()
    assert [str(r.exc_value) for r in raised] == []


def test_avoid_cut_obstruction(tmp_path, capsys):
    path = _digraph_file(tmp_path, three_cycle())
    arcs = _write(tmp_path, "avoid.json", "[[0, 1]]")
    code = main(["avoid", path, "--arcs", arcs])
    out, _ = capsys.readouterr()
    assert code == 2
    payload = json.loads(out)
    assert payload["certificate"] is None
    assert payload["obstruction"]["kind"] == "cut"
    assert payload["obstruction"]["cut"] == {
        "side_s": [0],
        "side_t": [1, 2],
        "crossing_arcs": [],
    }


def test_avoid_partition_obstruction(tmp_path, capsys):
    path = _digraph_file(tmp_path, et.gen_exceptional(False))
    arcs = _write(tmp_path, "avoid.json", "[[0, 3]]")
    code = main(["avoid", path, "--arcs", arcs])
    out, _ = capsys.readouterr()
    assert code == 2
    payload = json.loads(out)
    assert payload["obstruction"] == {
        "kind": "partition",
        "partition": {"r1": [2], "r2": [1], "y": [0, 3]},
    }


def test_avoid_without_forbidden_arcs(tmp_path, capsys):
    path = _digraph_file(tmp_path, three_cycle())
    code = main(["avoid", path])
    out, _ = capsys.readouterr()
    assert code == 0
    assert json.loads(out)["certificate"] == [[0, 1], [1, 2], [2, 0]]


@pytest.mark.parametrize("n", [0, 1])
def test_avoid_on_the_smallest_digraphs(tmp_path, capsys, n):
    # the empty arc set is the spanning eulerian subdigraph of a digraph
    # with at most one vertex
    path = _write(tmp_path, "d.json", f'{{"n":{n},"arcs":[]}}')
    code = main(["avoid", path])
    out, _ = capsys.readouterr()
    assert code == 0
    assert json.loads(out) == {"certificate": [], "obstruction": None}


def test_arc_file_must_be_a_list_of_pairs(tmp_path, capsys):
    path = _digraph_file(tmp_path, three_cycle())
    arcs = _write(tmp_path, "avoid.json", '{"oops": 1}')
    assert main(["avoid", path, "--arcs", arcs]) == 1
    _, err = capsys.readouterr()
    assert "list of [tail, head] pairs" in err


def test_arcs_outside_the_digraph_exit_one(tmp_path, capsys):
    path = _digraph_file(tmp_path, t4())  # (3, 0) is an arc, so -1 0 aliases it
    far = _write(tmp_path, "far.json", "[[1000, 0]]")
    for argv in (
        ["classify", path, "--arc", "1000", "0"],
        ["classify", path, "--arc", "3", "-4"],
        ["classify", path, "--arc", "-1", "0"],
        ["avoid", path, "--arcs", far],
    ):
        assert main(argv) == 1, argv
        _, err = capsys.readouterr()
        assert "eulertrail: error:" in err and "not in the digraph" in err, argv


def test_malformed_digraph_exits_one(tmp_path, capsys):
    path = _write(tmp_path, "broken.json", '{"arcs": []}')
    assert main(["analyze", path]) == 1
    _, err = capsys.readouterr()
    assert "eulertrail: error:" in err


def test_missing_input_file_exits_one(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.json")]) == 1
    _, err = capsys.readouterr()
    assert "eulertrail: error:" in err


def test_usage_errors_exit_one(tmp_path, capsys):
    path = _digraph_file(tmp_path, three_cycle())
    with pytest.raises(SystemExit) as info:
        main(["analyze", path, "--bogus"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["classify", path])
    assert info.value.code == 1


def test_one_process_serves_calls_around_a_usage_error(tmp_path, capsys):
    # each command's parser is built once per process; a usage error in
    # between must neither change its exit code nor leak into the next call
    path = _digraph_file(tmp_path, complete(4))
    arcs = _write(tmp_path, "avoid.json", "[[0, 1]]")
    argv = ["avoid", path, "--arcs", arcs]
    assert main(argv) == 0
    first, _ = capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main(["avoid", path, "--bogus"])
    assert info.value.code == 1
    _, err = capsys.readouterr()
    assert "unrecognized arguments: --bogus" in err
    assert main(argv) == 0
    second, _ = capsys.readouterr()
    assert second == first


def _outcome(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("exit", exc.code)
    out, err = capsys.readouterr()
    return code, out, err


def test_one_command_parser_answers_as_the_full_parser(tmp_path, capsys, monkeypatch):
    d = _digraph_file(tmp_path, complete(4))
    arcs = _write(tmp_path, "avoid.json", "[[0, 1]]")
    valid = {
        "analyze": ["analyze", d],
        "classify": ["classify", d, "--arc", "0", "1"],
        "trail": ["trail", d, "--from", "0", "--to", "1"],
        "avoid": ["avoid", d, "--arcs", arcs],
        "conjecture-search": ["conjecture-search", "--k", "1", "--n", "5", "--trials", "2",
                              "--seed", "1"],
    }
    table = [[], ["--help"], ["bogus"], ["--quiet", "avoid", d]]
    for name, argv in valid.items():
        table += [argv, [name, "--help"], argv + ["--bogus"], [name]]
    table += [
        ["trail", d, "--to", "1"],
        ["classify", d],
        ["trail", d, "--from", "x", "--to", "1"],
    ]
    one = [_outcome(argv, capsys) for argv in table]
    full = cli._build_parser(None)
    monkeypatch.setattr(cli, "_build_parser", lambda command: full)
    for argv, got in zip(table, one):
        assert got == _outcome(argv, capsys), argv
    # the usage line a one-command parser prints still names every command
    _, _, err = one[table.index(valid["avoid"] + ["--bogus"])]
    assert err.startswith(
        "usage: eulertrail [-h] {analyze,classify,trail,avoid,conjecture-search} ...\n"
    )
    assert "error: unrecognized arguments: --bogus" in err
    _, _, err = one[table.index(["bogus"])]
    assert "error: argument command: invalid choice: 'bogus'" in err
    monkeypatch.undo()

    def commands(parser):
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return list(sub.choices)

    assert commands(cli._build_parser("avoid")) == ["avoid"]
    assert commands(cli._build_parser(None)) == list(valid)


def test_conjecture_search_is_deterministic_across_jobs(capsys):
    argv = ["conjecture-search", "--k", "2", "--n", "6", "--trials", "20", "--seed", "7"]
    code = main(argv)
    first, _ = capsys.readouterr()
    assert code == 0
    report = json.loads(first)
    assert report["certificates"] == 20
    assert report["candidates"] == []

    assert main(argv) == 0
    second, _ = capsys.readouterr()
    assert second == first

    assert main(argv + ["--jobs", "2"]) == 0
    parallel, _ = capsys.readouterr()
    assert parallel == first


def test_conjecture_search_refuses_unbounded_jobs_and_n(capsys, monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    too_many = (os.cpu_count() or 1) + 1
    with pytest.raises(et.PreconditionError):
        run_conjecture_search(2, 6, too_many, 7, jobs=too_many)
    base = ["conjecture-search", "--k", "2", "--trials", "1", "--seed", "7"]
    assert main(base + ["--n", "6", "--jobs", str(too_many)]) == 1
    _, err = capsys.readouterr()
    assert "CPU count" in err
    assert main(base + ["--n", str(MAX_VERTICES + 1)]) == 1
    _, err = capsys.readouterr()
    assert f"at most {MAX_VERTICES}" in err


def test_conjecture_search_rejects_tiny_n(capsys):
    code = main(["conjecture-search", "--k", "3", "--n", "4", "--trials", "1", "--seed", "1"])
    _, err = capsys.readouterr()
    assert code == 1
    assert "at least 5 vertices" in err


def test_conjecture_search_past_the_oracle_guard(capsys, monkeypatch):
    # trial 0 of seed 0 draws n = 22, where the oracle refuses to search
    argv = ["conjecture-search", "--k", "1", "--n", "30", "--trials", "1", "--seed", "0"]
    monkeypatch.setattr(cli, "spanning_eulerian_avoiding", lambda d, arcs: None)
    assert main(argv) == 3
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert (report["unknowns"], report["pipeline_misses"], report["candidates"]) == (1, 0, [])
    assert "unknowns=1 candidates=0" in err
    # a checked obstruction stands as a candidate, as below the guard
    part = factor.ObstructionPartition(frozenset({0}), frozenset({1}), frozenset())
    monkeypatch.setattr(cli, "spanning_eulerian_avoiding", lambda d, arcs: part)
    assert main(argv + ["--quiet"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["unknowns"] == 0
    assert [(c["index"], c["digraph"]["n"]) for c in report["candidates"]] == [(0, 22)]
    # below the guard the oracle still contradicts a false obstruction
    small = ["conjecture-search", "--k", "1", "--n", "5", "--trials", "1", "--seed", "1"]
    with pytest.raises(et.ConstructionError, match="contradicted"):
        main(small)


def test_conjecture_search_answers_a_dense_miss_below_the_guard(capsys, monkeypatch):
    # trial 1 of seed 0 draws n = 10 with 89 arcs, which the oracle still
    # searches; the other four trials lie past the guard
    argv = ["conjecture-search", "--k", "1", "--n", "30", "--trials", "5", "--seed", "0"]
    monkeypatch.setattr(cli, "spanning_eulerian_avoiding", lambda d, arcs: None)
    start = time.monotonic()
    assert main(argv) == 3
    assert time.monotonic() - start < 10
    report = json.loads(capsys.readouterr().out)
    assert (report["pipeline_misses"], report["unknowns"]) == (1, 4)
    assert report["candidates"] == []


def test_every_subcommand_payload_prints_as_json_dumps(tmp_path, capsys, monkeypatch):
    payloads = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda p: (payloads.append(p), emit(p)))
    chain = _digraph_file(tmp_path, strong_backward_chain(9, random.Random(3)), "chain.json")
    k4 = _digraph_file(tmp_path, complete(4), "k4.json")
    cycle = _digraph_file(tmp_path, three_cycle(), "cycle.json")
    exceptional = _digraph_file(tmp_path, et.gen_exceptional(False), "exc.json")
    first = _write(tmp_path, "first.json", "[[0, 1]]")
    corner = _write(tmp_path, "corner.json", "[[0, 3]]")
    cases = [
        (["analyze", chain], 0),
        (["classify", chain, "--arc", "0", "1"], 0),
        (["classify", chain, "--all"], 0),
        (["classify", _digraph_file(tmp_path, t4(), "t4.json"), "--all"], 0),
        (["trail", k4, "--from", "0", "--to", "3"], 0),
        (["trail", cycle, "--from", "0", "--to", "1"], 2),
        (["avoid", k4, "--arcs", first], 0),
        (["avoid", cycle, "--arcs", first], 2),
        (["avoid", exceptional, "--arcs", corner], 2),
        (["conjecture-search", "--k", "1", "--n", "5", "--trials", "2", "--seed", "1"], 0),
    ]
    for argv, code in cases:
        assert main(argv + ["--quiet"]) == code, argv
        assert capsys.readouterr().out == json.dumps(payloads[-1], sort_keys=True) + "\n", argv
    kinds = [p["obstruction"]["kind"] for p in payloads[-3:-1]]
    assert kinds == ["cut", "partition"]
    # the unknown answer, which no small input reaches
    monkeypatch.setattr(cli, "spanning_eulerian_avoiding", lambda d, arcs: None)
    assert main(["avoid", k4, "--quiet"]) == 3
    assert capsys.readouterr().out == json.dumps(payloads[-1], sort_keys=True) + "\n"
    assert payloads[-1] == {"certificate": None, "obstruction": None}
    # a surviving counterexample candidate
    candidate = {"index": 0, "status": "candidate", "digraph": {"n": 0, "arcs": []}, "avoid": []}
    monkeypatch.setattr(cli, "_run_trial", lambda seed, k, n_max, index: candidate)
    argv = ["conjecture-search", "--k", "1", "--n", "5", "--trials", "1", "--seed", "1"]
    assert main(argv + ["--quiet"]) == 3
    assert capsys.readouterr().out == json.dumps(payloads[-1], sort_keys=True) + "\n"
    assert payloads[-1]["candidates"] == [candidate]


def test_avoid_does_not_print_a_certificate_that_fails_its_check(tmp_path, capsys, monkeypatch):
    d = complete(4)
    everything = et.EulerianSubdigraph(frozenset(d.arcs()))  # uses the forbidden arc
    monkeypatch.setattr(factor, "_factor_then_merge", lambda rest, trace: everything)
    path = _digraph_file(tmp_path, d)
    first = _write(tmp_path, "first.json", "[[0, 1]]")
    with pytest.raises(et.ConstructionError):
        main(["avoid", path, "--arcs", first, "--quiet"])
    assert capsys.readouterr().out == ""


def test_classify_all_does_not_print_a_corrupted_containment_witness(
    tmp_path, capsys, monkeypatch
):
    path = _digraph_file(tmp_path, complete(5))
    built = classify._trail_route_witness

    def corrupted(d, arc):  # one arc short of the witness: unbalanced
        witness = built(d, arc)
        return witness - {min(witness - {arc})}

    monkeypatch.setattr(classify, "_trail_route_witness", corrupted)
    with pytest.raises(et.ConstructionError, match="failed validation"):
        main(["classify", path, "--arc", "0", "1", "--quiet"])
    assert capsys.readouterr().out == ""
    # --all covers complete(5) with batch witnesses
    completed = classify._completed

    def short(d, forced):
        got = completed(d, forced)
        return got - {min(got - forced)}

    monkeypatch.setattr(classify, "_completed", short)
    with pytest.raises(et.ConstructionError, match="failed validation"):
        main(["classify", path, "--all", "--quiet"])
    assert capsys.readouterr().out == ""
