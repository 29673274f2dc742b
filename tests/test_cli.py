import ast
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import adimlab
from adimlab import corpus, verify
from adimlab.bitset import VertexSet
from adimlab.cli import main, parse_graph_spec
from adimlab.errors import BadParameter, MalformedHeader
from adimlab.graph import (
    complement,
    cycle,
    fig2_graph,
    format_edge_list,
    join,
    path,
    petersen,
    to_graph6,
)
from adimlab.metric import build_table
from adimlab.solver import is_k_generator


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_graph_spec_grammar():
    assert parse_graph_spec("path:7") == path(7)
    assert parse_graph_spec("join:path:3+cycle:5") == join(path(3), cycle(5))
    assert parse_graph_spec("complement:cycle:5") == complement(cycle(5))
    assert parse_graph_spec("petersen") == petersen()
    assert parse_graph_spec("fig2") == fig2_graph()


def test_compute_cycle7(capsys):
    code, out, _ = run(capsys, "compute", "--graph", "cycle:7", "--k", "2")
    assert code == 0
    assert "4" in out.split()


def test_compute_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "compute", "--graph", "fig2", "--k", "1..3", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert [r["dimension"] for r in rows] == [9, 14, 20]
    table = build_table(fig2_graph(), 2)
    for row in rows:
        witness = VertexSet.from_iterable(24, row["witness"])
        assert is_k_generator(table, row["k"], witness)
        assert set(row) == {
            "k", "dimension", "witness", "nodes", "search_nodes",
            "greedy_size", "millis",
        }


def test_dim_subcommand(capsys):
    code, out, _ = run(
        capsys, "dim", "--graph", "fig2", "--k", "1..3", "--format", "json"
    )
    assert code == 0
    assert [r["dimension"] for r in json.loads(out)] == [8, 12, 20]


def test_info_petersen(capsys):
    code, out, _ = run(capsys, "info", "--graph", "petersen", "--format", "json")
    assert code == 0
    info = json.loads(out)
    assert info["n"] == 10
    assert info["dimensionality"] == 6
    assert all(c["kind"] == "singleton" for c in info["twin_classes"])


def test_info_prints_a_key_value_table_and_refuses_csv(capsys):
    code, out, _ = run(capsys, "info", "--graph", "path:4")
    assert code == 0
    assert out.splitlines()[:8] == [
        "n: 4",
        "m: 3",
        "graph6: Ch",
        "degrees: {'min': 1, 'max': 2}",
        "connected: True",
        "diameter: 3",
        "dimensionality: 3",
        "metric_dimensionality: 3",
    ]
    with pytest.raises(SystemExit) as exc:
        main(["info", "--graph", "path:4", "--format", "csv"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "invalid choice: 'csv'" in out.err


@pytest.mark.parametrize("spec, message", [
    ("join:path:3", "join spec needs two '+'-separated parts: 'join:path:3'"),
    ("nope:3", "unknown generator 'nope'; generator spec: "),
    ("path:3,4", "path takes 1 parameter(s), got 2"),
], ids=["join-without-plus", "unknown-generator", "parameter-count"])
def test_bad_graph_specs_are_bad_parameters(capsys, spec, message):
    with pytest.raises(BadParameter) as exc:
        parse_graph_spec(spec)
    assert str(exc.value).startswith(message)
    code, out, err = run(capsys, "compute", "--graph", spec, "--k", "1")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")


def test_formulas_subcommand(capsys):
    code, out, _ = run(
        capsys, "formulas", "--family", "fan", "--params", "5", "--k", "1..3",
        "--format", "json",
    )
    assert code == 0
    assert [r["value"] for r in json.loads(out)] == [2, 4, 5]


def test_formulas_refusal_mentions_range(capsys):
    code, _, err = run(capsys, "formulas", "--family", "path", "--params", "3",
                       "--k", "2")
    assert code == 2
    assert "n >= 4" in err


@pytest.mark.parametrize("family, params, k, message", [
    ("petersen", "5", "1", "petersen takes no parameters"),
    ("path", "7", "0", "path with k=0 is only proven for k >= 1"),
])
def test_formulas_refuse_wrong_parameters_and_levels(capsys, family, params, k,
                                                    message):
    code, out, err = run(capsys, "formulas", "--family", family,
                         "--params", params, "--k", k)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("params", ["0,3", "-1,11"])
def test_formulas_refuse_empty_bipartite_parts(capsys, params):
    # refused as the generator refuses them, before any level is looked at
    code, out, err = run(capsys, "formulas", "--family", "complete_bipartite",
                         f"--params={params}", "--k", "1..2")
    r, s = params.split(",")
    message = f"error: complete_bipartite needs r, s >= 1, got {r}, {s}\n"
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("head, flag, value, message", [
    (("formulas", "--family", "complete_bipartite", "--k", "1"), "--params",
     "-1,11", "complete_bipartite needs r, s >= 1, got -1, 11"),
    (("compute", "--graph", "cycle:5"), "--k", "-1..2", "k must be >= 1, got -1"),
], ids=["formulas", "compute"])
def test_a_spaced_value_starting_with_a_dash_reaches_the_program(
    capsys, head, flag, value, message
):
    # read as in the --flag=value form, not taken for a flag of its own
    for tail in ((flag, value), (f"{flag}={value}",)):
        code, out, err = run(capsys, *head, *tail)
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_wide_k_ranges_visit_only_the_levels_a_ladder_has(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "compute", "--graph", "cycle:5",
                         "--k", "1..1000000000")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == "error: no 5-generator exists: the dimensionality bound is 4\n"
    reports, seconds = [], []
    for ks in ("1..7", "1..1000000000"):
        start = time.perf_counter()
        code, out, _ = run(capsys, "conjecture", "--max-n", "6", "--k", ks)
        seconds.append(time.perf_counter() - start)
        report = json.loads(out)
        del report["elapsed"]
        reports.append((code, report))
    assert reports[0] == reports[1] and reports[0][0] == 0
    assert seconds[1] < 2 * seconds[0] + 1


def test_bases_subcommand(capsys):
    code, out, _ = run(
        capsys, "bases", "--graph", "fig5", "--k", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1
    assert payload["bases"] == [[1, 2, 4, 5, 6, 8]]


def test_family_subcommand(capsys):
    code, out, _ = run(capsys, "family", "--graph", "fig3", "--k", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["family_size"] == 1024 and payload["violations"] == []


def test_family_mask_shards(capsys):
    code, out, _ = run(
        capsys, "family", "--graph", "fig3", "--k", "2",
        "--from-mask", "0", "--to-mask", "100",
    )
    assert code == 0
    first = json.loads(out)
    assert first["checked"] == 100
    code, out, _ = run(
        capsys, "family", "--graph", "fig3", "--k", "2",
        "--from-mask", "100", "--to-mask", "1024",
    )
    assert code == 0
    assert json.loads(out)["checked"] == 924


def test_sweep_exit_codes(capsys):
    code, out, _ = run(
        capsys, "sweep", "--theorem", "monotony", "--min-n", "2", "--max-n", "4"
    )
    assert code == 0
    assert json.loads(out)["violations"] == []


def test_pair_sweep_honours_jobs(tmp_path, capsys):
    outputs = []
    for jobs in ("1", "2"):
        stream = tmp_path / f"viol{jobs}.ndjson"
        code, out, _ = run(
            capsys, "sweep", "--theorem", "join-lower", "--max-n", "4",
            "--jobs", jobs, "--violations", str(stream),
        )
        assert code == 0 and stream.read_text() == ""
        payload = json.loads(out)
        del payload["elapsed"]
        outputs.append(payload)
    assert outputs[0] == outputs[1]
    assert outputs[0]["checked"] == 74 * 75 // 2


def test_dim_refuses_disconnected_graph(capsys):
    code, out, err = run(capsys, "dim", "--graph", "empty:3", "--k", "1")
    assert code == 2 and out == ""
    assert "connected" in err


def test_sweep_unknown_theorem(capsys):
    code, _, err = run(capsys, "sweep", "--theorem", "nope", "--max-n", "3")
    assert code == 2
    assert "known ids" in err


def test_conjecture_subcommand(capsys):
    code, out, _ = run(
        capsys, "conjecture", "--min-n", "2", "--max-n", "4", "--k", "1..4"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["checked"] == 2 + 8 + 64 and payload["violations"] == []


def test_g6_literal_and_files(tmp_path, capsys):
    code, out, _ = run(capsys, "info", "--g6", to_graph6(cycle(5)),
                       "--format", "json")
    assert code == 0 and json.loads(out)["n"] == 5

    edge_file = tmp_path / "g.txt"
    edge_file.write_text(format_edge_list(cycle(5)))
    code, out, _ = run(capsys, "info", "--file", str(edge_file), "--format", "json")
    assert code == 0 and json.loads(out)["m"] == 5

    g6_file = tmp_path / "g.g6"
    g6_file.write_text(to_graph6(cycle(5)) + "\n")
    code, out, _ = run(capsys, "info", "--file", str(g6_file), "--format", "json")
    assert code == 0 and json.loads(out)["n"] == 5

    # a single-graph command refuses a file with more records than it reads
    g6_file.write_text(to_graph6(cycle(5)) + "\n\n" + to_graph6(path(4)) + "\n")
    code, out, err = run(capsys, "info", "--file", str(g6_file))
    assert code == 2 and out == ""
    assert "2 graph6 records" in err and "Traceback" not in err


def test_output_file_and_csv(tmp_path, capsys):
    out_file = tmp_path / "res.csv"
    code, _, _ = run(
        capsys, "compute", "--graph", "path:5", "--k", "1..2",
        "--format", "csv", "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "k,dimension,witness,nodes,millis"
    assert lines[1].startswith("1,2,")


def test_violations_ndjson_stream(tmp_path, capsys):
    stream = tmp_path / "v.ndjson"
    code, _, _ = run(
        capsys, "conjecture", "--max-n", "3", "--violations", str(stream)
    )
    assert code == 0
    assert stream.read_text() == ""


@pytest.mark.parametrize("argv", [
    ("sweep", "--theorem", "nope"),
    ("sweep", "--theorem", "monotony", "--max-n", "4", "--min-degree", "9"),
    ("conjecture", "--max-n", "3", "--k", "0"),
])
def test_a_refused_sweep_leaves_the_violations_file_alone(argv, tmp_path, capsys):
    stream = tmp_path / "v.ndjson"
    stream.write_text("old\n")
    code, out, err = run(capsys, *argv, "--violations", str(stream))
    assert code == 2 and out == "" and err.startswith("error: ")
    assert stream.read_text() == "old\n"


def test_an_accepted_sweep_rewrites_the_violations_file(tmp_path, capsys):
    stream = tmp_path / "v.ndjson"
    stream.write_text("old\n")
    code, _, _ = run(
        capsys, "sweep", "--theorem", "monotony", "--max-n", "3",
        "--violations", str(stream),
    )
    assert code == 0 and stream.read_text() == ""


def test_sweep_streams_each_violation_as_one_json_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(verify.THEOREMS, "monotony", lambda g: [(1, g.n, "never")])
    stream = tmp_path / "v.ndjson"
    code, out, _ = run(
        capsys, "sweep", "--theorem", "monotony", "--max-n", "2",
        "--jobs", "1", "--violations", str(stream),
    )
    assert code == 1
    lines = stream.read_text().splitlines()
    assert [json.loads(line) for line in lines] == [
        {"graph6": "A?", "k": 1, "observed": 2, "expected": "never"},
        {"graph6": "A_", "k": 1, "observed": 2, "expected": "never"},
    ]
    assert [json.loads(line) for line in lines] == json.loads(out)["violations"]


@pytest.mark.parametrize("argv", [
    ("info", "--graph", "petersen", "--budget", "0"),
    ("formulas", "--family", "cycle", "--params", "7", "--k", "1", "--budget", "0"),
    ("family", "--graph", "fig3", "--k", "2", "--budget", "0"),
    ("family", "--graph", "fig3", "--k", "2", "--format", "csv"),
    ("sweep", "--theorem", "monotony", "--max-n", "3", "--budget", "0"),
    ("sweep", "--theorem", "monotony", "--max-n", "3", "--format", "csv"),
    ("conjecture", "--max-n", "3", "--budget", "0"),
    ("conjecture", "--max-n", "3", "--format", "csv"),
])
def test_commands_refuse_flags_they_would_ignore(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "unrecognized arguments" in out.err
    assert "Traceback" not in out.err


def test_budget_flag_errors_cleanly(capsys):
    code, _, err = run(
        capsys, "compute", "--graph", "fig2", "--k", "2", "--budget", "3"
    )
    assert code == 2
    assert "budget" in err


def test_k_exceeding_range_message(capsys):
    code, _, err = run(capsys, "compute", "--graph", "petersen", "--k", "7")
    assert code == 2
    assert "dimensionality bound is 6" in err


def test_usage_error_missing_source():
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--k", "2"])
    assert exc.value.code == 2


def test_jobs_flag(capsys):
    code, out, _ = run(
        capsys, "sweep", "--theorem", "complement", "--max-n", "4", "--jobs", "2"
    )
    assert code == 0
    assert json.loads(out)["checked"] == 2 + 8 + 64


def test_truncation_level_flag(capsys):
    # at t >= diameter the computation coincides with the full metric
    code, out, _ = run(
        capsys, "compute", "--graph", "path:5", "--k", "1", "--t", "4",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)[0]["dimension"] == 1
    code, out, _ = run(
        capsys, "compute", "--graph", "path:5", "--k", "1", "--format", "json"
    )
    assert json.loads(out)[0]["dimension"] == 2


@pytest.mark.parametrize("argv", [
    ("compute", "--g6", "D~{", "--k", "1", "--budget", "-5"),
    ("bases", "--g6", "D~{", "--k", "1", "--limit", "-1"),
    ("sweep", "--theorem", "monotony", "--max-n", "4", "--jobs", "0"),
    ("sweep", "--theorem", "monotony", "--max-n", "4", "--jobs", "-2"),
    ("conjecture", "--max-n", "3", "--jobs", "0"),
    ("conjecture", "--max-n", "5", "--k", "0"),
    ("conjecture", "--max-n", "5", "--k", "0..2"),
    ("sweep", "--theorem", "monotony", "--max-n", "4", "--min-degree", "-1"),
])
def test_out_of_range_parameters_exit_2_with_the_range(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert ">= 0" in err or ">= 1" in err


@pytest.mark.parametrize("argv", [
    ("sweep", "--theorem", "monotony", "--min-n", "4", "--max-n", "3"),
    ("sweep", "--theorem", "monotony", "--min-n", "-1", "--max-n", "3"),
    ("conjecture", "--min-n", "5", "--max-n", "2"),
])
def test_empty_or_negative_order_ranges_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert "min_n <= max_n" in err


def test_an_order_above_the_cap_exits_2_before_any_walk(capsys, monkeypatch):
    walked = []
    real_classes = corpus._classes
    monkeypatch.setattr(
        corpus, "_classes", lambda n: walked.append(n) or real_classes(n)
    )
    for command in (("sweep", "--theorem", "monotony"), ("conjecture",)):
        code, out, err = run(capsys, *command, "--max-n", "8")
        assert (code, out) == (2, "")
        assert err == "error: labeled enumeration is capped at n <= 7, got 8\n"
    assert walked == []


@pytest.mark.parametrize("flag, value, checked", [
    ("--min-n", "6", 2**15),  # every labeled graph on 6 vertices
    ("--max-n", "1", 1),
])
def test_one_order_flag_sets_the_other_end_around_it(capsys, flag, value, checked):
    # the default --max-n 5 would contradict --min-n 6
    code, out, err = run(capsys, "sweep", "--theorem", "monotony", flag, value)
    assert (code, err) == (0, "")
    assert json.loads(out)["checked"] == checked


@pytest.mark.parametrize("argv", [
    ("--limit", "-1"),
    ("--from-mask", "-3", "--to-mask", "2"),
])
def test_family_rejects_bad_member_ranges(capsys, argv):
    code, out, err = run(capsys, "family", "--graph", "fig3", "--k", "2", *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert ">= 0" in err


def test_family_rejects_a_start_past_the_family(capsys):
    code, out, err = run(
        capsys, "family", "--graph", "fig3", "--k", "2", "--from-mask", "5000"
    )
    assert (code, out) == (2, "")
    assert err == "error: from_mask must be < the family size 1024, got 5000\n"


NON_ASCII_FILE = object()


@pytest.mark.parametrize("argv", [
    ("compute", "--graph", "cycle:5", "--k", "3..1"),
    ("dim", "--graph", "cycle:5", "--k", "abc"),
    ("conjecture", "--max-n", "3", "--k", "1..x"),
    ("info", "--graph", "path:x"),
    ("formulas", "--family", "cycle", "--params", "x", "--k", "1"),
    ("bases", "--file", NON_ASCII_FILE, "--k", "1"),
    ("sweep", "--theorem", "monotony", "--g6-file", NON_ASCII_FILE),
    ("compute", "--g6", "", "--k", "1"),
    ("info", "--g6", "D\u00e9{"),
])
def test_unparsable_input_exits_2(tmp_path, capsys, argv):
    bad = tmp_path / "bad.g6"
    bad.write_bytes("D~{\nD\u00e9{\n".encode("utf-8"))
    argv = [str(bad) if a is NON_ASCII_FILE else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_a_single_graph_file_names_an_undecodable_record(tmp_path, capsys):
    bad = tmp_path / "bad.g6"
    bad.write_text("D~{xx\n")
    code, out, err = run(capsys, "info", "--file", str(bad))
    assert (code, out) == (2, "")
    assert err == "error: graph6 record 1 'D~{xx': 2 trailing bytes\n"
    bad.write_text("\n \n")
    code, out, err = run(capsys, "info", "--file", str(bad))
    assert (code, out) == (2, "")
    assert err == (
        f"error: {bad} holds 0 graph6 records; this command takes one graph\n"
    )


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_names_an_undecodable_graph6_record(tmp_path, capsys, jobs):
    bad = tmp_path / "bad.g6"
    bad.write_text("D~{\nCF\nD~{xx\nDQc\n")
    code, out, err = run(
        capsys, "sweep", "--theorem", "monotony", "--g6-file", str(bad),
        "--jobs", jobs,
    )
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err == "error: graph6 record 3 'D~{xx': 2 trailing bytes\n"
    with pytest.raises(MalformedHeader, match="record 3 'D~{xx'"):
        verify.sweep_theorem(verify.Corpus.from_file(str(bad)), "monotony", int(jobs))


def test_unparsable_budget_variable_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("ADIMLAB_BUDGET", "abc")
    code, out, err = run(capsys, "compute", "--g6", "D~{", "--k", "1")
    assert code == 2
    assert out == ""
    assert "ADIMLAB_BUDGET must be an integer >= 0, got 'abc'" in err


POOLED_LIBRARY_SWEEP = """
import multiprocessing
from adimlab.verify import Corpus, sweep_theorem
report = sweep_theorem(Corpus(min_n=2, max_n=4), "monotony", jobs=2)
print(report.checked, *(p.pid for p in multiprocessing.active_children()))
"""


def test_pooled_sweeps_leave_no_process_running():
    # the kept pool outlives every sweep but not the interpreter: once a
    # process exits, neither it nor a worker is left in its process group
    src = str(Path(adimlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    cli = [sys.executable, "-m", "adimlab", "sweep", "--theorem", "monotony",
           "--max-n", "4", "--jobs", "2"]
    library = [sys.executable, "-c", POOLED_LIBRARY_SWEEP]
    outputs = []
    for argv in (cli, library):
        proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
        outputs.append(out)
    assert json.loads(outputs[0])["checked"] == 74
    checked, *workers = map(int, outputs[1].split())
    assert checked == 74 and len(workers) == 2
    for pid in workers:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_python_dash_m_runs_the_command():
    src = str(Path(adimlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-m", "adimlab", "compute", "--g6", "D~{", "--k", "1"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    done = subprocess.run(
        argv + ["--budget", "-5"], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 2
    assert "Traceback" not in done.stderr


OUT_OF_MEMORY = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
sys.path.insert(0, sys.argv[1])
from adimlab.cli import main
sys.exit(main(sys.argv[2:]))
"""


def test_an_input_too_large_to_build_exits_2_without_a_traceback(tmp_path):
    # each graph has 2**40 vertices; under 1 GiB of address space building
    # it raises MemoryError, which the command reports as one error line
    edges = tmp_path / "huge.txt"
    edges.write_text("1099511627776 0\n")
    src = str(Path(adimlab.__file__).resolve().parents[1])
    for args in (
        ["info", "--graph", "hypercube:40"],
        ["compute", "--graph", "complement:hypercube:40", "--k", "1"],
        ["compute", "--file", str(edges), "--k", "1"],
    ):
        done = subprocess.run(
            [sys.executable, "-I", "-c", OUT_OF_MEMORY, src, *args],
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 2, (args, done.stderr)
        assert done.stderr.startswith("error: "), args
        assert done.stderr.count("\n") == 1, args
        assert "Traceback" not in done.stderr


COLD_START = """
import sys
sys.path.insert(0, sys.argv[1])
import adimlab, adimlab.cli, adimlab.formulas, adimlab.families, adimlab.verify
from adimlab.verify import Corpus, check_cone_conjecture
report = check_cone_conjecture(Corpus(2, 4), jobs=1)
print(report.checked, *sorted({"dataclasses", "multiprocessing"} & set(sys.modules)))
"""


def test_a_cold_start_loads_neither_dataclasses_nor_multiprocessing():
    # every command starts a fresh interpreter: importing the package and
    # running a serial sweep must not pay for either module
    src = str(Path(adimlab.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-I", "-c", COLD_START, src],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["74"]


def _petersen_and_p5(target):
    target.write_text(f"{to_graph6(petersen())}\n{to_graph6(path(5))}\n")
    return str(target)


def test_a_graph6_file_is_swept_whole(tmp_path, capsys):
    # records above the enumeration's default orders are checked too
    g6_file = _petersen_and_p5(tmp_path / "mixed.g6")
    for argv in (("sweep", "--theorem", "monotony"), ("conjecture", "--k", "1..2")):
        code, out, _ = run(capsys, *argv, "--g6-file", g6_file)
        assert code == 0
        assert json.loads(out)["checked"] == 2


@pytest.mark.parametrize("argv", [
    ("sweep", "--theorem", "monotony", "--min-n", "2"),
    ("sweep", "--theorem", "monotony", "--max-n", "12"),
    ("conjecture", "--min-n", "2", "--max-n", "5"),
])
def test_order_flags_next_to_a_graph6_file_exit_2(tmp_path, capsys, argv):
    g6_file = _petersen_and_p5(tmp_path / "mixed.g6")
    code, out, err = run(capsys, *argv, "--g6-file", g6_file)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "--g6-file" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text, flags", [
    ("", ()),
    ("\n  \n", ()),
    (None, ("--max-n", "4", "--min-degree", "9")),
], ids=["empty-file", "blank-file", "filtered-orders"])
@pytest.mark.parametrize(
    "command", [("sweep", "--theorem", "monotony"), ("conjecture",)], ids=["sweep", "conjecture"]
)
def test_a_sweep_that_would_check_nothing_exits_2(tmp_path, capsys, text, flags, command):
    if text is not None:
        empty = tmp_path / "empty.g6"
        empty.write_text(text)
        flags = ("--g6-file", str(empty))
    code, out, err = run(capsys, *command, *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "nothing to check" in err
    assert "Traceback" not in err


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), re.S | re.M)


def test_readme_examples_run(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _petersen_and_p5(tmp_path / "graphs.g6")  # the file the README sweeps
    lines = [
        line
        for block in _readme_blocks("sh")
        for line in block.splitlines()
        if line.startswith("adimlab ")
    ]
    assert len(lines) >= 11
    for line in lines:
        assert main(shlex.split(line, comments=True)[1:]) == 0, line
    capsys.readouterr()
    (library,) = _readme_blocks("python")
    exec(library, {})
    printed = capsys.readouterr().out.splitlines()
    comments = [ln.split("# ")[1] for ln in library.splitlines() if "print(" in ln]
    assert [c.split()[0] for c in comments] == ["6", "one", "9", "True"]
    assert printed[0] == "6" and printed[2:] == ["9", "True"]
    assert len(ast.literal_eval(printed[1])) == 1
