"""What the benchmark harness in ``perfbench/`` needs of the package.

The harness wraps the functions named in ``tracer.LAYERS`` by name, reads
node counts from fixed places in the kernel's return values and calls
``prep.program_setup`` for each workload.  These tests read those files and
change nothing in them, so a rename or a new return shape fails here rather
than in a benchmark run.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from adimlab import kernel, solver
from adimlab.errors import BudgetExhausted
from adimlab.graph import fig2_graph, petersen
from adimlab.metric import DistinguishTable, build_table

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _harness_module(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    # no bytecode cache is written next to the harness
    written, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
    return module


tracer = _harness_module("tracer")
prep = _harness_module("prep")


@pytest.mark.parametrize("layer", tracer.LAYERS, ids=lambda layer: layer[2])
def test_every_traced_function_exists(layer):
    module_name, fn_name, _, _ = layer
    module = importlib.import_module(f"adimlab.{module_name}")
    assert callable(getattr(module, fn_name, None)), f"adimlab.{module_name}.{fn_name}"


def test_tracer_installs_and_restores_every_layer():
    before = {(m, f): getattr(importlib.import_module(f"adimlab.{m}"), f)
              for m, f, _, _ in tracer.LAYERS}
    tr = tracer.Tracer()
    try:
        tr.install()
    finally:
        tr.uninstall()
    for (m, f), original in before.items():
        assert getattr(importlib.import_module(f"adimlab.{m}"), f) is original


def test_traced_counters_read_node_counts():
    counters = {(m, f): c[1] for m, f, _, c in tracer.LAYERS if c is not None}
    assert counters == {
        ("kernel", "solve_min_multicover"): 2,
        ("kernel", "enumerate_min_covers"): 1,
    }
    prepared = build_table(petersen(), 2).prepared
    search = kernel.minimum_search(prepared, 2)[2]
    calls = {
        "solve_min_multicover": lambda budget: kernel.solve_min_multicover(
            prepared, 2, budget
        ),
        "enumerate_min_covers": lambda budget: kernel.enumerate_min_covers(
            prepared, 2, budget=budget
        ),
    }
    # the smallest budget a call succeeds under: a solve's node count; an
    # enumeration counts its lex pass alone, and its budget bounds the
    # minimum search too
    need = {"solve_min_multicover": 0, "enumerate_min_covers": search}
    for (_, fn_name), index in counters.items():
        call = calls[fn_name]
        nodes = call(None)[index]
        assert type(nodes) is int and nodes > 0
        budget = need[fn_name] + nodes
        assert call(budget)[index] == nodes
        with pytest.raises(BudgetExhausted):
            call(budget - 1)


def test_a_full_solve_feeds_the_traced_node_count():
    # a full solve through solver.solve_table passes through the traced
    # kernel.solve_min_multicover once, cold or after a size-only solve,
    # and the count read from it is the solve's SolveStats.nodes
    for g, k in ((petersen(), 2), (fig2_graph(), 2)):
        for warm in (False, True):
            table = DistinguishTable(g, 2)
            if warm:
                solver.minimum_size(table, k)
            tr = tracer.Tracer()
            tr.install()
            try:
                solved = solver.solve_table(table, k)
            finally:
                tr.uninstall()
            assert tr.calls["kernel.solve_min_multicover"] == 1
            assert tr.counts["kernel.solve_nodes"] == solved.stats.nodes > 0


def test_a_traced_enumeration_counts_the_lex_pass_alone():
    # the count read from kernel.enumerate_min_covers is the nodes of its
    # lex pass, cold or after a size-only solve: a basis list's budget
    # just suffices at the minimum search's nodes plus that count
    for g, k in ((petersen(), 2), (fig2_graph(), 2)):
        counted = []
        for warm in (False, True):
            build_table.cache_clear()
            if warm:
                solver.minimum_size(build_table(g, 2), k)
            tr = tracer.Tracer()
            tr.install()
            try:
                bases = solver.enumerate_bases(g, k)
            finally:
                tr.uninstall()
            assert tr.calls["kernel.enumerate_min_covers"] == 1
            counted.append(tr.counts["kernel.enumerate_nodes"])
        lex = counted[0]
        assert counted == [lex, lex] and lex > 0
        table = DistinguishTable(g, 2)
        search = solver.solve_table(table, k).stats.search_nodes
        build_table.cache_clear()
        assert solver.enumerate_bases(g, k, budget=search + lex) == bases
        build_table.cache_clear()
        with pytest.raises(BudgetExhausted):
            solver.enumerate_bases(g, k, budget=search + lex - 1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_program_setup_runs_for_every_workload(workload):
    ctx = prep.program_setup(workload, [])
    assert ctx["adimlab"].__file__ == importlib.import_module("adimlab").__file__
    assert isinstance(ctx["kernel"], str)
    assert callable(ctx["metric"].build_table.cache_clear)
