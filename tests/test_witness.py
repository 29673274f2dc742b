"""The witness pass in the helper process: the same answers, node counts
and budget outcomes as the pass run in the caller, and no process left
behind."""

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import adimlab
from adimlab import kernel, witness
from adimlab.errors import BasisCountExceeded, BudgetExhausted
from adimlab.graph import from_pair_mask
from adimlab.metric import build_table, dimensionality
from adimlab.solver import enumerate_bases, solve_table
from adimlab.verify import THEOREMS, Corpus, sweep_theorem

SEVERAL_CPUS = len(os.sched_getaffinity(0)) > 1

# a minimum search of 81 nodes at k = 1, 70 more in the lex pass; and one
# of 29, below the hand-off node
PAST_HANDOFF = "NO}WVxT@Mv{~bsHHFhG"
BELOW_HANDOFF = "KbGrPtliXwM~"


def _problems(n):
    """(graph, t, k) for one seeded random graph of order n, at both
    truncation levels and every feasible k up to 3."""
    g = from_pair_mask(n, random.Random(n).getrandbits(n * (n - 1) // 2))
    for t in (2, n):
        top = dimensionality(build_table(g, t))
        for k in range(1, min(top, 3) + 1):
            yield g, t, k


def _warm():
    """Start the helper if it is not running and wait until it answers:
    offers made while it starts run their pass in the caller."""
    prepared = kernel.prepare([0b11], 2)
    job = (prepared.masks, prepared.cols, 1, 1, 0b01, 1, 0, None)
    deadline = time.monotonic() + 60
    while (ticket := witness.offer(job)) is None:
        assert time.monotonic() < deadline, "the helper never got ready"
        time.sleep(0.01)
    assert witness.collect(ticket) == kernel.lex_pass(prepared, 1, 1, 0b01, 1, 0)


def _both_paths(monkeypatch, run):
    """``run()`` with every pass run here, then with every search offering
    its pass from its first node on; the second returns the number of
    passes the helper answered too."""
    answered = []
    collect = witness.collect

    def counting(ticket):
        done = collect(ticket)
        answered.append(done is not None)
        return done

    monkeypatch.setattr(witness, "collect", counting)
    monkeypatch.setattr(kernel, "HANDOFF_NODES", 1 << 40)
    build_table.cache_clear()
    local = run()
    monkeypatch.setattr(kernel, "HANDOFF_NODES", 0)
    if SEVERAL_CPUS:
        _warm()
    build_table.cache_clear()
    helper = run()
    build_table.cache_clear()
    return local, helper, sum(answered)


def _outcome(call):
    """What ``call()`` returns, with a solve's ``millis`` zeroed, or the
    type and message of the budget or basis-count error it raises."""
    try:
        out = call()
    except (BudgetExhausted, BasisCountExceeded) as exc:
        return type(exc).__name__, str(exc)
    if hasattr(out, "stats"):
        return out._replace(stats=out.stats._replace(millis=0))
    return out


@pytest.mark.parametrize("n", [12, 15, 18, 21, 24])
def test_the_helper_solves_as_the_caller_does(monkeypatch, n):
    problems = list(_problems(n))

    def solves():
        out = []
        for g, t, k in problems:
            build_table.cache_clear()
            out.append(_outcome(lambda: solve_table(build_table(g, t), k)))
        return out

    local, helper, answered = _both_paths(monkeypatch, solves)
    assert helper == local
    assert answered or not SEVERAL_CPUS
    # a budget of the serial node count passes, one node less runs out
    for budget, fails in ((0, False), (-1, True)):

        def budgeted():
            out = []
            for (g, t, k), result in zip(problems, local):
                build_table.cache_clear()
                call = lambda: solve_table(build_table(g, t), k, result.stats.nodes + budget)
                out.append(_outcome(call))
            return out

        local_b, helper_b, _ = _both_paths(monkeypatch, budgeted)
        assert helper_b == local_b
        assert all((type(r) is tuple) == fails for r in local_b)


# 24 is left out: its full lists take seconds per cold search
@pytest.mark.parametrize("n", [12, 15, 18, 21])
def test_the_helper_lists_bases_as_the_caller_does(monkeypatch, n):
    problems = list(_problems(n))

    def lists():
        out = []
        for g, t, k in problems:
            for limit in (1, 5, None):
                build_table.cache_clear()
                out.append(_outcome(lambda: enumerate_bases(g, k, limit, t=t)))
        return out

    local, helper, answered = _both_paths(monkeypatch, lists)
    assert helper == local
    assert answered or not SEVERAL_CPUS
    assert any(type(r) is tuple for r in local) and any(type(r) is list for r in local)
    # the nodes of a whole list: its minimum search and its lex pass
    totals = []
    for g, t, k in problems:
        table = build_table(g, t)
        _, lex_nodes, _ = kernel.enumerate_min_covers(table.prepared, k)
        totals.append(table.prepared.searches[k][2] + lex_nodes)
    for budget, fails in ((0, False), (-1, True)):

        def budgeted():
            out = []
            for (g, t, k), nodes in zip(problems, totals):
                build_table.cache_clear()
                call = lambda: enumerate_bases(g, k, budget=nodes + budget, t=t)
                out.append(_outcome(call))
            return out

        local_b, helper_b, _ = _both_paths(monkeypatch, budgeted)
        assert helper_b == local_b
        assert all((type(r) is tuple) == fails for r in local_b)


@pytest.mark.skipif(not SEVERAL_CPUS, reason="no helper runs on one CPU")
def test_a_killed_helper_costs_its_job_alone(monkeypatch):
    g = from_pair_mask(18, random.Random(18).getrandbits(153))
    monkeypatch.setattr(kernel, "HANDOFF_NODES", 1 << 40)
    build_table.cache_clear()
    serial = _outcome(lambda: solve_table(build_table(g, 2), 2))
    monkeypatch.setattr(kernel, "HANDOFF_NODES", 0)
    _warm()
    offer = witness.offer
    killed = []

    def offer_then_kill(job):
        ticket = offer(job)
        if ticket is not None and not killed:
            killed.append(witness.helper_pid())
            os.kill(killed[0], 9)
        return ticket

    monkeypatch.setattr(witness, "offer", offer_then_kill)
    for _ in range(2):
        build_table.cache_clear()
        assert _outcome(lambda: solve_table(build_table(g, 2), 2)) == serial
    # the killed helper is reaped, and the second solve started a fresh one
    with pytest.raises(ChildProcessError):
        os.waitpid(killed[0], os.WNOHANG)
    assert witness.helper_pid() not in (None, killed[0])
    witness.stop()
    assert witness.helper_pid() is None


@pytest.mark.skipif(not SEVERAL_CPUS, reason="no helper runs on one CPU")
def test_a_forked_child_leaves_its_parents_helper_alone(monkeypatch):
    monkeypatch.setattr(kernel, "HANDOFF_NODES", 0)
    g = from_pair_mask(12, random.Random(12).getrandbits(66))
    build_table.cache_clear()
    solve_table(build_table(g, 2), 1)
    mine = witness.helper_pid()
    assert mine is not None
    read, write = os.pipe()
    child = os.fork()
    if child == 0:
        try:
            assert witness.helper_pid() is None
            build_table.cache_clear()
            solve_table(build_table(g, 2), 2)
            os.write(write, str(witness.helper_pid()).encode())
            witness.stop()
        finally:
            os._exit(0)
    os.close(write)
    theirs = int(os.read(read, 64))
    os.close(read)
    os.waitpid(child, 0)
    assert theirs not in (mine, child)
    assert witness.helper_pid() == mine
    os.kill(mine, 0)  # still running
    build_table.cache_clear()
    solve_table(build_table(g, 2), 2)
    assert witness.helper_pid() == mine


def test_no_helper_on_one_cpu(monkeypatch):
    monkeypatch.setattr(kernel, "HANDOFF_NODES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(witness, "_allowed", {})
    witness.stop()
    g = from_pair_mask(12, random.Random(12).getrandbits(66))
    build_table.cache_clear()
    solve_table(build_table(g, 2), 2)
    assert witness.helper_pid() is None


def _helper_in_a_worker(g):
    solve_table(build_table(g, 2), 1)
    pid = witness.helper_pid()
    return [] if pid is None else [(1, pid, None)]


def test_no_helper_in_a_sweeps_pool_worker(monkeypatch):
    # the workers are forked with the hand-off at the first node, and
    # every solve they run offers its pass
    monkeypatch.setattr(kernel, "HANDOFF_NODES", 0)
    monkeypatch.setitem(THEOREMS, "helper-in-a-worker", _helper_in_a_worker)
    report = sweep_theorem(Corpus(2, 5), "helper-in-a-worker", jobs=2)
    assert report.checked == 2 + 8 + 64 + 1024 and report.violations == []


COMPUTE = """
import sys
from adimlab import cli
from adimlab.verify import Corpus, check_cone_conjecture
check_cone_conjecture(Corpus(2, 4), jobs=1)
code = cli.main(["compute", "--g6", sys.argv[1], "--k", "1"])
print(code, "adimlab.witness" in sys.modules)
"""


def test_a_command_starts_a_helper_only_past_the_handoff_and_leaves_nothing_running():
    src = str(Path(adimlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    seen = []
    for g6 in (BELOW_HANDOFF, PAST_HANDOFF):
        proc = subprocess.Popen(
            [sys.executable, "-c", COMPUTE, g6], env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        # nothing of the session is left: neither the command nor a helper
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
        seen.append(out.split()[-2:])
    # the witness module, which starts the helper, loads only past the
    # hand-off node: a serial sweep of ladders never loads it
    assert seen == [["0", "False"], ["0", "True"]]
