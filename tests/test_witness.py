"""Searches shared with the helper process: the same answers, node counts
and budget outcomes as the searches run alone, and no process left
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
from adimlab.graph import from_graph6, from_pair_mask
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
    """Start the helper if it is not running and wait until it is ready:
    a search started before then runs alone."""
    peer = witness.caller()
    if peer.pid is None:
        peer.start()
    deadline = time.monotonic() + 60
    while not peer.ready:
        assert time.monotonic() < deadline, "the helper never got ready"
        time.sleep(0.01)
        peer.read()


def _share_from_the_first_node(monkeypatch):
    """Let every solve's minimum search share from its first node on, on a
    table of any size."""
    monkeypatch.setattr(kernel, "HANDOFF_NODES", 0)
    monkeypatch.setattr(kernel, "HANDOFF_MASKS", 0)


def _both_paths(monkeypatch, run, want=()):
    """``run()`` with every search alone, then with every search shared
    from its first node on, polling the helper at every node; the second
    also returns how many passes the helper answered, how many branches
    the caller gave and how many it took, over its runs.  The shared run
    is repeated (up to ten times, each equal to the first) until each
    count named in ``want`` is above 0: whether the helper waits for the
    caller, or the caller for the helper, depends on timing."""
    seen = {"answer": 0, "gave": 0, "took": 0}
    send, handle = witness._Caller.send, witness._Caller.handle

    def counting_send(self, message):
        seen["gave"] += message[0] == "give"
        send(self, message)

    def counting_handle(self, message):
        seen["answer"] += message[0] == "answer" and message[3] is not None
        seen["took"] += message[0] == "give"
        handle(self, message)

    monkeypatch.setattr(witness._Caller, "send", counting_send)
    monkeypatch.setattr(witness._Caller, "handle", counting_handle)
    monkeypatch.setattr(kernel, "HANDOFF_NODES", 1 << 40)
    build_table.cache_clear()
    local = run()
    _share_from_the_first_node(monkeypatch)
    monkeypatch.setattr(kernel, "POLL_NODES", 1)
    if SEVERAL_CPUS:
        _warm()
    for _ in range(10 if want and SEVERAL_CPUS else 1):
        build_table.cache_clear()
        helper = run()
        assert helper == local
        if all(seen[count] for count in want):
            break
    build_table.cache_clear()
    return local, helper, seen


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

    # the helper answered passes, and branches went both ways; the solves
    # below n = 18 are often too short for the caller to wait on the helper
    want = ("answer", "gave", "took") if n >= 18 else ("answer", "gave")
    local, helper, seen = _both_paths(monkeypatch, solves, want)
    assert helper == local
    assert all(seen[count] for count in want) or not SEVERAL_CPUS
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

    local, helper, seen = _both_paths(monkeypatch, lists, ("answer", "gave", "took"))
    assert helper == local
    assert all(seen.values()) or not SEVERAL_CPUS
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
    _share_from_the_first_node(monkeypatch)
    monkeypatch.setattr(witness, "SPAWN_NODES", 0)
    _warm()
    offer = witness._Caller.offer
    killed = []

    def offer_then_kill(self, search):
        offer(self, search)
        if not killed:
            killed.append(self.pid)
            os.kill(self.pid, 9)

    monkeypatch.setattr(witness._Caller, "offer", offer_then_kill)
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
    _share_from_the_first_node(monkeypatch)
    monkeypatch.setattr(witness, "SPAWN_NODES", 0)
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
    # the search would spawn a helper at its first poll on several CPUs
    _share_from_the_first_node(monkeypatch)
    monkeypatch.setattr(witness, "SPAWN_NODES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(witness, "_allowed", {})
    witness.stop()
    g = from_pair_mask(12, random.Random(12).getrandbits(66))
    build_table.cache_clear()
    solve_table(build_table(g, 2), 2)
    assert witness.helper_pid() is None


def test_a_table_of_few_masks_never_asks_for_the_helper(monkeypatch):
    # the hand-off node at the first node, the table gate at its own value
    monkeypatch.setattr(kernel, "HANDOFF_NODES", 0)
    asked = []

    def no_caller():
        asked.append(True)
        return None

    monkeypatch.setattr(witness, "caller", no_caller)
    for g6, large in ((BELOW_HANDOFF, False), (PAST_HANDOFF, True)):
        g = from_graph6(g6)
        build_table.cache_clear()
        table = build_table(g, 2)
        assert (len(table.prepared.masks) >= kernel.HANDOFF_MASKS) == large
        asked.clear()
        solve_table(table, 1)
        assert asked == [True] * large


def test_a_cancelled_pass_forgets_the_branches_it_gave(monkeypatch):
    # the helper's end runs here; the test holds the caller's ends of the
    # pipes, says the caller waits, and cancels the pass at the poll where
    # a probe of it gave a branch away
    monkeypatch.setattr(kernel, "POLL_NODES", 1)
    g = from_pair_mask(18, random.Random(18).getrandbits(153))
    prepared = kernel.prepare(build_table(g, 2).pair_masks, g.n)
    size, cover, _, _ = kernel.minimum_search(prepared, 1)
    to_helper, from_helper = os.pipe(), os.pipe()
    helper, other = witness.Peer(1), witness.Peer(0)
    helper.attach(to_helper[0], from_helper[1])
    other.attach(from_helper[0], to_helper[1])
    give = witness.Peer.give

    def give_then_cancel(self, search):
        give(self, search)
        if self.records:
            other.send(("cancel", ("job", 1)))
            self.read()

    monkeypatch.setattr(witness.Peer, "give", give_then_cancel)
    other.send(("want",))
    try:
        helper.handle(("job", 1, (0, 1), (prepared.masks, prepared.cols, 1), size, cover,
                       1 << 62, 0, None))
        sent = []
        while other.poller.poll(0):
            sent.append(other.receive())
    finally:
        for fd in (*to_helper, *from_helper):
            os.close(fd)
    # the branch given away is cancelled at the caller's end, no answer
    # comes, and the helper keeps nothing of the pass
    assert [m[0] for m in sent] == ["give", "cancel"]
    assert sent[1][1] == sent[0][1:3]
    assert helper.records == {} and helper.active == [] and helper.cancelled == set()


def test_a_cancel_waits_for_the_branch_handed_over_inside_its_target(monkeypatch):
    # the helper's end runs here.  A branch given to it while it runs an
    # older one is still owed to the caller when the older one is
    # cancelled: it runs to its end and answers, then the older one unwinds
    monkeypatch.setattr(kernel, "POLL_NODES", 1)
    g = from_pair_mask(18, random.Random(18).getrandbits(153))
    prepared = kernel.prepare(build_table(g, 2).pair_masks, g.n)
    seed = kernel.forced(prepared.masks, 1)
    planes = kernel._planes(prepared.cols, 1, len(prepared.masks), seed)
    state = seed, seed.bit_count(), (1 << g.n) - 1 & ~seed, planes
    incumbent = g.n, (1 << g.n) - 1
    to_helper, from_helper = os.pipe(), os.pipe()
    helper, other = witness.Peer(1), witness.Peer(0)
    helper.attach(to_helper[0], from_helper[1])
    other.attach(from_helper[0], to_helper[1])
    ctx, key = (0, 1), (0, 2)
    # read at the older branch's first poll, then at the newer one's
    other.send(("give", ctx, 2, key, None, 0, state, *incumbent))
    other.send(("cancel", (ctx, 1)))
    try:
        helper.handle(("give", ctx, 1, key, (prepared.masks, prepared.cols, 1), 0, state,
                       *incumbent))
        sent = []
        while other.poller.poll(0):
            sent.append(other.receive())
    finally:
        for fd in (*to_helper, *from_helper):
            os.close(fd)
    alone = kernel.segment(prepared, 1, 0, state, *incumbent, None, None, None)
    assert sent == [("result", ctx, 2, *alone)]
    assert helper.active == [] and helper.cancelled == set()


@pytest.mark.skipif(not SEVERAL_CPUS, reason="no helper runs on one CPU")
def test_a_helper_that_drops_a_branch_says_it_waits():
    # a branch of a helper's search that settled before the branch came
    # back: the helper drops it, and must say that it waits, or the caller
    # takes it for busy for good and shares nothing more with it
    _warm()
    peer = witness.caller()
    prepared = build_table(from_pair_mask(12, random.Random(12).getrandbits(66)), 2).prepared
    state = 0, 0, (1 << 12) - 1, kernel._planes(prepared.cols, 1, len(prepared.masks), 0)
    peer.send(("give", (1, 1 << 30), 1, (0, 1 << 30), (prepared.masks, prepared.cols, 1),
               0, state, 13, (1 << 12) - 1))
    peer.idle = False
    deadline = time.monotonic() + 10
    try:
        while not peer.idle:
            assert time.monotonic() < deadline, "the helper never said that it waits"
            time.sleep(0.01)
            peer.read()
    finally:
        # the helper now holds a table the caller's end did not name
        witness.stop()


def _helper_in_a_worker(g):
    solve_table(build_table(g, 2), 1)
    pid = witness.helper_pid()
    return [] if pid is None else [(1, pid, None)]


def test_no_helper_in_a_sweeps_pool_worker(monkeypatch):
    # the workers are forked sharing from the first node on and spawning
    # at the first poll, so any solve they run would start a helper
    _share_from_the_first_node(monkeypatch)
    monkeypatch.setattr(witness, "SPAWN_NODES", 0)
    monkeypatch.setitem(THEOREMS, "helper-in-a-worker", _helper_in_a_worker)
    report = sweep_theorem(Corpus(2, 5), "helper-in-a-worker", jobs=2)
    assert report.checked == 2 + 8 + 64 + 1024 and report.violations == []


COMPUTE = """
import sys
from adimlab import cli
from adimlab.verify import Corpus, check_cone_conjecture
check_cone_conjecture(Corpus(2, 4), jobs=1)
code = cli.main(["compute", "--g6", sys.argv[1], "--k", sys.argv[2]])
witness = sys.modules.get("adimlab.witness")
print(code, witness is not None, witness is not None and witness.helper_pid() is not None)
"""

# the solve-random graph of order 22: its three minimum searches run some
# 4,400 nodes past the hand-off node, more than ``witness.SPAWN_NODES``
LONG = "UBBEPIgYPA?cRdeH?SCM`CcI@C`Ho?dLBNGPEfO?"


def test_a_command_starts_a_helper_only_past_the_handoff_and_leaves_nothing_running():
    src = str(Path(adimlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    seen = []
    for g6, k in ((BELOW_HANDOFF, "1"), (PAST_HANDOFF, "1"), (LONG, "1..3")):
        proc = subprocess.Popen(
            [sys.executable, "-c", COMPUTE, g6, k], env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        # nothing of the session is left: neither the command nor a helper
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
        seen.append(out.split()[-3:])
    # the witness module loads only past the hand-off node (a serial sweep
    # of ladders never loads it), and the helper is spawned only once the
    # searches past it have run long enough to pay for its start-up
    spawned = "True" if SEVERAL_CPUS else "False"
    assert seen == [["0", "False", "False"], ["0", "True", "False"], ["0", "True", spawned]]
