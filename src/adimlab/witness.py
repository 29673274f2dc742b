"""Both cores share every search: the caller and a helper process.

A solve or basis list is a minimum search followed by the lex pass, and
both run through ``kernel._Search.branch_bound``.  Once a minimum search
for a pass has entered ``kernel.HANDOFF_NODES`` nodes (on a table of at
least ``kernel.HANDOFF_MASKS`` reduced masks), it reads the link to a
helper process once per ``kernel.POLL_NODES`` nodes.  Whichever end is
idle takes the other's oldest open branch: at a poll, a busy end that
knows the other waits gives it the exclude branch of its oldest open
frame (``_Search.split``), and keeps the rest.

- The caller hands the helper the lex pass of its incumbent when the
  helper is idle and holds no pass for that incumbent (the helper takes
  one job at a time, and a pass it holds for an older incumbent is
  cancelled); otherwise the idle helper takes branches of the minimum
  search.
- Once its search ends, the caller takes the helper's covers if the
  helper started from the final size and cover, and takes branches of the
  helper's lex probes while it waits.  A pass from another incumbent is
  cancelled, and the pass runs here, its probes shared the other way.
- An end whose own part of a search ends first takes branches back from a
  branch it gave away.

The end that started a search (its owner) keeps its ``kernel.Segments``
and merges them in depth-first order (``Segments.verdict``): the
incumbent passes through them as through the serial search, a segment
that ran from a stale incumbent runs again, the first cover of a probe
drops the segments after it (still running ones are cancelled), and the
nodes are summed over the segments that stand.  Work nests: an end that
polls inside a segment of the other's may be handed more.  A cancel
unwinds its target only once the work handed over inside it has run and
answered, since its owner waits for that; and the helper, between
messages, says that it waits whenever it dropped work unanswered.  So
dimensions, witnesses, basis lists, stored records, ``nodes``,
``search_nodes`` and ``greedy_size`` are those of the serial solve.  The
search stays serial where no helper runs (a sweep's pool worker, one
CPU) and under a node budget, where the lex pass is still handed over
whole, with the budget left, and the caller waits for it.

The helper is a fresh interpreter started with ``os.posix_spawn`` and
kept for the process, running ``serve`` on a pipe pair: messages to it on
its standard input, from it on its standard output, each a marshalled
tuple behind its length; a poll that finds nothing costs one ``poll(2)``.
It is spawned once this process's searches past the hand-off node have
together run ``SPAWN_NODES`` nodes, about the 20 ms the helper takes to
say it is ready, so a command whose searches are short never starts one.
No helper is started in a daemonic process (a sweep's pool worker, whose
pool already fills the cores), in a process allowed one CPU, or where
``os.posix_spawn`` is missing, and none again in a process whose helper
failed to start.  The helper belongs to the process that started it, by
pid: a forked child of that process closes its copies of the pipes and
starts its own.  It is killed and reaped at exit (``stop``).  A helper
that dies costs the solve it was in, which runs again alone
(``kernel.PeerLost``); the next solve past the hand-off starts a fresh
one.
"""

from __future__ import annotations

import atexit
import marshal
import os
import select
import sys

from .errors import BudgetExhausted
from .kernel import HERE, POLL_NODES, THERE, PeerLost, Prepared, lex_pass, segment

# signal.SIGINT and signal.SIGKILL wherever os.posix_spawn exists; the
# signal module would add 0.6 ms to a fresh process's first offer
_SIGINT = 2
_SIGKILL = 9

# the helper's program; its argument is the directory that holds adimlab
_MAIN = "import sys; sys.path.insert(0, sys.argv[1]); from adimlab import witness; witness.serve()"

# nodes past the hand-off node that this process's searches run before it
# spawns its helper: about the helper's 20 ms start-up at some 5 us a node
SPAWN_NODES = 4096

# this process's end of the link, as made by ``caller``
_caller: _Caller | None = None
# whether a process, by pid, may start a helper
_allowed: dict[int, bool] = {}


class _Cancelled(Exception):
    """Unwinds the job or segment ``target`` that the other end dropped."""

    def __init__(self, target):
        super().__init__(target)
        self.target = target


def _may_start() -> bool:
    pid = os.getpid()
    if pid not in _allowed:
        cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
        # multiprocessing is looked at only when something loaded it
        mp = sys.modules.get("multiprocessing")
        _allowed[pid] = bool(
            hasattr(os, "posix_spawn")
            and sys.executable
            and len(cpus or range(os.cpu_count() or 1)) > 1
            and not (mp is not None and mp.current_process().daemon)
        )
    return _allowed[pid]


def _read(fd: int, size: int) -> bytes:
    data = b""
    while len(data) < size:
        chunk = os.read(fd, size - len(data))
        if not chunk:
            raise EOFError
        data += chunk
    return data


class Peer:
    """One end of the link; the same code runs at both ends.

    ``idle``: the other end waits for work.  ``wanted``: this end has said
    that it waits.  ``records``: the segments, by ``ctx``, of this end's
    searches that gave part of themselves away.  ``table``: (key,
    prepared, k) of the one table the ends share, named by the end that
    sent it first, and ``known``, the key of the table the other end
    holds.  ``active``: the targets a cancel may name that run here, the
    job's and the other end's segments', innermost last, and
    ``cancelled``, those of them that the other end dropped.  Only the
    innermost unwinds: one that runs inside it was handed over since, and
    its owner waits for it, so an outer target unwinds once the work
    inside it is done."""

    def __init__(self, side: int):
        self.side = side  # 0 the caller, 1 the helper
        self.idle = self.wanted = False
        self.names = 0
        self.records: dict = {}
        self.table = self.known = None
        self.active: list = []
        self.cancelled: set = set()

    def attach(self, read_fd: int, write_fd: int) -> None:
        self.r, self.w = read_fd, write_fd
        self.poller = select.poll()
        self.poller.register(read_fd, select.POLLIN)

    def name(self) -> int:
        self.names += 1
        return self.names

    def send(self, message) -> None:
        data = marshal.dumps(message)
        data = len(data).to_bytes(8, "little") + data
        while data:
            data = data[os.write(self.w, data):]

    def receive(self):
        """The next message, waiting for it; ``EOFError`` when the other
        end is gone."""
        size = int.from_bytes(_read(self.r, 8), "little")
        return marshal.loads(_read(self.r, size))

    def read(self) -> None:
        """Act on every message that has come."""
        while self.poller.poll(0):
            self.handle(self.receive())

    # what kernel._Search calls: poll, wait and close

    def poll(self, search) -> None:
        """At a poll of ``search``: read what has come, then give the other
        end a branch if it waits for work."""
        self.read()
        self.restale(search)
        if self.idle and search.budget is None:
            self.give(search)

    def restale(self, search) -> None:
        """Segments of this end's search that the other end runs from a
        larger incumbent than ``search`` now holds come after it, so they
        are stale: they are cancelled, to run again."""
        segments = search.segments
        if segments is None or segments.ctx is None:
            return
        items = segments.items
        if search.seg not in items:
            return  # dropped with a stale branch it came from
        for item in items[items.index(search.seg) + 1:]:
            if item.where is THERE and item.result is None and item.size > search.best_size:
                segments.redo(item, search.best_size, search.best_mask)
        self.cancel(segments)

    def cancel(self, segments) -> None:
        """Cancel the dropped segments that the other end still runs."""
        for item in segments.dropped:
            if item.where is THERE and item.result is None:
                self.send(("cancel", (segments.ctx, item.name)))
                self.idle = True
        segments.dropped = []

    def wait(self, segments=None) -> None:
        """Say that this end waits for work, then act on one message."""
        if segments is not None:
            self.cancel(segments)
        if not self.wanted:
            self.send(("want",))
            self.wanted = True
        self.handle(self.receive())

    def close(self, segments) -> None:
        """Forget a settled search; its segments still running at the
        other end are cancelled."""
        if segments.ctx is None:
            return
        del self.records[segments.ctx]
        segments.dropped += segments.items
        self.cancel(segments)

    def give(self, search) -> None:
        state = search.split()
        if state is None:
            return
        segments = search.segments
        if segments is None:
            # a segment of the other end's search: the branch goes back
            # to it, after that segment
            ctx, name = search.seg
        else:
            if segments.ctx is None:
                segments.ctx = self.side, self.name()
                self.records[segments.ctx] = segments
            item = segments.add(search.seg, state, search.best_size, search.best_mask, THERE)
            item.name = self.name()
            ctx, name = segments.ctx, item.name
        key, table = self.key(search)
        self.send(("give", ctx, name, key, table, search.floor, state,
                   search.best_size, search.best_mask))
        # the other end is busy now, and takes this end for busy
        self.idle = self.wanted = False

    def key(self, search):
        """The key of ``search``'s table, and the table itself, (masks,
        columns, k), when the other end does not hold it."""
        table = self.table
        if table is None or table[1].masks is not search.masks or table[2] != search.k:
            table = self.table = (
                (self.side, self.name()), Prepared(search.masks, search.cols, 0, {}), search.k
            )
        key = table[0]
        if key == self.known:
            return key, None
        self.known = key
        return key, (search.masks, search.cols, search.k)

    def learn(self, key, table) -> None:
        if table is not None:
            masks, cols, k = table
            self.table = key, Prepared(masks, cols, 0, {}), k
            self.known = key

    def handle(self, message) -> None:
        kind = message[0]
        if kind == "want":
            self.idle = True
        elif kind == "give":
            self.idle = self.wanted = False
            self.run(*message[1:])
        elif kind == "result":
            self.idle = True
            _, ctx, name, size, mask, nodes = message
            segments = self.records.get(ctx)
            for item in () if segments is None else segments.items:
                if item.name == name and item.where is THERE:
                    item.result = size, mask, nodes
        elif kind == "cancel":
            if message[1] in self.active:
                self.cancelled.add(message[1])
        elif kind == "job":
            self.idle = self.wanted = False
            self.job(*message[1:])
        if self.active and self.active[-1] in self.cancelled:
            raise _Cancelled(self.active[-1])

    def run(self, ctx, name, key, table, floor, state, size, mask) -> None:
        """Run a segment given by the other end: a branch of one of this
        end's searches, given back, or one of the other end's."""
        self.learn(key, table)
        if self.table is None or self.table[0] != key:
            return
        _, prepared, k = self.table
        segments = self.records.get(ctx)
        if segments is not None:
            after = next((item for item in segments.items if item.name == name), None)
            if after is not None:
                item = segments.add(after, state, size, mask, HERE)
                item.result = segment(prepared, k, floor, state, size, mask, self, segments, item)
            return
        if ctx[0] == self.side:
            return  # of a search of this end that has settled
        target = ctx, name
        self.active.append(target)
        try:
            done = segment(prepared, k, floor, state, size, mask, self, None, target)
        except _Cancelled as exc:
            if exc.target != target:
                raise
            return
        finally:
            self.active.pop()
            self.cancelled.discard(target)
        self.send(("result", ctx, name, *done))
        self.wanted = True

    def job(self, ticket, key, table, size, cover, limit, prefix, budget) -> None:
        """Run the lex pass the caller handed over and answer (ticket,
        covers, nodes): covers None when the pass ran past its budget,
        nodes then past it too, and both None when it failed otherwise,
        so the caller runs it.  Without a budget its probes are shared."""
        self.learn(key, table)
        _, prepared, k = self.table
        target = "job", ticket
        self.active.append(target)
        before = set(self.records)
        try:
            covers, nodes = lex_pass(
                prepared, k, size, cover, limit, prefix, budget=budget,
                peer=self if budget is None else None,
            )
        except _Cancelled as exc:
            if exc.target != target:
                raise
            return
        except BudgetExhausted:
            covers, nodes = None, budget + 1
        except Exception:
            covers = nodes = None
        finally:
            self.active.pop()
            self.cancelled.discard(target)
            # searches of the pass that a cancel or an error unwound
            # before they closed: their segments still running at the
            # other end are cancelled too
            for ctx in self.records.keys() - before:
                self.close(self.records[ctx])
        self.send(("answer", ticket, covers, nodes))
        self.wanted = True


def serve() -> None:
    """The helper's program: say it is ready, then act on the caller's
    messages until its standard input closes.  Between messages it waits
    for work, and says so again after work that it dropped unanswered (a
    branch of a search that has settled): the caller takes it for busy
    until it hears from it."""
    peer = Peer(1)
    peer.attach(0, 1)
    try:
        peer.send(("ready",))
        peer.wanted = True
        while True:
            peer.wait()
    finally:
        # the caller is gone (end of file, broken pipe) or killed it
        os._exit(0)


class _Caller(Peer):
    """The caller's end, made before its helper runs.  ``pid``: the
    helper's, None until spawned.  ``spent``: nodes run past the hand-off
    before that.  ``job``: (ticket, size, cover, shared) of the lex pass
    the helper holds, and ``answer`` its (covers, nodes) once in."""

    def __init__(self):
        Peer.__init__(self, 0)
        self.owner = os.getpid()
        self.pid = None
        self.spent = 0
        self.ready = False
        self.job = self.answer = None

    def start(self) -> None:
        jobs_r, jobs_w = os.pipe()
        answers_r, answers_w = os.pipe()
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        flags = ["-I", "-S"] + ["-B"] * sys.flags.dont_write_bytecode
        try:
            pid = os.posix_spawn(
                sys.executable, [sys.executable, *flags, "-c", _MAIN, root], os.environ,
                file_actions=[
                    (os.POSIX_SPAWN_DUP2, jobs_r, 0),
                    (os.POSIX_SPAWN_DUP2, answers_w, 1),
                    (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0),
                ],
                # ^C at a terminal stops the caller, which then stops the helper
                setsigmask=(_SIGINT,),
            )
        except OSError:
            os.close(jobs_w)
            os.close(answers_r)
            _allowed[os.getpid()] = False
            return
        finally:
            os.close(jobs_r)
            os.close(answers_w)
        self.__init__()
        self.attach(answers_r, jobs_w)
        self.pid = pid

    def forget(self, kill: bool) -> None:
        """Close this process's copies of the pipes; kill and reap the
        helper when ``kill``."""
        if self.pid is None:
            return
        for fd in (self.r, self.w):
            try:
                os.close(fd)
            except OSError:
                pass
        if kill:
            try:
                os.kill(self.pid, _SIGKILL)
            except OSError:
                pass
            try:
                os.waitpid(self.pid, 0)
            except ChildProcessError:
                pass
        self.pid = None

    def lost(self) -> None:
        """The helper is gone, or a message was cut short (^C), which
        leaves the pipes out of step: either way it is done with."""
        self.forget(kill=True)
        if not self.ready:
            _allowed[self.owner] = False

    def send(self, message) -> None:
        try:
            Peer.send(self, message)
        except OSError:
            self.lost()
            raise PeerLost from None
        except BaseException:
            self.lost()
            raise

    def receive(self):
        try:
            return Peer.receive(self)
        except (OSError, EOFError):
            self.lost()
            raise PeerLost from None
        except BaseException:
            self.lost()
            raise

    def shares(self) -> bool:
        """Whether a lex pass here may share its probes: a helper runs."""
        return self.pid is not None

    def poll(self, search) -> None:
        """At a poll of ``search``: before the helper runs, count the
        minimum search's nodes towards its spawn.  Then read what has come,
        and give the idle helper the minimum search's lex pass when it
        holds none for the current incumbent, else a branch."""
        if self.pid is None:
            if search.handoff is not None:
                self.spent += POLL_NODES
                if self.spent >= SPAWN_NODES and _may_start():
                    self.start()
            return
        self.read()
        self.restale(search)
        if not self.idle:
            return
        if search.handoff is not None and (
            self.job is None or self.job[1:3] != (search.best_size, search.best_mask)
        ):
            self.offer(search)
        elif search.budget is None:
            self.give(search)

    def handle(self, message) -> None:
        kind = message[0]
        if kind == "ready":
            self.ready = self.idle = True
        elif kind == "answer":
            self.idle = True
            if self.job is not None and message[1] == self.job[0]:
                self.answer = message[2:]
        else:
            Peer.handle(self, message)

    def offer(self, search) -> None:
        """Hand the idle helper the lex pass of ``search``'s incumbent; a
        shared pass it still holds for an older incumbent is cancelled."""
        if self.job is not None and self.job[3] and self.answer is None:
            self.send(("cancel", ("job", self.job[0])))
        limit, prefix = search.handoff
        left = None if search.budget is None else search.budget - search.nodes
        key, table = self.key(search)
        ticket = self.name()
        self.send(("job", ticket, key, table, search.best_size, search.best_mask,
                   limit, prefix, left))
        self.job = ticket, search.best_size, search.best_mask, left is None
        self.answer = None
        self.idle = self.wanted = False

    def collect(self, size: int, cover: int):
        """The helper's (covers, nodes) for the lex pass from (size,
        cover), taking branches of its probes while it runs; None when the
        pass must run here.  A shared pass from another incumbent is
        cancelled; a budgeted one runs on, and its answer is dropped."""
        if self.job is None or self.pid is None:
            return None
        ticket, *start, shared = self.job
        if start != [size, cover]:
            self.job = None
            if shared and self.answer is None:
                self.send(("cancel", ("job", ticket)))
                self.idle = True
            return None
        while self.answer is None:
            if shared:
                self.wait()
            else:
                self.handle(self.receive())
        (covers, nodes), self.job, self.answer = self.answer, None, None
        return None if nodes is None else (covers, nodes)


def caller() -> _Caller | None:
    """This process's end of the link to its helper, made on first use;
    None where no helper may run."""
    global _caller
    if not _may_start():
        return None
    if _caller is not None and _caller.owner != os.getpid():
        # a parent's: close this process's copies of its pipes
        _caller.forget(kill=False)
        _caller = None
    if _caller is None:
        _caller = _Caller()
    return _caller


def stop() -> None:
    """Kill and reap this process's helper, if it has one; the next
    search past the spawn point starts a fresh one."""
    if _caller is not None and _caller.owner == os.getpid():
        _caller.forget(kill=True)


atexit.register(stop)


def helper_pid() -> int | None:
    """The pid of this process's helper, or None when it has none."""
    if _caller is not None and _caller.owner == os.getpid():
        return _caller.pid
    return None
