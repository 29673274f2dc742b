"""The witness pass on a second core, beside the minimum search's proof.

A solve or basis list is a minimum search followed by the lex pass, and the
pass needs only the reduced table, k, the minimum size and one cover of
that size.  Once a minimum search for a pass has entered
``kernel.HANDOFF_NODES`` nodes, it ``offer``s its incumbent to a helper
process, which runs the same pass (``kernel.lex_pass``) while this process
goes on proving the size; each later improvement is offered again when the
helper is idle.  When the search ends, its caller ``collect``s the helper's
covers if the helper started from the final size and cover, and runs the
pass itself otherwise.  A stale job is never cancelled: its answer is
dropped when the helper next reports.  The helper runs the same code on
the same masks, columns and cover, so covers, node counts and budget
outcomes are those of the pass run here; the budget left at the offer
bounds it, and the caller charges its nodes.

The helper is a fresh interpreter that the first offer starts with
``os.posix_spawn`` and that is kept for the process, running ``serve`` on
a pipe pair: jobs on its standard input, answers on its standard output,
each message a marshalled tuple behind its length.  Forking this process
instead cost a fresh ``adimlab compute`` about 3 ms more than spawning
does, in page copies on write in both processes.  The helper takes jobs
once it says it is ready, some 20 ms after the spawn, so the passes
offered before that run here.  No helper is started in a daemonic process
(a sweep's pool worker, whose pool already fills the cores), in a process
allowed one CPU, or where ``os.posix_spawn`` is missing, and none again in
a process whose helper failed to start: there every pass runs where it is
asked for.  The helper belongs to the process that started it, by pid: a
forked child of that process closes its copies of the pipes and starts its
own.  It is killed and reaped at exit (``stop``).  A helper that dies
loses only its job, whose pass then runs here; the next offer starts a
fresh one.
"""

from __future__ import annotations

import atexit
import marshal
import os
import sys

from .errors import BudgetExhausted
from .kernel import Prepared, lex_pass

# signal.SIGINT and signal.SIGKILL wherever os.posix_spawn exists; the
# signal module would add 0.6 ms to a fresh process's first offer
_SIGINT = 2
_SIGKILL = 9

# the helper's program; its argument is the directory that holds adimlab
_MAIN = "import sys; sys.path.insert(0, sys.argv[1]); from adimlab import witness; witness.serve()"

# (owner pid, helper pid, job pipe's write end, answer pipe's read end)
_helper: tuple[int, int, int, int] | None = None
# whether the helper has said it is ready
_ready = False
# the ticket of the job the helper is running, or None when it is idle
_busy: int | None = None
_tickets = 0
# whether a process, by pid, may start a helper
_allowed: dict[int, bool] = {}


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


def _send(fd: int, message) -> None:
    data = marshal.dumps(message)
    data = len(data).to_bytes(8, "little") + data
    while data:
        data = data[os.write(fd, data):]


def _read(fd: int, size: int) -> bytes:
    data = b""
    while len(data) < size:
        chunk = os.read(fd, size - len(data))
        if not chunk:
            raise EOFError
        data += chunk
    return data


def _receive(fd: int, wait: bool = True):
    """The next message on ``fd``, or None when ``wait`` is false and none
    has begun to arrive; ``EOFError`` when the writer is gone."""
    head = b""
    if not wait:
        os.set_blocking(fd, False)
        try:
            head = os.read(fd, 8)
        except BlockingIOError:
            return None
        finally:
            os.set_blocking(fd, True)
        if not head:
            raise EOFError
    head += _read(fd, 8 - len(head))
    return marshal.loads(_read(fd, int.from_bytes(head, "little")))


def serve() -> None:
    """The helper's program: say it is ready, then, until its standard
    input closes, run each job's lex pass and answer (ticket, covers,
    nodes).  Covers are None when the pass ran past the budget it was
    given, nodes then past it too, and both are None when the pass failed
    otherwise, so the caller runs it."""
    try:
        _send(1, "ready")
        while True:
            ticket, masks, cols, k, size, cover, limit, prefix, budget = _receive(0)
            try:
                covers, nodes = lex_pass(
                    Prepared(masks, cols, 0, {}), k, size, cover, limit, prefix,
                    budget=budget,
                )
            except BudgetExhausted:
                covers, nodes = None, budget + 1
            except Exception:
                covers = nodes = None
            _send(1, (ticket, covers, nodes))
    finally:
        # the caller is gone (end of file, broken pipe) or killed it
        os._exit(0)


def _start() -> None:
    global _helper, _ready, _busy
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
    _helper = os.getpid(), pid, jobs_w, answers_r
    _ready = False
    _busy = None


def _drop() -> None:
    """Forget the helper; one this process started is killed and reaped,
    and a parent's is left running, only this process's copies of its
    pipes closed."""
    global _helper, _busy
    owner, pid, jobs, answers = _helper
    _helper = _busy = None
    for fd in (jobs, answers):
        try:
            os.close(fd)
        except OSError:
            pass
    if owner == os.getpid():
        try:
            os.kill(pid, _SIGKILL)
        except OSError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


def stop() -> None:
    """Kill and reap this process's helper, if it has one; the next offer
    starts a fresh one."""
    if _helper is not None and _helper[0] == os.getpid():
        _drop()


atexit.register(stop)


def helper_pid() -> int | None:
    """The pid of this process's helper, or None when it has none."""
    return _helper[1] if _helper is not None and _helper[0] == os.getpid() else None


def offer(job: tuple) -> int | None:
    """Hand the helper ``job``, (masks, columns, k, size, cover, limit,
    prefix, budget), and return the job's ticket; None when the helper is
    starting (the first offer starts it) or busy, or none may run."""
    global _ready, _busy, _tickets
    if not _may_start():
        return None
    if _helper is not None and _helper[0] != os.getpid():
        _drop()
    if _helper is None:
        _start()
        return None
    try:
        if not _ready:
            if _receive(_helper[3], wait=False) is None:
                return None
            _ready = True
        if _busy is not None:
            # a stale job: drop its answer if it is in, else let it run
            if _receive(_helper[3], wait=False) is None:
                return None
            _busy = None
        _tickets += 1
        _send(_helper[2], (_tickets, *job))
    except BaseException as exc:
        # gone, or a message cut short (^C) that leaves the pipes out of
        # step: either way this helper is done with; one that never got
        # ready cannot start here
        if not _ready:
            _allowed[os.getpid()] = False
        _drop()
        if not isinstance(exc, (OSError, EOFError)):
            raise
        return None
    _busy = _tickets
    return _tickets


def collect(ticket: int) -> tuple[list[int], int] | None:
    """Wait for the answer to job ``ticket``: (covers, nodes), covers None
    when the pass ran past its budget; None when the pass must run here
    (the helper failed it or is gone, or is not running it)."""
    global _busy
    if _helper is None or _busy != ticket:
        return None
    try:
        answer = _receive(_helper[3])
    except BaseException as exc:
        _drop()
        if not isinstance(exc, (OSError, EOFError)):
            raise
        return None
    _busy = None
    _, covers, nodes = answer
    return None if nodes is None else (covers, nodes)
