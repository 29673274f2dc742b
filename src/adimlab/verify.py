"""Corpus-scale theorem sweeps and the cone conjecture engine.

Sweeps re-check one statement per graph, or per unordered pair of graphs,
of a ``corpus.Corpus``, and report violations; a violation would be a
counterexample, so reports carry full witness data.  An ``on_violation``
hook sees each violation as soon as it is found, in a pool worker too.

A sweep with ``jobs > 1`` runs in the process's one worker pool, made on
its first pooled sweep and kept for the next ones, so only a process that
runs several pooled sweeps (a script, a notebook, the test suite) saves
the start-up; a CLI ``sweep`` or ``conjecture`` runs one sweep and forks
its workers once.  ``multiprocessing`` is imported by that first pooled
sweep, so a serial sweep and every other command never load it.  The
other process a run may start is the ``witness`` helper, which solves and
basis lists start with ``os.posix_spawn`` once their minimum searches have
run ``witness.SPAWN_NODES`` nodes past ``kernel.HANDOFF_NODES`` (the
``cone-equality`` checker lists bases); ladders and size reads never
start it, and no pool worker does.
Importing ``adimlab``, ``adimlab.cli`` or this module, or a serial sweep
of ladders, loads neither ``multiprocessing`` nor ``witness``.  The pool
is kept under the key (process id, ``jobs``, ``ADIMLAB_BUDGET``, checker),
everything its workers were forked with, and replaced when the key
differs: a checker defined or redefined since gets new workers, and a
forked child drops its parent's pool without touching it and makes its
own.  Other state changed after the workers were forked (a library
function the checker calls, patched later) does not reach them.  The pool
is dropped when an exception leaves a pooled sweep, so a failed sweep's
queued shards never run ahead of the next sweep's, and each shard starts
from an empty table cache, so no answer comes from a table left by an
earlier sweep.

A pooled sweep sends the pool ``jobs`` shards ``(checker, corpus, arity,
part, jobs)``, never a graph: the worker takes the corpus's entries itself
and checks every ``jobs``-th unit from the ``part``-th.  A graph6 corpus
carries its lines, which each worker decodes; a class list comes from the
worker's own ``_classes`` cache, so an order the parent had not walked
when the workers were forked is walked once in each worker.  The
workers put each shard's start with their pid, each violation, each
shard's checked count and any exception on one queue, made with the pool,
which the parent reads until every shard has reported.  While the queue
is silent the parent checks that the worker of every started shard is
alive, and a lost one raises ``WorkerLost``: its shard would never report.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from collections.abc import Callable, Collection, Iterable
from functools import partial
from itertools import combinations_with_replacement, islice
from math import comb, prod
from typing import TYPE_CHECKING, NamedTuple

from .bitset import bits_of
# Corpus is re-exported too: callers, the benchmark among them, use verify.Corpus
from .corpus import Corpus, Entry, labeled_members
from .errors import BadParameter, UnknownTheorem, WorkerLost, check_positive_int
from .graph import (
    INFINITE,
    Graph,
    complement,
    complete,
    components,
    diameter,
    is_connected,
    is_tree,
    join,
)
from .metric import (
    build_table,
    cone_dimensionality,
    dimensionality,
    join_dimensionality,
)
from .solver import (
    BUDGET_ENV,
    adim_ladder,
    ladder_covers,
    minimum_size,
    table_ladder,
)

if TYPE_CHECKING:
    from multiprocessing.pool import Pool
    from multiprocessing.queues import SimpleQueue


class Violation(NamedTuple):
    graph6: str
    k: int
    observed: object
    expected: object

    def to_json_dict(self) -> dict:
        return self._asdict()


class SweepReport(NamedTuple):
    """A sweep's outcome, built once when the sweep ends; the default
    violation list is shared, so a report is never appended to."""

    theorem: str
    checked: int = 0
    violations: list[Violation] = []
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "checked": self.checked,
            "violations": [v.to_json_dict() for v in self.violations],
            "elapsed": round(self.elapsed, 3),
        }


# -- per-graph checkers ------------------------------------------------------
# Each checker returns (k, observed, expected) triples; empty means pass.

Check = Callable[[Graph], list[tuple[int, object, object]]]


def _ladder(g: Graph) -> list[int]:
    """The ladder of g; empty for a graph of fewer than two vertices, which
    has no feasible level, so a ladder checker passes it."""
    return adim_ladder(g) if g.n >= 2 else []


def _check_monotony(g: Graph) -> list:
    ladder = _ladder(g)
    return [
        (k + 1, ladder[k], f"> {ladder[k - 1]}")
        for k in range(1, len(ladder))
        if ladder[k] <= ladder[k - 1]
    ]


def _check_k_plus_2(g: Graph, top: int | None = None) -> list:
    """adim_k(G) >= k + 2 on n >= 7, for every feasible k up to ``top``."""
    if g.n < 7:
        return []
    ladder = adim_ladder(g)[:top]
    return [
        (k, ladder[k - 1], f">= {k + 2}")
        for k in range(1, len(ladder) + 1)
        if ladder[k - 1] < k + 2
    ]


def _check_complement(g: Graph) -> list:
    mine = _ladder(g)
    other = _ladder(complement(g))
    if mine == other:
        return []
    return [
        (k, a, b)
        for k, (a, b) in enumerate(zip(mine, other), start=1)
        if a != b
    ] or [(0, len(mine), len(other))]


def _check_dim_le_adim(g: Graph) -> list:
    diam = diameter(g)
    if g.n < 2 or diam == INFINITE:
        return []
    adim = adim_ladder(g)
    # the diameter walk found g connected, so its level-n table is the full
    # metric's; dim_ladder would walk g once more to find that out
    dim = table_ladder(build_table(g, g.n))
    flat = diam <= 2
    out = []
    for k in range(1, len(adim) + 1):
        d, a = dim[k - 1], adim[k - 1]
        if d > a:
            out.append((k, d, f"<= {a}"))
        elif flat and d != a:
            out.append((k, d, f"== {a} (diameter <= 2)"))
    return out


def _check_kdim_vs_kadj(g: Graph) -> list:
    diam = diameter(g)
    if g.n < 2 or diam == INFINITE:
        return []
    k_adj = dimensionality(build_table(g, 2))
    k_met = dimensionality(build_table(g, g.n))
    if k_adj > k_met:
        return [(0, k_adj, f"<= {k_met}")]
    if diam <= 2 and k_adj != k_met:
        return [(0, k_adj, f"== {k_met} (diameter <= 2)")]
    return []


def _cone_ladders(h: Graph) -> tuple[list[int], list[int]]:
    """The ladders of H and of its cone K1 + H; both empty when H's is."""
    lh = _ladder(h)
    return lh, (adim_ladder(join(complete(1), h)) if lh else [])


def _check_cone_lower(g: Graph) -> list:
    lh, lc = _cone_ladders(g)
    return [
        (k, lc[k - 1], f">= {lh[k - 1]}")
        for k in range(1, len(lc) + 1)
        if lc[k - 1] < lh[k - 1]
    ]


def _is_path_graph(g: Graph) -> bool:
    return is_tree(g) and g.max_degree() <= 2


def _is_cycle_graph(g: Graph) -> bool:
    return (
        g.n >= 3
        and is_connected(g)
        and all(d == 2 for d in g.degrees())
    )


def _is_c5(g: Graph) -> bool:
    return g.n == 5 and _is_cycle_graph(g)


def _is_p4_or_c5(g: Graph) -> bool:
    return (g.n == 4 and _is_path_graph(g)) or _is_c5(g)


def _check_k_plus_1(k: int, family: Callable[[Graph], bool], g: Graph) -> list:
    """adim_k(G) = k + 1 exactly when G is in ``family``, on n >= k + 1."""
    if g.n < k + 1:
        return []
    ladder = adim_ladder(g)
    observed = len(ladder) >= k and ladder[k - 1] == k + 1
    expected = family(g)
    if observed != expected:
        return [(k, observed, expected)]
    return []


def _spider_legs(g: Graph) -> list[int] | None:
    """Leg lengths when the tree has exactly one vertex of degree >= 3."""
    centers = [v for v in range(g.n) if g.degree(v) >= 3]
    if len(centers) != 1:
        return None
    c = centers[0]
    legs = []
    for first in g.neighbors(c):
        length = 1
        prev, cur = c, first
        while g.degree(cur) == 2:
            nxt = next(u for u in g.neighbors(cur) if u != prev)
            prev, cur = cur, nxt
            length += 1
        if g.degree(cur) != 1:
            return None
        legs.append(length)
    return sorted(legs)


def _in_family_f1(t: Graph) -> bool:
    if _is_path_graph(t):
        return t.n in (2, 3, 6)
    legs = _spider_legs(t)
    if legs is None:
        return False
    if len(legs) >= 3 and all(l == 1 for l in legs):
        return True  # star
    return legs == [1, 2, 2]


def _in_family_f2(t: Graph) -> bool:
    if _is_path_graph(t):
        return 2 <= t.n <= 5
    legs = _spider_legs(t)
    if legs is None:
        return False
    if all(l == 1 for l in legs):
        return len(legs) >= 3  # star
    return len(legs) >= 3 and legs[-1] == 3 and all(l == 1 for l in legs[:-1])


def _in_family_f3(t: Graph) -> bool:
    # P5 drops out: both the path and the fan have value 5 at level 3,
    # so the cone equality holds there (confirmed by brute force)
    return _is_path_graph(t) and t.n == 4


_K1T_FAMILIES = {1: _in_family_f1, 2: _in_family_f2, 3: _in_family_f3}


def _check_k1t_trees(g: Graph) -> list:
    if not is_tree(g):
        return []
    lt, lc = _cone_ladders(g)
    out = []
    for k in (1, 2, 3):
        if k > len(lc):
            continue
        equal = lc[k - 1] == lt[k - 1]
        excluded = _K1T_FAMILIES[k](g)
        if equal != (not excluded):
            out.append((k, f"equal={equal}", f"member-of-family={excluded}"))
    return out


def _check_full_dimension(g: Graph) -> list:
    # imported on first use, as in _check_cone_equality
    from .formulas import full_dimension_criteria

    ladder = _ladder(g)
    out = []
    for k in range(1, len(ladder) + 1):
        forced_full = full_dimension_criteria(g, k).holds
        if (ladder[k - 1] == g.n) != forced_full:
            out.append((k, ladder[k - 1], f"forced-covers-all={forced_full}"))
    return out


def _check_cone_dimensionality(g: Graph) -> list:
    if g.n < 2:
        return []
    closed = cone_dimensionality(g)
    direct = dimensionality(build_table(join(complete(1), g), 2))
    return [] if closed == direct else [(0, closed, direct)]


def _check_cone_isolated_dichotomy(g: Graph) -> list:
    """A strict cone increase needs H connected, or connected plus exactly
    one isolated-vertex component."""
    lh, lc = _cone_ladders(g)
    if all(lc[k] == lh[k] for k in range(len(lc))):
        return []
    comps = components(g)
    if len(comps) == 1:
        return []
    if len(comps) == 2 and min(c.bit_count() for c in comps) == 1:
        return []
    shape = sorted(c.bit_count() for c in comps)
    return [(0, f"components={shape}", "connected or one isolated vertex")]


def _cone_slack_at(ks: Collection[int], g: Graph) -> list:
    """``check_cone_slack`` bound to a k range, picklable for pool workers."""
    return check_cone_slack(g, ks)


def _cone_certificate(h: Graph, basis: int, k: int) -> int | None:
    """A k-generator of K1 + H of at most |basis| + k vertices, as a mask
    over the cone's vertices (the apex is 0, H's vertex v is v + 1), or
    None when the greedy below finds none.  ``basis`` is a k-generator of
    H, and k is at most the cone's dimensionality.

    Inside H the cone's pair sets are H's own, as the apex is adjacent to
    both ends of every pair; the pair (apex, y) has the set {apex} plus
    V(H) - N(y).  So the basis, the apex and vertices X of H make a
    k-generator once |(basis + X) - N(y)| >= k - 1 for every y of H.  X
    grows to at most k - 1 vertices, each time by the vertex outside the
    most short N(y), the lowest on a tie (x is outside N(y) exactly when y
    is outside N(x)).  A short y leaves a vertex to add: n - deg(y) >= k - 1
    at a level the cone admits."""
    rows = h.rows
    full = (1 << h.n) - 1
    chosen = basis
    for _ in range(k):
        short = 0
        for y, row in enumerate(rows):
            if (chosen & ~row).bit_count() < k - 1:
                short |= 1 << y
        if not short:
            return chosen << 1 | 1
        # max keeps the first, so the lowest, of equal vertices
        outside = bits_of(full & ~chosen)
        chosen |= 1 << max(outside, key=lambda x: (short & ~rows[x]).bit_count())
    return None


def check_cone_slack(h: Graph, k_range: Collection[int]) -> list:
    """Violations of cone(H) <= adim_k(H) + k for the levels k in range at
    which the cone has a k-generator, in ascending k.  Each level is first
    settled by ``_cone_certificate`` from the minimum cover H's ladder
    stored, read with the ladder in one call; the cone's table is built,
    once, and searched exactly only at a level that gets none.  Only the
    cone's levels are visited, so a wide range costs no more than the
    levels it shares with them."""
    if h.n < 2:
        return []
    table = build_table(h, 2)
    lh, covers = ladder_covers(table)
    # cone_dimensionality(h), read from the ladder's length: the closed
    # form would look the table up again
    top = min(len(lh), h.n - h.max_degree() + 1)
    cone = None
    out = []
    for k in range(1, top + 1):
        if k not in k_range:
            continue
        if _cone_certificate(h, covers[k - 1], k) is not None:
            continue
        if cone is None:
            cone = build_table(join(complete(1), h), 2)
        size = minimum_size(cone, k)
        if size > lh[k - 1] + k:
            out.append((k, size, f"<= {lh[k - 1] + k}"))
    return out


def _check_cone_equality(h: Graph) -> list:
    """adim_k(K1+H) = adim_k(H) exactly when cone_equality_criterion holds."""
    # imported on first use, so no other sweep pays to load formulas (a
    # test holds them to that)
    from .formulas import cone_equality_criterion

    lh, lc = _cone_ladders(h)
    out = []
    for k in range(1, len(lc) + 1):
        holds = cone_equality_criterion(h, k).holds
        if holds != (lc[k - 1] == lh[k - 1]):
            out.append((k, f"criterion={holds}", f"equal={not holds}"))
    return out


THEOREMS: dict[str, Check] = {
    "monotony": _check_monotony,
    "k-plus-2": _check_k_plus_2,
    "adim1-ge-3": partial(_check_k_plus_2, top=1),
    "complement": _check_complement,
    "dim-le-adim": _check_dim_le_adim,
    "kdim-vs-kadj": _check_kdim_vs_kadj,
    "cone-lower": _check_cone_lower,
    "cone-dimensionality": _check_cone_dimensionality,
    "cone-equality": _check_cone_equality,
    "cone-isolated-dichotomy": _check_cone_isolated_dichotomy,
    "full-dimension": _check_full_dimension,
    "adim3-eq-4": partial(_check_k_plus_1, 3, _is_p4_or_c5),
    "adim4-eq-5": partial(_check_k_plus_1, 4, _is_c5),
    "K1T-trees": _check_k1t_trees,
    "cone-conjecture": partial(_cone_slack_at, (1, 2, 3, 4)),
}


def _check_join_lower_pair(g: Graph, h: Graph) -> list:
    if g.n < 2 or h.n < 2:
        return []
    top = join_dimensionality(g, h)
    lg = adim_ladder(g)
    lh = adim_ladder(h)
    lj = adim_ladder(join(g, h))
    return [
        (k, lj[k - 1], f">= {lg[k - 1] + lh[k - 1]}")
        for k in range(1, top + 1)
        if lj[k - 1] < lg[k - 1] + lh[k - 1]
    ]


def _check_join_dimensionality_pair(g: Graph, h: Graph) -> list:
    if g.n < 2 or h.n < 2:
        return []
    closed = join_dimensionality(g, h)
    direct = dimensionality(build_table(join(g, h), 2))
    return [] if closed == direct else [(0, closed, direct)]


# Statements over unordered pairs (G, H), swept over multisets of two corpus
# entries.  A pair checker must be symmetric in its two graphs and invariant
# under isomorphism of either, as both of these are.
PAIR_THEOREMS: dict[str, Callable[[Graph, Graph], list]] = {
    "join-lower": _check_join_lower_pair,
    "join-dimensionality": _check_join_dimensionality_pair,
}


def _check_units(
    checker: Callable,
    units: Iterable[tuple[Entry, ...]],
    emit: Callable[[Violation], None],
) -> int:
    """Check each unit, a multiset of (key, weight, graph) entries, once, and
    return the number of labeled multisets the units stand for.  A failing
    unit is expanded into these, each checked and emitted under its own
    graph6 names, as a labeled sweep would report them."""
    checked = 0
    relabel: dict[int, tuple] = {}
    for unit in units:
        checked += prod(comb(w + c - 1, c) for (_, w, _), c in Counter(unit).items())
        if not checker(*(g for _, _, g in unit)):
            continue
        for name, graphs in labeled_members(unit, relabel):
            for k, observed, expected in checker(*graphs):
                emit(Violation(name, k, observed, expected))
    return checked


class _Shard(NamedTuple):
    """A shard's report: ``checked`` is None when worker ``pid`` starts
    slice ``part``, and the slice's checked count when it is done."""

    part: int
    pid: int
    checked: int | None = None


# the queue a pool worker reports to, set by the pool's initializer
_queue: SimpleQueue | None = None


def _set_queue(queue: SimpleQueue) -> None:
    global _queue
    _queue = queue


def _sweep_slice(shard: tuple) -> None:
    """Check slice ``part`` of ``jobs`` of the corpus's units, every
    ``jobs``-th from the ``part``-th, from an empty table cache.  The
    worker puts on its queue a ``_Shard`` with its pid as it starts, each
    violation when it is found, then a ``_Shard`` with the slice's checked
    count; an exception is put in place of the count, with its traceback,
    or as a ``RuntimeError`` naming it when it cannot be pickled."""
    checker, corpus, arity, part, jobs = shard
    try:
        pid = os.getpid()
        _queue.put(_Shard(part, pid))
        build_table.cache_clear()
        units = combinations_with_replacement(corpus.entries(), arity)
        checked = _check_units(checker, islice(units, part, None, jobs), _queue.put)
        _queue.put(_Shard(part, pid, checked))
    except BaseException as exc:
        # BaseException too: one that left this function would end the
        # worker with its count unsent, and the parent would wait forever
        from multiprocessing.pool import ExceptionWithTraceback

        try:
            _queue.put(ExceptionWithTraceback(exc, exc.__traceback__))
        except Exception as why:
            _queue.put(RuntimeError(f"a pool worker raised {exc!r}, unsent: {why}"))


# how long a pooled sweep waits on its queue before it checks that the
# workers of its running shards are alive, and at most for the pool's
# result of a shard whose count is in
_POLL_S = 0.1

# the process's pool, its queue and their key: (pid, jobs, ADIMLAB_BUDGET,
# checker)
_pool: tuple[tuple, Pool, SimpleQueue] | None = None


def _kept_pool(jobs: int, checker: Callable) -> tuple[Pool, SimpleQueue]:
    """The process's pool of ``jobs`` workers and the queue they report
    to, made on first use and replaced when their key, everything the
    workers were forked with, differs.  A worker unpickles the checker by
    name from the module state it was forked with, so a checker made since
    then needs new workers; a ``partial`` is compared by its function and
    arguments."""
    # imported here, so a process that never pools never loads it
    import multiprocessing

    global _pool
    if isinstance(checker, partial):
        checker = checker.func, checker.args, checker.keywords
    key = (os.getpid(), jobs, os.environ.get(BUDGET_ENV), checker)
    if _pool is not None and _pool[0] != key:
        _close_pool()
    if _pool is None:
        queue = multiprocessing.SimpleQueue()
        _pool = key, multiprocessing.Pool(jobs, _set_queue, (queue,)), queue
    return _pool[1:]


def _lost_shard(running: dict[int, int]) -> int | None:
    """A part of ``running`` (part -> pid of the worker checking it) whose
    worker has exited, or None."""
    import multiprocessing

    live = {p.pid for p in multiprocessing.active_children()}
    return next((part for part, pid in running.items() if pid not in live), None)


def _close_pool() -> None:
    """Drop the kept pool and its queue, if any, terminating the workers
    when this process made them (a forked child does not own its
    parent's); the next pooled sweep makes new ones."""
    global _pool
    if _pool is not None and _pool[0][0] == os.getpid():
        _pool[1].terminate()
    _pool = None


def _sweep(
    theorem: str,
    checker: Callable,
    corpus: Corpus,
    jobs: int,
    on_violation: Callable[[Violation], None] | None,
    arity: int = 1,
) -> SweepReport:
    """The one sweep path.  A unit is a multiset of ``arity`` corpus
    entries, counted with the number of labeled multisets it stands for;
    units run serially or, as ``jobs`` interleaved slices that each worker
    cuts from the corpus itself, in the kept pool, so a pooled sweep reads
    no entry here.  A corpus the filters leave empty raises
    ``BadParameter`` once its units are counted: none were checked."""
    if jobs < 1:
        raise BadParameter(f"jobs must be >= 1, got {jobs}")
    start = time.perf_counter()
    violations: list[Violation] = []

    def emit(v: Violation) -> None:
        violations.append(v)
        if on_violation:
            on_violation(v)

    if jobs > 1:
        checked = 0
        try:
            pool, queue = _kept_pool(jobs, checker)
            results = []
            for part in range(jobs):
                # a shard the pool cannot send puts its error on the queue
                shard = checker, corpus, arity, part, jobs
                results.append(
                    pool.apply_async(_sweep_slice, (shard,), error_callback=queue.put)
                )
            running: dict[int, int] = {}  # part -> pid, of started shards
            left = jobs
            while left:
                if not queue._reader.poll(_POLL_S):
                    # a worker that exited has put all it sent before, so
                    # its shard is lost only once the queue is empty
                    lost = _lost_shard(running)
                    if lost is not None and queue.empty():
                        raise WorkerLost(
                            f"the pool worker (pid {running[lost]}) checking "
                            f"shard {lost} of {jobs} exited before it was done"
                        )
                    continue
                message = queue.get()
                if isinstance(message, Violation):
                    emit(message)
                elif isinstance(message, _Shard):
                    if message.checked is None:
                        running[message.part] = message.pid
                    else:
                        del running[message.part]
                        checked += message.checked
                        left -= 1
                else:
                    raise message
            # let the pool take each shard's return too: a worker terminated
            # while it still sends one, at exit, would leave the pool's
            # result queue locked and its shutdown waiting for it
            for result in results:
                result.wait(_POLL_S)
        except BaseException:
            _close_pool()
            raise
    else:
        units = combinations_with_replacement(corpus.entries(), arity)
        checked = _check_units(checker, units, emit)
    # every unit stands for at least one labeled multiset, so a sweep that
    # checked none had no entry: the workers' summed count tells, and the
    # parent never decodes a graph6 corpus only to refuse an empty one
    if not checked:
        raise BadParameter(
            f"no corpus graph passes connected={corpus.connected}, "
            f"min_degree={corpus.min_degree}: nothing to check"
        )
    violations.sort(key=lambda v: (v.graph6, v.k))
    return SweepReport(theorem, checked, violations, time.perf_counter() - start)


def sweep_theorem(
    corpus: Corpus,
    theorem_id: str,
    jobs: int = 1,
    on_violation: Callable[[Violation], None] | None = None,
) -> SweepReport:
    """Run one theorem over the corpus; zero violations means it held."""
    for arity, registry in enumerate((THEOREMS, PAIR_THEOREMS), start=1):
        if theorem_id in registry:
            checker = registry[theorem_id]
            return _sweep(theorem_id, checker, corpus, jobs, on_violation, arity)
    known = sorted(THEOREMS) + sorted(PAIR_THEOREMS)
    raise UnknownTheorem(f"{theorem_id!r}; known ids: {', '.join(known)}")


def check_cone_conjecture(
    corpus: Corpus,
    k_range: Collection[int] = range(1, 5),
    jobs: int = 1,
    on_violation: Callable[[Violation], None] | None = None,
) -> SweepReport:
    """Re-run the cone conjecture over the corpus: for every H and feasible
    k, the cone dimension never exceeds adim_k(H) + k.  Any violation is a
    publishable counterexample, so it carries the full witness.  A level
    that is not an integer >= 1, or an empty ``k_range``, raises
    ``BadParameter``: no level would be checked.  A range is kept as it
    is, never listed: its ends and its membership test cost the same at
    any width."""
    ks = k_range if isinstance(k_range, range) else tuple(k_range)
    if not ks:
        raise BadParameter(
            "cone conjecture levels must be integers >= 1, got none"
        )
    # a range holds integers only, so its lowest level is one of its ends
    for k in (ks[0], ks[-1]) if isinstance(ks, range) else ks:
        check_positive_int(k, "cone conjecture level (k >= 1)")
    checker = partial(_cone_slack_at, ks)
    return _sweep("cone-conjecture", checker, corpus, jobs, on_violation)
