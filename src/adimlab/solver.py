"""Exact k-generator solvers: branch and bound, brute force, enumeration.

solve_adim works at truncation level 2 (the adjacency metric), solve_dim at
level t = n (the full shortest-path metric, connected graphs only).
Both reduce to exact set multicover over the distinguish table and emit the
lexicographically smallest optimal witness.  A solve has two phases: the
minimum search (``minimum_size`` runs it alone), and the lex pass that picks
the witness.  The kernel keeps the minimum search's record on the table's
``prepared`` form, so solves, size reads, basis lists and ladders on one
table run it once per k, and a budget has the outcome of a cold table.
"""

from __future__ import annotations

import math
import os
import time
from itertools import combinations
from typing import NamedTuple

from . import kernel
from .bitset import VertexSet
from .errors import (
    BadParameter,
    BasisCountExceeded,
    CapExceeded,
    OutOfRange,
)
from .graph import Graph
from .metric import (
    DistinguishTable,
    build_table,
    check_level,
    dimensionality,
    metric_table,
)

BUDGET_ENV = "ADIMLAB_BUDGET"

BRUTE_FORCE_MAX_N = 14
BRUTE_FORCE_MAX_EVALS = 5_000_000


def _budget(budget: int | None) -> int | None:
    """``budget``, or when it is None the one in ``ADIMLAB_BUDGET`` (None
    when that is unset too), checked to be >= 0."""
    if budget is None:
        raw = os.environ.get(BUDGET_ENV)
        if not raw:
            return None
        try:
            budget = int(raw)
        except ValueError:
            raise BadParameter(
                f"{BUDGET_ENV} must be an integer >= 0, got {raw!r}"
            ) from None
    if budget < 0:
        raise BadParameter(f"node budget must be an integer >= 0, got {budget}")
    return budget


class SolveStats(NamedTuple):
    """What one search cost: ``nodes`` in all, of which ``search_nodes``
    found the minimum size; the lex pass that found the witness took the
    rest."""

    nodes: int = 0
    greedy_size: int = 0
    millis: float = 0.0
    search_nodes: int = 0


class SolveResult(NamedTuple):
    k: int
    dimension: int
    witness: VertexSet
    stats: SolveStats = SolveStats()

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "dimension": self.dimension,
            "witness": self.witness.to_list(),
            "nodes": self.stats.nodes,
            "search_nodes": self.stats.search_nodes,
            "greedy_size": self.stats.greedy_size,
            "millis": round(self.stats.millis, 3),
        }


def is_k_generator(table: DistinguishTable, k: int, s: VertexSet) -> bool:
    """True iff s hits every pair's distinguishing set at least k times."""
    if s.n != table.n:
        raise OutOfRange(f"vertex set over {s.n} vertices, table over {table.n}")
    smask = s.mask
    return all((smask & m).bit_count() >= k for m in table.pair_masks)


def greedy_bound(table: DistinguishTable, k: int) -> VertexSet:
    """Valid k-generator from the max-coverage greedy heuristic."""
    check_level(table, k)
    mask = kernel.greedy_cover(table.prepared, k)
    return VertexSet(table.n, mask)


def minimum_size(table: DistinguishTable, k: int, budget: int | None = None) -> int:
    """The minimum k-generator size alone: the minimum search, without the
    lex pass that picks a witness.  It equals
    ``solve_table(table, k).dimension``."""
    check_level(table, k)
    return kernel.minimum_search(table.prepared, k, _budget(budget))[0]


def minimum_cover(
    table: DistinguishTable, k: int, budget: int | None = None
) -> VertexSet:
    """A minimum k-generator: the cover the minimum search stored with
    ``minimum_size``, so a ladder or size read on the table has already
    paid for it.  It need not be the lexicographically smallest one,
    which ``solve_table`` picks."""
    check_level(table, k)
    cover = kernel.minimum_search(table.prepared, k, _budget(budget))[1]
    return VertexSet(table.n, cover)


def solve_table(
    table: DistinguishTable, k: int, budget: int | None = None
) -> SolveResult:
    """Exact minimum k-generator for an arbitrary distinguish table.

    The witness, the node counts and the budget outcome are those of a
    solve from scratch, whatever the table's minimum search has already
    stored: ``BudgetExhausted`` is raised exactly when the minimum search
    and the lex pass together use more nodes than ``budget``.  ``millis``
    times this call alone."""
    check_level(table, k)
    start = time.perf_counter()
    size, witness, nodes, (greedy_size, search_nodes) = kernel.solve_min_multicover(
        table.prepared, k, _budget(budget)
    )
    millis = (time.perf_counter() - start) * 1000.0
    stats = SolveStats(nodes, greedy_size, millis, search_nodes)
    return SolveResult(k, size, VertexSet(table.n, witness), stats)


def solve_adim(g: Graph, k: int, budget: int | None = None) -> SolveResult:
    """Exact k-adjacency dimension (truncation level 2)."""
    return solve_table(build_table(g, 2), k, budget)


def solve_dim(g: Graph, k: int, budget: int | None = None) -> SolveResult:
    """Exact k-metric dimension via the full metric's table."""
    return solve_table(metric_table(g), k, budget)


def enumerate_bases(
    g: Graph,
    k: int,
    limit: int | None = None,
    budget: int | None = None,
    t: int = 2,
) -> list[VertexSet]:
    """All minimum k-generators in ascending lexicographic order.

    The lex pass lists the bases from the table's minimum search; no
    witness is picked first.  The node budget bounds the two together, so
    a budget has the same outcome whatever the table holds."""
    if limit is not None and limit < 0:
        raise BadParameter(f"basis limit must be an integer >= 0, got {limit}")
    table = build_table(g, t)
    check_level(table, k)
    covers, _, truncated = kernel.enumerate_min_covers(
        table.prepared, k, limit, _budget(budget)
    )
    if truncated:
        raise BasisCountExceeded(
            f"more than {limit} minimum {k}-generators; raise the limit"
        )
    return [VertexSet(table.n, m) for m in covers]


def adim_ladder(g: Graph) -> list[int]:
    """adim_k for every feasible k = 1..C as a list (index k-1).

    One branch and bound per level on one prepared table, at every order;
    the node budget in ``ADIMLAB_BUDGET``, when set, bounds each level.
    """
    return table_ladder(build_table(g, 2))


def dim_ladder(g: Graph) -> list[int]:
    """dim_k for every feasible k under the full metric (connected only)."""
    return table_ladder(metric_table(g))


def table_ladder(table: DistinguishTable) -> list[int]:
    """The minimum k-generator size of every feasible k = 1..C on one
    table (index k-1): the table-level form of ``adim_ladder``."""
    dimensionality(table)  # refuses a table of fewer than 2 vertices
    return kernel.cover_ladder(table.prepared, _budget(None))


def brute_force_adim(g: Graph, k: int, t: int = 2) -> SolveResult:
    """Independent oracle: try subsets in increasing size, lexicographic
    within each size, and return the first valid k-generator.  At a
    feasible k the whole vertex set is one, so some size returns."""
    table = build_table(g, t)
    check_level(table, k)
    n = g.n
    masks = table.pair_masks
    evals = 0
    start = time.perf_counter()
    for size in range(k, n + 1):
        if n > BRUTE_FORCE_MAX_N and math.comb(n, size) > BRUTE_FORCE_MAX_EVALS:
            raise CapExceeded(
                f"C({n},{size}) subsets exceed the brute-force evaluation limit"
            )
        for combo in combinations(range(n), size):
            evals += 1
            if evals > BRUTE_FORCE_MAX_EVALS:
                raise CapExceeded(
                    f"brute force exceeded {BRUTE_FORCE_MAX_EVALS} evaluations"
                )
            smask = 0
            for v in combo:
                smask |= 1 << v
            if all((smask & m).bit_count() >= k for m in masks):
                millis = (time.perf_counter() - start) * 1000.0
                return SolveResult(
                    k,
                    size,
                    VertexSet(n, smask),
                    stats=SolveStats(nodes=evals, millis=millis),
                )
