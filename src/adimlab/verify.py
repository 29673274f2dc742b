"""Corpus-scale theorem sweeps and the cone conjecture engine.

A corpus is either the internal labeled enumeration (every graph on n
vertices appears exactly once, edge-mask order) or a stream of graph6
records.  Sweeps re-check one statement per graph, or per unordered pair of
graphs, and report violations; a violation would be a counterexample, so
reports carry full witness data.  An ``on_violation`` hook sees each
violation as a serial sweep finds it, and a pooled sweep's violations
only when the shard that found them ends.

Every statement is invariant under isomorphism, so an internal corpus is
swept one isomorphism class (for pair theorems, one multiset of two) at a
time: the checker runs once on the least labeled masks and counts with the
labeled graphs or pairs they stand for.  Only a failing unit is expanded
into its labeled members, each reported under its own graph6.  Each order's
class list depends on n alone, so it is walked once per process and kept,
graphs included (at most 8 lists, n <= 7); the relabel tables are not kept.

A sweep with ``jobs > 1`` runs in the process's one worker pool, made on
its first pooled sweep and kept for the next ones, so only a process that
runs several pooled sweeps (a script, a notebook, the test suite) saves
the start-up; a CLI ``sweep`` or ``conjecture`` runs one sweep and forks
its workers once.  ``multiprocessing`` is imported by that first pooled
sweep, so a serial sweep and every other command never load it.  The pool
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
"""

from __future__ import annotations

import os
import time
from array import array
from collections import Counter
from collections.abc import Callable, Collection, Iterator
from functools import cache, partial
from itertools import (
    combinations,
    combinations_with_replacement,
    permutations,
    product,
)
from math import comb, prod
from operator import or_
from typing import TYPE_CHECKING, NamedTuple

from .bitset import bits_of
from .errors import BadParameter, TooLarge, UnknownTheorem
from .graph import (
    INFINITE,
    Graph,
    bfs_layers,
    complement,
    complete,
    components,
    diameter,
    from_pair_mask,
    graph6_records,
    is_connected,
    is_tree,
    join,
    read_ascii,
    to_graph6,
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
    minimum_cover,
    minimum_size,
    table_ladder,
)

if TYPE_CHECKING:
    from multiprocessing.pool import Pool

ENUMERATION_MAX_N = 7
_TREE_MAX_N = 16


def _check_order(n: int) -> None:
    if n > ENUMERATION_MAX_N:
        raise TooLarge(
            f"labeled enumeration is capped at n <= {ENUMERATION_MAX_N}, got {n}"
        )
    if n < 0:
        raise BadParameter(f"n must be non-negative, got {n}")


def enumerate_all_graphs(n: int) -> Iterator[Graph]:
    """Every labeled graph on n vertices exactly once, edge-mask order."""
    _check_order(n)
    for mask in range(1 << (n * (n - 1) // 2)):
        yield from_pair_mask(n, mask)


def _relabel_tables(n: int) -> tuple[int, list[list[array]]]:
    """``(width, tables)``: a pair mask is cut into at most three chunks of
    ``width`` bits, and ``tables[c][v][i]`` is the image of value v of
    chunk c under the i-th vertex permutation of n; the image of a whole
    mask is the OR of its chunks' images.  Three chunks cost two ORs per
    image and, at n = 7, 3 * 2^7 arrays of 5040 entries (15 MB)."""
    pairs = list(combinations(range(n), 2))
    index = [[0] * n for _ in range(n)]
    for b, (i, j) in enumerate(pairs):
        index[i][j] = index[j][i] = 1 << b
    perms = list(permutations(range(n)))
    width = max(1, -(-len(pairs) // 3))
    tables = []
    for lo in range(0, max(len(pairs), 1), width):
        table = [array("L", [0]) * len(perms)]
        for v in range(1, 1 << min(width, len(pairs) - lo)):
            if v & (v - 1):
                table.append(array("L", map(or_, table[v & -v], table[v & (v - 1)])))
            else:
                i, j = pairs[lo + v.bit_length() - 1]
                table.append(array("L", [index[p[i]][p[j]] for p in perms]))
        tables.append(table)
    return width, tables


def _orbit(relabel: tuple[int, list[list[array]]], mask: int) -> set[int]:
    """Every labeled pair mask isomorphic to ``mask``."""
    width, tables = relabel
    low = (1 << width) - 1
    images = tables[0][mask & low]
    for c in range(1, len(tables)):
        images = map(or_, images, tables[c][(mask >> (c * width)) & low])
    return set(images)


@cache
def _classes(n: int) -> tuple[tuple[int, int, Graph], ...]:
    """(rep_mask, orbit_size, graph) per isomorphism class of graphs on n
    vertices, in mask order; the representative is the least labeled mask of
    its orbit.  Walks the masks once, marking each orbit when its first
    member comes up.  Kept per process: ``_check_order`` raises before
    anything is stored, so at most 8 lists are kept."""
    _check_order(n)
    relabel = _relabel_tables(n)
    seen = bytearray(1 << (n * (n - 1) // 2))
    out = []
    rep = 0
    while rep >= 0:
        orbit = _orbit(relabel, rep)
        for mask in orbit:
            seen[mask] = 1
        out.append((rep, len(orbit), from_pair_mask(n, rep)))
        rep = seen.find(0, rep + 1)
    return tuple(out)


def _rooted_code(g: Graph, root: int, parent: int) -> str:
    subs = sorted(
        _rooted_code(g, u, root) for u in g.neighbors(root) if u != parent
    )
    return "(" + "".join(subs) + ")"


def _tree_code(g: Graph) -> str:
    """Isomorphism-invariant code, rooted at the center(s): the middle of a
    longest path a..b, found by two walks (a farthest from 0, b farthest
    from a).  In a tree the path's vertex i is the one vertex at distance i
    from a and d(a, b) - i from b."""
    from_a = bfs_layers(g, bfs_layers(g, 0)[-1].bit_length() - 1)
    from_b = bfs_layers(g, from_a[-1].bit_length() - 1)
    lo, hi = (len(from_a) - 1) // 2, len(from_a) // 2
    centers = list(bits_of(from_a[lo] & from_b[hi] | from_a[hi] & from_b[lo]))
    if len(centers) == 1:
        return _rooted_code(g, centers[0], -1)
    a, b = centers
    return "".join(sorted((_rooted_code(g, a, b), _rooted_code(g, b, a))))


def enumerate_trees(max_n: int, min_n: int = 1) -> list[Graph]:
    """One representative per isomorphism class of trees, orders min..max.

    Grown by attaching a new leaf everywhere and deduplicating on the
    canonical code; capped at small orders (the counts stay tiny).
    """
    if max_n > _TREE_MAX_N:
        raise TooLarge(
            f"tree enumeration is capped at n <= {_TREE_MAX_N}, got {max_n}"
        )
    if not 1 <= min_n <= max_n:
        raise BadParameter(
            f"tree orders need 1 <= min_n <= max_n, got {min_n}..{max_n}"
        )
    levels: list[list[Graph]] = [[Graph(1, [0])]]
    for n in range(2, max_n + 1):
        seen: dict[str, Graph] = {}
        for t in levels[-1]:
            for v in range(t.n):
                rows = [r for r in t.rows] + [1 << v]
                rows[v] |= 1 << t.n
                grown = Graph(n, rows)
                seen.setdefault(_tree_code(grown), grown)
        levels.append([seen[c] for c in sorted(seen)])
    out: list[Graph] = []
    for n in range(min_n, max_n + 1):
        out.extend(levels[n - 1])
    return out


class Corpus:
    """Immutable graph source plus filters.

    ``min_n``..``max_n`` choose the orders of the internal enumeration,
    2..5 when not given; a missing end never contradicts the given one
    (``Corpus(6)`` is 6..6, ``Corpus(max_n=1)`` 1..1).  Alternatively
    ``graph6_lines`` holds the lines of a graph6 file, which is taken
    whole, so orders next to it are refused and both stay None.
    ``connected`` and ``min_degree`` filter the graphs of either source.
    Equality, hash and repr go by these five fields.
    """

    __slots__ = ("min_n", "max_n", "graph6_lines", "connected", "min_degree")

    def __init__(
        self,
        min_n: int | None = None,
        max_n: int | None = None,
        graph6_lines: tuple[str, ...] | None = None,
        connected: bool = False,
        min_degree: int = 0,
    ):
        if graph6_lines is not None:
            if (min_n, max_n) != (None, None):
                raise BadParameter(
                    "min_n and max_n choose the enumeration's orders; "
                    "graph6 lines are swept whole"
                )
        else:
            if min_n is None:
                min_n = 2 if max_n is None else min(2, max_n)
            if max_n is None:
                max_n = max(5, min_n)
            if not 0 <= min_n <= max_n:
                raise BadParameter(
                    f"orders need 0 <= min_n <= max_n, got {min_n}..{max_n}"
                )
        if min_degree < 0:
            raise BadParameter(f"min_degree must be >= 0, got {min_degree}")
        fields = min_n, max_n, graph6_lines, connected, min_degree
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def __setattr__(self, *_):
        raise AttributeError("Corpus is immutable")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __reduce__(self):
        # through the constructor: __setattr__ refuses restored slot state
        return Corpus, self._values()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Corpus) and self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        pairs = zip(self.__slots__, self._values())
        return f"Corpus({', '.join(f'{name}={value!r}' for name, value in pairs)})"

    def _accept(self, g: Graph) -> bool:
        if self.min_degree and g.min_degree() < self.min_degree:
            return False
        if self.connected and not is_connected(g):
            return False
        return True

    def __iter__(self) -> Iterator[Graph]:
        if self.graph6_lines is None:
            orders = range(self.min_n, self.max_n + 1)
            graphs = (g for n in orders for g in enumerate_all_graphs(n))
        else:
            graphs = (g for _, _, g in graph6_records(self.graph6_lines))
        return filter(self._accept, graphs)

    @classmethod
    def from_file(cls, path: str, **kw) -> "Corpus":
        return cls(graph6_lines=tuple(read_ascii(path).splitlines()), **kw)


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
    stored; the cone's table is built, once, and searched exactly only at
    a level that gets none.  Only the cone's levels are visited, so a wide
    range costs no more than the levels it shares with them."""
    if h.n < 2:
        return []
    table = build_table(h, 2)
    lh = table_ladder(table)
    # cone_dimensionality(h), read from the ladder's length: the closed
    # form would look the table up again
    top = min(len(lh), h.n - h.max_degree() + 1)
    cone = None
    out = []
    for k in range(1, top + 1):
        if k not in k_range:
            continue
        if _cone_certificate(h, minimum_cover(table, k).mask, k) is not None:
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


def _members(key: tuple, g: Graph, relabel: dict) -> list[tuple[tuple, Graph]]:
    """(key, graph) per labeled graph an entry stands for: the orbit of a
    class representative, or a graph6 record alone as its decoded graph."""
    n, rep = key
    if isinstance(rep, str):
        return [(key, g)]
    if n not in relabel:
        relabel[n] = _relabel_tables(n)
    return [((n, mask), from_pair_mask(n, mask)) for mask in _orbit(relabel[n], rep)]


def _entries(corpus: Corpus) -> list[tuple[tuple, int, Graph]]:
    """(key, weight, graph) per entry that passes the corpus filters: each
    isomorphism class of the enumeration's orders, weighted by its orbit
    size, or each graph6 record, weighted 1 and decoded once."""
    if corpus.graph6_lines is None:
        orders = range(corpus.min_n, corpus.max_n + 1)
        entries = [((n, rep), size, g) for n in orders for rep, size, g in _classes(n)]
    else:
        entries = [((i, r), 1, g) for i, r, g in graph6_records(corpus.graph6_lines)]
    return [entry for entry in entries if corpus._accept(entry[2])]


def _check_units(
    checker: Callable,
    units: list[tuple[tuple[tuple, int, Graph], ...]],
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
        orbits = [_members(key, g, relabel) for key, _, g in unit]
        for members in sorted({tuple(sorted(p)) for p in product(*orbits)}):
            graphs = [g for _, g in members]
            name = "+".join(map(to_graph6, graphs))
            for k, observed, expected in checker(*graphs):
                emit(Violation(name, k, observed, expected))
    return checked


def _sweep_shard(shard: tuple) -> tuple[int, list[Violation]]:
    checker, units = shard
    build_table.cache_clear()
    violations: list[Violation] = []
    return _check_units(checker, units, violations.append), violations


# the process's pool and its key: (pid, jobs, ADIMLAB_BUDGET, checker), pool
_pool: tuple[tuple, Pool] | None = None


def _kept_pool(jobs: int, checker: Callable) -> Pool:
    """The process's pool of ``jobs`` workers, made on first use and
    replaced when its key, everything the workers were forked with,
    differs.  A worker unpickles the checker by name from the module state
    it was forked with, so a checker made since then needs new workers; a
    ``partial`` is compared by its function and arguments."""
    # imported here, so a process that never pools never loads it
    import multiprocessing

    global _pool
    if isinstance(checker, partial):
        checker = checker.func, checker.args, checker.keywords
    key = (os.getpid(), jobs, os.environ.get(BUDGET_ENV), checker)
    if _pool is not None and _pool[0] != key:
        _close_pool()
    if _pool is None:
        _pool = key, multiprocessing.Pool(jobs)
    return _pool[1]


def _close_pool() -> None:
    """Drop the kept pool, if any, terminating its workers when this
    process made them (a forked child does not own its parent's); the next
    pooled sweep makes one."""
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
    units run serially or over ``jobs * 4`` interleaved slices in the kept
    pool.  A corpus the filters leave empty raises ``BadParameter``."""
    if jobs < 1:
        raise BadParameter(f"jobs must be >= 1, got {jobs}")
    start = time.perf_counter()
    entries = _entries(corpus)
    if not entries:
        raise BadParameter(
            f"no corpus graph passes connected={corpus.connected}, "
            f"min_degree={corpus.min_degree}: nothing to check"
        )
    violations: list[Violation] = []

    def emit(v: Violation) -> None:
        violations.append(v)
        if on_violation:
            on_violation(v)

    units = list(combinations_with_replacement(entries, arity))
    if jobs > 1:
        parts = jobs * 4
        shards = [(checker, units[i::parts]) for i in range(parts)]
        checked = 0
        try:
            pool = _kept_pool(jobs, checker)
            for shard_checked, found in pool.imap_unordered(_sweep_shard, shards):
                checked += shard_checked
                for v in found:
                    emit(v)
        except BaseException:
            _close_pool()
            raise
    else:
        checked = _check_units(checker, units, emit)
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
    if isinstance(ks, range):
        low = min(ks[0], ks[-1])
    else:
        # a level such as 1.5 is no ladder's k, so it would check nothing
        odd = [k for k in ks if not isinstance(k, int)]
        low = odd[0] if odd else min(ks)
    if not isinstance(low, int) or low < 1:
        raise BadParameter(
            f"cone conjecture levels must be integers >= 1, got {low!r}"
        )
    checker = partial(_cone_slack_at, ks)
    return _sweep("cone-conjecture", checker, corpus, jobs, on_violation)
