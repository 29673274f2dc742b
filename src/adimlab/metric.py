"""Truncated metrics and per-pair distinguishing sets.

For a truncation level t, the distance between x and y is min(d(x, y), t),
with unreachable pairs saturating to t.  The distinguishing set of a pair
(x, y) collects every vertex whose truncated distances to x and to y differ;
the minimum pair-set size over all pairs bounds the feasible cover level k.

Every distance here comes from ``graph.bfs_layers``: L_x[d] is the set of
vertices at distance d from x.  A vertex z tells x and y apart at level t
exactly when, for some d < t, z lies in L_x[d] or L_y[d] but not in both,
so the pair's set is the union over d < t of L_x[d] ^ L_y[d].  For t <= 2
the layers are {x} and the row of x, so those tables need no walk.

No shortest path has n or more edges, so on a connected graph the level-n
table is the full shortest-path metric's (``metric_table``).

A graph of fewer than two vertices has no pair: ``dimensionality`` refuses
it (``TooSmall``), and with it every closed form below.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import or_, xor

from . import kernel
from .bitset import VertexSet
from .errors import (
    Disconnected,
    KExceedsDimensionality,
    OutOfRange,
    SamePair,
    TooSmall,
    check_positive_int,
)
from .graph import Graph, bfs_layers, is_connected, twin_prefix

_TABLE_CACHE_SIZE = 1024


def pair_rank(n: int, x: int, y: int) -> int:
    """Rank of the unordered pair (x, y), x < y, in the flat pair array."""
    if x > y:
        x, y = y, x
    return x * n - x * (x + 1) // 2 + (y - x - 1)


class DistinguishTable:
    """All pair distinguishing sets of a graph at one truncation level t,
    made from the graph and t alone; a t that is not an integer >= 1
    raises ``BadParameter``.  ``build_table`` is the cached way to get one.

    The table also keeps ``prepared``, the search kernel's form of it,
    made on first use: the reduced masks, their columns, the graph's twin
    prefix and the kernel's record of each minimum search run on them.
    Pickling and copying go through (graph, t), so they keep none of it."""

    __slots__ = ("graph", "t", "pair_masks", "_min_size", "_prepared")

    def __init__(self, graph: Graph, t: int):
        check_positive_int(t, "truncation level")
        pair_masks = _build_masks(graph, t)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "pair_masks", tuple(pair_masks))
        object.__setattr__(
            self, "_min_size", min(map(int.bit_count, pair_masks), default=None)
        )
        object.__setattr__(self, "_prepared", None)

    def __setattr__(self, *_):
        raise AttributeError("DistinguishTable is immutable")

    def __reduce__(self):
        # through the constructor: __setattr__ refuses restored slot state
        return DistinguishTable, (self.graph, self.t)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def prepared(self) -> kernel.Prepared:
        """The reduced masks, their columns and the graph's twin prefix,
        none of which depends on k, and the kernel's minimum-search
        records."""
        if self._prepared is None:
            prepared = kernel.prepare(
                self.pair_masks, self.n, twin_prefix(self.graph)
            )
            object.__setattr__(self, "_prepared", prepared)
        return self._prepared

    def pair_mask(self, x: int, y: int) -> int:
        if x == y:
            raise SamePair(f"pair needs two distinct vertices, got ({x}, {y})")
        n = self.n
        if not (0 <= x < n and 0 <= y < n):
            raise OutOfRange(f"pair ({x}, {y}) out of 0..{n - 1}")
        return self.pair_masks[pair_rank(n, x, y)]

    def pair_set(self, x: int, y: int) -> VertexSet:
        return VertexSet(self.n, self.pair_mask(x, y))

    def pairs(self):
        """Yield (x, y, mask) over all unordered pairs in rank order."""
        n = self.n
        r = 0
        for x in range(n):
            for y in range(x + 1, n):
                yield x, y, self.pair_masks[r]
                r += 1

    def min_pair_size(self) -> int | None:
        """The smallest pair set's size; None when the table has no pairs."""
        return self._min_size


def truncated_distance(g: Graph, t: int, x: int, y: int) -> int:
    """min(d(x, y), t); pairs in different components saturate to t."""
    check_positive_int(t, "truncation level")
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise OutOfRange(f"pair ({x}, {y}) out of 0..{g.n - 1}")
    for d, layer in enumerate(bfs_layers(g, x, t)):
        if layer >> y & 1:
            return d
    return t


def distinguishing_set(g: Graph, t: int, x: int, y: int) -> VertexSet:
    """Vertices z with min(d(x,z),t) != min(d(y,z),t); always contains x, y."""
    return build_table(g, t).pair_set(x, y)


def _build_masks(g: Graph, t: int) -> list[int]:
    n = g.n
    if t <= 2:
        # the layers below 2 are {x} and the row of x; below 1, {x} alone
        rows = g.rows if t == 2 else (0,) * n
        return [
            (1 << x | 1 << y) | (rows[x] ^ rows[y])
            for x in range(n)
            for y in range(x + 1, n)
        ]
    # padded to the longest walk: map stops at the shorter list, which
    # would drop the deeper layers of one source when the other's walk ends
    # early; layers past the longest walk are empty for every source
    layers = [bfs_layers(g, v, t) for v in range(n)]
    width = max(map(len, layers), default=0)
    for own in layers:
        own += [0] * (width - len(own))
    return [
        reduce(or_, map(xor, layers[x], layers[y]))
        for x in range(n)
        for y in range(x + 1, n)
    ]


@lru_cache(maxsize=_TABLE_CACHE_SIZE, typed=True)
def build_table(g: Graph, t: int) -> DistinguishTable:
    """The table of g at truncation level t, cached per (g, t) and the type
    of t, so 2.0 is refused as it would be cold, not served level 2."""
    return DistinguishTable(g, t)


def metric_table(g: Graph) -> DistinguishTable:
    """The table of the full shortest-path metric: level n, which no
    shortest path reaches (level 1 when n = 0)."""
    if not is_connected(g):
        raise Disconnected("the full shortest-path metric needs a connected graph")
    return build_table(g, max(g.n, 1))


def dimensionality(table: DistinguishTable) -> int:
    """Smallest pair-set size: the largest k admitting a k-generator."""
    if table.n < 2:
        raise TooSmall(f"need at least 2 vertices, got {table.n}")
    return table.min_pair_size()


def check_level(table: DistinguishTable, k: int) -> None:
    """Refuse a level k that is not an integer in 1..dimensionality(table),
    the levels at which a k-generator exists.  Every table-level query
    refuses one here."""
    dim = dimensionality(table)
    check_positive_int(k, "k", KExceedsDimensionality)
    if k > dim:
        raise KExceedsDimensionality(
            f"no {k}-generator exists: the dimensionality bound is {dim}"
        )


def forced_set(table: DistinguishTable, k: int) -> VertexSet:
    """Union of all pair sets of size exactly k.

    Every k-generator at this table's level contains the returned set.
    """
    check_level(table, k)
    return VertexSet(table.n, kernel.forced(table.pair_masks, k))


def adjacency_dimensionality(g: Graph) -> int:
    """Dimensionality bound at truncation level 2."""
    return dimensionality(build_table(g, 2))


def cone_dimensionality(h: Graph) -> int:
    """Dimensionality bound of K1 + H via the closed form
    min(bound(H), n - max_degree(H) + 1), without building the join."""
    return min(adjacency_dimensionality(h), h.n - h.max_degree() + 1)


def join_dimensionality(g: Graph, h: Graph) -> int:
    """Dimensionality bound of G + H via the closed form
    min(bound(G), bound(H), n1 - max_degree(G) + n2 - max_degree(H))."""
    cross = g.n - g.max_degree() + h.n - h.max_degree()
    return min(adjacency_dimensionality(g), adjacency_dimensionality(h), cross)
