"""Graph corpora: the labeled enumeration, its isomorphism classes, trees,
and the ``Corpus`` that sweeps read.

Iterating a corpus gives its labeled graphs; a sweep reads its ``entries()``
instead: each isomorphism class of the enumeration, seen as its least
labeled mask and weighted by its orbit's size, or each graph6 record,
weighted 1.  ``labeled_members`` expands a failing unit of entries into the
labeled graphs it stands for; only this module reads an entry's key.  Each
order's class list depends on n alone, so it is walked once per process
and kept, graphs included (at most 8 lists, n <= 7); the relabel tables
are not kept.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator
from functools import cache
from itertools import combinations, permutations, product
from operator import or_
from types import SimpleNamespace

from .bitset import bits_of
from .errors import BadParameter, TooLarge
from .graph import (
    Graph,
    bfs_layers,
    from_pair_mask,
    graph6_records,
    is_connected,
    read_ascii,
    to_graph6,
)

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


Entry = tuple[tuple, int, Graph]


class Corpus(SimpleNamespace):
    """Immutable graph source plus filters.

    ``min_n``..``max_n`` choose the orders of the internal enumeration,
    2..5 when not given; a missing end never contradicts the given one
    (``Corpus(6)`` is 6..6, ``Corpus(max_n=1)`` 1..1), and an order above
    ``ENUMERATION_MAX_N`` raises ``TooLarge`` here, before any graph is
    made.  Alternatively ``graph6_lines`` holds the lines of a graph6 file,
    which is taken whole, so orders next to it are refused and both stay
    None.  ``connected`` and ``min_degree`` filter the graphs of either
    source.  Equality, hash and repr go by these five fields, which
    ``SimpleNamespace`` holds; assigning to them raises.
    """

    def __init__(
        self,
        min_n: int | None = None,
        max_n: int | None = None,
        graph6_lines: tuple[str, ...] | None = None,
        connected: bool = False,
        min_degree: int = 0,
    ):
        if graph6_lines is None:
            if min_n is None:
                min_n = 2 if max_n is None else min(2, max_n)
            if max_n is None:
                max_n = max(5, min_n)
            if not 0 <= min_n <= max_n:
                raise BadParameter(
                    f"orders need 0 <= min_n <= max_n, got {min_n}..{max_n}"
                )
            _check_order(max_n)
        elif (min_n, max_n) != (None, None):
            raise BadParameter(
                "min_n and max_n choose the enumeration's orders; "
                "graph6 lines are swept whole"
            )
        if min_degree < 0:
            raise BadParameter(f"min_degree must be >= 0, got {min_degree}")
        super().__init__(min_n=min_n, max_n=max_n, graph6_lines=graph6_lines,
                         connected=connected, min_degree=min_degree)

    def __setattr__(self, *_):
        raise AttributeError("Corpus is immutable")

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def _accept(self, g: Graph) -> bool:
        if self.min_degree and g.min_degree() < self.min_degree:
            return False
        if self.connected and not is_connected(g):
            return False
        return True

    def __iter__(self) -> Iterator[Graph]:
        if self.graph6_lines is not None:
            return (g for _, _, g in self.entries())
        orders = range(self.min_n, self.max_n + 1)
        graphs = (g for n in orders for g in enumerate_all_graphs(n))
        return filter(self._accept, graphs)

    def entries(self) -> list[Entry]:
        """(key, weight, graph) per entry that passes the filters: each
        isomorphism class of the enumeration's orders, weighted by its
        orbit size, or each graph6 record, weighted 1 and decoded once."""
        if self.graph6_lines is None:
            orders = range(self.min_n, self.max_n + 1)
            entries = [((n, r), size, g) for n in orders for r, size, g in _classes(n)]
        else:
            entries = [((i, r), 1, g) for i, r, g in graph6_records(self.graph6_lines)]
        return [entry for entry in entries if self._accept(entry[2])]

    @classmethod
    def from_file(cls, path: str, **kw) -> "Corpus":
        return cls(graph6_lines=tuple(read_ascii(path).splitlines()), **kw)


def labeled_members(
    unit: tuple[Entry, ...], relabel: dict
) -> list[tuple[str, tuple[Graph, ...]]]:
    """(name, graphs) per labeled multiset that a unit of entries stands
    for: a class stands for its orbit, a record for its graph.  The graphs
    come in the corpus's iteration order, joined by '+' in the name as a
    sweep over the labeled graphs would name them.  ``relabel`` keeps each
    order's relabel tables across the calls of one sweep shard."""
    orbits = []
    for key, _, g in unit:
        n, rep = key
        if isinstance(rep, str):
            orbits.append([(key, g)])
            continue
        if n not in relabel:
            relabel[n] = _relabel_tables(n)
        orbits.append([((n, m), from_pair_mask(n, m)) for m in _orbit(relabel[n], rep)])
    multisets = sorted({tuple(sorted(p)) for p in product(*orbits)})
    graphs = [tuple(g for _, g in members) for members in multisets]
    return [("+".join(map(to_graph6, gs)), gs) for gs in graphs]
