"""Simple graphs: construction, canonical generators, graph6 I/O, structure.

Vertices are the integers 0..n-1 and adjacency is stored as one bitmask row
per vertex.  Graphs are immutable and hashable, so they can be shared freely
between threads and used as cache keys.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple

from .bitset import VertexSet, bits_of
from .errors import (
    AdimlabError,
    BadParameter,
    MalformedHeader,
    NonCanonicalPadding,
    OutOfRange,
    SelfLoop,
    TruncatedPayload,
    check_positive_int,
)

INFINITE = math.inf

TRUE_TWIN = "true-twin"
FALSE_TWIN = "false-twin"
SINGLETON = "singleton"


class Graph:
    """Immutable simple graph with bitmask adjacency rows."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Sequence[int]):
        if n < 0:
            raise BadParameter("vertex count must be non-negative")
        if len(rows) != n:
            raise BadParameter(f"expected {n} adjacency rows, got {len(rows)}")
        full = (1 << n) - 1
        for i, row in enumerate(rows):
            if row & ~full:
                raise OutOfRange(f"row {i} references vertices >= {n}")
            if (row >> i) & 1:
                raise SelfLoop(f"vertex {i} is adjacent to itself")
            for j in bits_of(row):
                if not (rows[j] >> i) & 1:
                    raise BadParameter(f"adjacency not symmetric at ({i}, {j})")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", tuple(rows))

    def __setattr__(self, *_):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # pickle and deepcopy rebuild through the constructor, since
        # __setattr__ refuses the slot state they would otherwise restore
        return Graph, (self.n, self.rows)

    # -- basic queries ----------------------------------------------------

    def row(self, v: int) -> int:
        """Open neighborhood of v as a raw bitmask."""
        if not 0 <= v < self.n:
            raise OutOfRange(f"vertex {v} not in 0..{self.n - 1}")
        return self.rows[v]

    def neighbors(self, v: int) -> VertexSet:
        return VertexSet(self.n, self.row(v))

    def closed_row(self, v: int) -> int:
        return self.row(v) | (1 << v)

    def has_edge(self, u: int, v: int) -> bool:
        return (self.row(u) >> v) & 1 == 1

    def degree(self, v: int) -> int:
        return self.row(v).bit_count()

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self.rows]

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def min_degree(self) -> int:
        return min(self.degrees(), default=0)

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (u, v) with u < v, lexicographically sorted."""
        out = []
        for u in range(self.n):
            high = self.rows[u] >> (u + 1)
            out.extend((u, u + 1 + d) for d in bits_of(high))
        return out

    def vertex_set(self) -> VertexSet:
        return VertexSet(self.n, (1 << self.n) - 1)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"<Graph n={self.n} m={self.edge_count()}>"


def _trusted(n: int, rows: Sequence[int]) -> Graph:
    """A Graph on rows known to be valid, without the constructor's checks."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "rows", tuple(rows))
    return g


# -- constructors ----------------------------------------------------------


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from (u, v) pairs; duplicates are merged."""
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise SelfLoop(f"edge ({u}, {v})")
        if not (0 <= u < n and 0 <= v < n):
            raise OutOfRange(f"edge ({u}, {v}) out of 0..{n - 1}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows)


def from_pair_mask(n: int, mask: int) -> Graph:
    """Build a graph from an edge bitmask over the pairs (i, j), i < j,
    ordered lexicographically: bit 0 is (0, 1), bit 1 is (0, 2), ..."""
    if n < 0:
        raise BadParameter("vertex count must be non-negative")
    rows = [0] * n
    bit = 0
    for i in range(n):
        for j in range(i + 1, n):
            if (mask >> bit) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            bit += 1
    if mask >> bit:
        raise OutOfRange(f"pair mask has bits beyond the {bit} pairs of K_{n}")
    return _trusted(n, rows)


def read_edge_list(text: str) -> Graph:
    """Parse the plain text format: first line "n m", then m lines "u v"."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise BadParameter("empty edge-list text")
    try:
        n, m = map(int, lines[0].split())
    except ValueError as exc:
        raise BadParameter(f"bad header line {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise BadParameter(f"expected {m} edge lines, got {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        try:
            u, v = map(int, ln.split())
        except ValueError as exc:
            raise BadParameter(f"bad edge line {ln!r}") from exc
        edges.append((u, v))
    return from_edge_list(n, edges)


def read_ascii(path: str) -> str:
    """The text of a graph file, which must be ASCII."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        raise MalformedHeader(f"{path} holds non-ASCII bytes")
    return data.decode("ascii")


def format_edge_list(g: Graph) -> str:
    edges = g.edges()
    lines = [f"{g.n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


# -- graph6 ----------------------------------------------------------------

# graph6 stores six bits per byte as the bytes 63..126; str.translate spells
# each byte's six bits as two octal digits, so int(..., 8) reads a whole run
_G6_BYTES = bytes(range(63, 127))
_G6_OCTAL = {b: f"{b - 63:02o}" for b in _G6_BYTES}


def _g6_int(data: bytes, what: str) -> int:
    """The graph6 bytes ``data`` as one integer, first byte highest; a byte
    outside 63..126 raises, naming it as ``what``."""
    bad = data.translate(None, _G6_BYTES)
    if bad:
        raise MalformedHeader(f"{what} {bad[0]} outside graph6 range")
    return int(data.decode("ascii").translate(_G6_OCTAL) or "0", 8)


def _g6_size_header(n: int) -> bytes:
    """The size header of order n: one byte up to 62, then 126 and three
    bytes up to 258047, then 126, 126 and six bytes up to 2^36 - 1."""
    if n <= 62:
        return bytes((n + 63,))
    if n >> 36:
        raise BadParameter(f"graph6 cannot encode order {n}")
    prefix, top = (b"~", 12) if n <= 258047 else (b"~~", 30)
    return prefix + bytes(((n >> s) & 63) + 63 for s in range(top, -1, -6))


def _g6_size(data: bytes) -> tuple[int, bytes]:
    """The order of a graph6 record and the bytes after its size header; a
    header longer than the one ``_g6_size_header`` writes for it raises."""
    if not data:
        raise MalformedHeader("empty record")
    if data[0] != 126:
        return _g6_int(data[:1], "byte"), data[1:]
    if data[1:2] == b"~":
        start, end, short, form = 2, 8, "long-form size needs 8 bytes", "long-long"
    else:
        start, end, short, form = 1, 4, "extended size needs 4 bytes", "extended"
    if len(data) < end:
        raise MalformedHeader(short)
    n = _g6_int(data[start:end], "size byte")
    if len(_g6_size_header(n)) < end:
        raise MalformedHeader(f"{form} size form used for a small order")
    return n, data[end:]


def to_graph6(g: Graph) -> str:
    """Encode in graph6: column-major upper triangle, 6 bits per byte, +63."""
    out = bytearray(_g6_size_header(g.n))
    acc = 0
    nbits = 0
    for j in range(1, g.n):
        col = g.rows[j]
        for i in range(j):
            acc = (acc << 1) | ((col >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc = nbits = 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return out.decode("ascii")


def from_graph6(text: str) -> Graph:
    """Decode one graph6 record (an optional ``>>graph6<<`` prefix is accepted)."""
    if not text.isascii():
        raise MalformedHeader("graph6 records are ASCII")
    data = text.strip().removeprefix(">>graph6<<").lstrip().encode("ascii")
    n, payload = _g6_size(data)
    npairs = n * (n - 1) // 2
    nbytes = (npairs + 5) // 6
    if len(payload) < nbytes:
        raise TruncatedPayload(f"need {nbytes} payload bytes, got {len(payload)}")
    if len(payload) > nbytes:
        raise MalformedHeader(f"{len(payload) - nbytes} trailing bytes")
    bits = _g6_int(payload, "payload byte")
    pos = 6 * nbytes
    if bits & ((1 << (pos - npairs)) - 1):
        raise NonCanonicalPadding("non-zero padding bits")
    rows = [0] * n
    for j in range(1, n):
        # column j holds the pairs (0, j) .. (j - 1, j), highest bit first
        pos -= j
        col = (bits >> pos) & ((1 << j) - 1)
        while col:
            i = j - col.bit_length()
            col ^= 1 << (j - 1 - i)
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return _trusted(n, rows)


def graph6_records(lines: Iterable[str]) -> Iterator[tuple[int, str, Graph]]:
    """(index, record, graph) per non-empty graph6 record of ``lines``,
    numbered from 0; a record that does not decode raises its decode error,
    naming its 1-based index and its text."""
    for i, r in enumerate(filter(None, map(str.strip, lines))):
        try:
            g = from_graph6(r)
        except AdimlabError as exc:
            raise type(exc)(f"graph6 record {i + 1} {r!r}: {exc}") from exc
        yield i, r, g


# -- generators ------------------------------------------------------------


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise BadParameter(msg)


def path(n: int) -> Graph:
    _require(n >= 1, f"path needs n >= 1, got {n}")
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    _require(n >= 3, f"cycle needs n >= 3, got {n}")
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    _require(n >= 1, f"complete needs n >= 1, got {n}")
    full = (1 << n) - 1
    return Graph(n, [full ^ (1 << i) for i in range(n)])


def empty_graph(n: int) -> Graph:
    _require(n >= 1, f"empty_graph needs n >= 1, got {n}")
    return Graph(n, [0] * n)


def complete_bipartite(r: int, s: int) -> Graph:
    _require(r >= 1 and s >= 1, f"complete_bipartite needs r, s >= 1, got {r}, {s}")
    left = ((1 << s) - 1) << r
    right = (1 << r) - 1
    return Graph(r + s, [left] * r + [right] * s)


def hypercube(r: int) -> Graph:
    _require(r >= 1, f"hypercube needs r >= 1, got {r}")
    n = 1 << r
    rows = [0] * n
    for v in range(n):
        for b in range(r):
            rows[v] |= 1 << (v ^ (1 << b))
    return Graph(n, rows)


def petersen() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return from_edge_list(10, edges)


def join(g: Graph, h: Graph) -> Graph:
    """Join: disjoint union plus every cross edge; g keeps indices 0..n1-1."""
    n1, n2 = g.n, h.n
    hi = ((1 << n2) - 1) << n1
    lo = (1 << n1) - 1
    rows = [g.rows[v] | hi for v in range(n1)]
    rows += [(h.rows[v] << n1) | lo for v in range(n2)]
    # valid graphs give a valid join, so the constructor's checks are skipped
    return _trusted(n1 + n2, rows)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    rows = list(g.rows) + [r << g.n for r in h.rows]
    return _trusted(g.n + h.n, rows)


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return _trusted(g.n, [~r & full & ~(1 << i) for i, r in enumerate(g.rows)])


def fan(n: int) -> Graph:
    """K1 + P_n with the apex at index 0."""
    return join(complete(1), path(n))


def wheel(n: int) -> Graph:
    """K1 + C_n with the apex at index 0."""
    _require(n >= 3, f"wheel needs n >= 3, got {n}")
    return join(complete(1), cycle(n))


def fig1_graph(t: int) -> Graph:
    """Five-cycle 0,1,2,3,4 with a pendant path of t-1 extra vertices at 4.

    Vertices 0..3 are the cycle-only vertices, vertex 4 doubles as the first
    path vertex, and 5..t+3 continue the path (order is t + 4).
    """
    _require(t >= 1, f"fig1_graph needs t >= 1, got {t}")
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    edges += [(4 + i, 5 + i) for i in range(t - 1)]
    return from_edge_list(t + 4, edges)


def fig2_graph() -> Graph:
    """24 vertices in four blocks: hub 6b joined to the 5-vertex path
    6b+1..6b+5, hubs forming the path 0-6-12-18."""
    edges = []
    for b in range(4):
        hub = 6 * b
        edges += [(hub, hub + i) for i in range(1, 6)]
        edges += [(hub + i, hub + i + 1) for i in range(1, 5)]
        if b:
            edges.append((hub - 6, hub))
    return from_edge_list(24, edges)


def fig3_graph() -> Graph:
    """Hub 0 joined to the rim 1..4; outer vertices 5..8 each join two
    cyclically consecutive rim vertices."""
    edges = [(0, i) for i in range(1, 5)]
    edges += [(5, 1), (5, 2), (6, 2), (6, 3), (7, 3), (7, 4), (8, 4), (8, 1)]
    return from_edge_list(9, edges)


def fig4_graph() -> Graph:
    """Octahedron 0..5 (K6 minus the matching 0-3, 1-4, 2-5) plus three
    degree-2 vertices 6, 7, 8 attached to the matched pairs' complements."""
    edges = [
        (0, 1), (0, 2), (0, 4), (0, 5),
        (1, 2), (1, 3), (1, 5),
        (2, 3), (2, 4),
        (3, 4), (3, 5),
        (4, 5),
        (6, 0), (6, 1), (7, 2), (7, 3), (8, 4), (8, 5),
    ]
    return from_edge_list(9, edges)


def fig5_graph() -> Graph:
    """Path 0..8 with chords from 0 to {2,4,5,6,7,8} and 1 to {5,6,7}."""
    edges = [(i, i + 1) for i in range(8)]
    edges += [(0, j) for j in (2, 4, 5, 6, 7, 8)]
    edges += [(1, j) for j in (5, 6, 7)]
    return from_edge_list(9, edges)


# -- traversal and structure ------------------------------------------------


def bfs_layers(g: Graph, source: int, limit: int | None = None) -> list[int]:
    """Vertices at distance 0, 1, 2, ... from ``source`` as bitmasks, up to
    the last non-empty layer, or only the first ``limit`` layers (``limit``
    >= 1).  The one breadth-first walk of the package."""
    if limit is not None:
        check_positive_int(limit, "layer limit")
    if not 0 <= source < g.n:
        raise OutOfRange(f"vertex {source} not in 0..{g.n - 1}")
    rows = g.rows
    layers = []
    frontier = seen = 1 << source
    while frontier:
        layers.append(frontier)
        if len(layers) == limit:
            break
        reached = 0
        for v in bits_of(frontier):
            reached |= rows[v]
        frontier = reached & ~seen
        seen |= frontier
    return layers


def bfs_distances(g: Graph, source: int) -> list:
    """Hop distances from ``source``; unreachable vertices get INFINITE."""
    dist = [INFINITE] * g.n
    for d, layer in enumerate(bfs_layers(g, source)):
        for v in bits_of(layer):
            dist[v] = d
    return dist


def components(g: Graph) -> list[int]:
    """Connected components as vertex bitmasks, ordered by lowest vertex."""
    remaining = (1 << g.n) - 1
    comps = []
    while remaining:
        # layers are disjoint, so their sum is their union
        comp = sum(bfs_layers(g, (remaining & -remaining).bit_length() - 1))
        comps.append(comp)
        remaining &= ~comp
    return comps


def is_connected(g: Graph) -> bool:
    return g.n == 0 or sum(bfs_layers(g, 0)) == (1 << g.n) - 1


def diameter(g: Graph):
    """Largest hop distance; INFINITE for disconnected graphs."""
    depth = 0
    for v in range(g.n):
        layers = bfs_layers(g, v)
        if sum(layers) != (1 << g.n) - 1:
            return INFINITE
        depth = max(depth, len(layers) - 1)
    return depth


def is_tree(g: Graph) -> bool:
    return g.n >= 1 and is_connected(g) and g.edge_count() == g.n - 1


class TwinPartition(NamedTuple):
    """Twin classes of a graph, ordered by lowest vertex, and their kinds."""

    classes: tuple[VertexSet, ...]
    kinds: tuple[str, ...]


def _twin_groups(g: Graph) -> dict[int, int]:
    """Vertices grouped by open row and by closed row, each row its own key:
    every vertex enters twice, and a group of two or more is a twin class.
    An open row N(u) never equals another vertex's closed row N[v]: v in
    N(u) puts u in N(v), so u would lie in N(u).  Keys enter by lowest
    vertex."""
    groups: dict[int, int] = {}
    get = groups.get
    for v, row in enumerate(g.rows):
        bit = 1 << v
        groups[row] = get(row, 0) | bit
        groups[row | bit] = get(row | bit, 0) | bit
    return groups


def twin_partition(g: Graph) -> TwinPartition:
    """Group vertices by twin equivalence.

    u and v are twins when N(u) - {v} == N(v) - {u}; classes of open-
    neighborhood equality are false twins, classes of closed-neighborhood
    equality are true twins, and no vertex can sit in both kinds at once.
    """
    groups = _twin_groups(g)
    classes, kinds = [], []
    for row, members in groups.items():
        # a closed row holds its own vertices, an open row none of them
        if members & (members - 1):
            classes.append(VertexSet(g.n, members))
            kinds.append(TRUE_TWIN if row & members else FALSE_TWIN)
        elif not row & members and groups[row | members] == members:
            classes.append(VertexSet(g.n, members))
            kinds.append(SINGLETON)
    return TwinPartition(tuple(classes), tuple(kinds))


def twin_prefix(g: Graph) -> int:
    """Mask of every twin-class member except the class's highest vertex.

    Swapping two twins is an automorphism, so at every feasible k some
    minimum k-generator of any truncated metric of ``g`` holds this whole
    mask, and the lexicographically smallest one does: trading a later twin
    for an earlier one gives an earlier cover of the same size."""
    out = 0
    for members in _twin_groups(g).values():
        if members & (members - 1):
            out |= members ^ 1 << (members.bit_length() - 1)
    return out


def are_twins(g: Graph, u: int, v: int) -> bool:
    if u == v:
        raise BadParameter("twin test needs two distinct vertices")
    ru, rv = g.row(u), g.row(v)
    return ru & ~(1 << v) == rv & ~(1 << u)
