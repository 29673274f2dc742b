"""Independent computations the benchmark checks adimlab's outputs against.

Nothing here imports adimlab.  A graph is a plain list of adjacency-row
bitmasks, generated from a seed, sent to the program as graph6 text and
re-checked here from the definitions: distances, distinguishing sets,
k-fold covers, an exact integer program and a subset scan.
"""

from __future__ import annotations

import random


def er_rows(rng: random.Random, n: int, p: float) -> list[int]:
    """Erdős–Rényi G(n, p): each pair i < j is an edge with probability p."""
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def pair_mask_rows(n: int, mask: int) -> list[int]:
    """Rows of the labeled graph whose edge bits are the pairs (i, j), i < j,
    in lexicographic order: bit 0 is (0, 1), bit 1 is (0, 2), ..."""
    rows = [0] * n
    bit = 0
    for i in range(n):
        for j in range(i + 1, n):
            if (mask >> bit) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            bit += 1
    return rows


def join_rows(g: list[int], h: list[int]) -> list[int]:
    """G + H with G on 0..|G|-1 and H after it, every cross edge added."""
    n1, n2 = len(g), len(h)
    return [r | (((1 << n2) - 1) << n1) for r in g] + [
        (r << n1) | ((1 << n1) - 1) for r in h
    ]


def graph6(rows: list[int]) -> str:
    """graph6 text (n <= 62): the upper triangle column by column, six bits
    to a byte, each byte offset by 63."""
    n = len(rows)
    bits = [(rows[j] >> i) & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(n + 63)]
    for c in range(0, len(bits), 6):
        val = 0
        for b in bits[c : c + 6]:
            val = (val << 1) | b
        out.append(chr(val + 63))
    return "".join(out)


def bfs(rows: list[int], source: int) -> list[int]:
    """Hop distances from ``source``; -1 where unreachable."""
    dist = [-1] * len(rows)
    dist[source] = 0
    queue = [source]
    for u in queue:
        for v in range(len(rows)):
            if (rows[u] >> v) & 1 and dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def connected(rows: list[int]) -> bool:
    return min(bfs(rows, 0)) >= 0


def distinguishing_sets(dist: list[list[int]]) -> list[int]:
    """For every pair x < y, the vertices z with dist[x][z] != dist[y][z]."""
    n = len(dist)
    out = []
    for x in range(n):
        for y in range(x + 1, n):
            mask = 0
            for z in range(n):
                if dist[x][z] != dist[y][z]:
                    mask |= 1 << z
            out.append(mask)
    return out


def adjacency_sets(rows: list[int]) -> list[int]:
    """Distinguishing sets of the adjacency metric: d2 is 0 on the diagonal,
    1 between neighbours and 2 otherwise."""
    n = len(rows)
    d2 = [
        [0 if u == v else 1 if (rows[u] >> v) & 1 else 2 for v in range(n)]
        for u in range(n)
    ]
    return distinguishing_sets(d2)


def metric_sets(rows: list[int]) -> list[int]:
    """Distinguishing sets of the shortest-path metric (connected graphs)."""
    return distinguishing_sets([bfs(rows, v) for v in range(len(rows))])


def dimensionality(sets: list[int]) -> int:
    """Largest k for which a k-fold cover exists: the smallest set size."""
    return min(s.bit_count() for s in sets)


def is_cover(chosen: int, sets: list[int], k: int) -> bool:
    return all((chosen & s).bit_count() >= k for s in sets)


def milp_minimum(sets: list[int], n: int, k: int) -> int:
    """Exact minimum k-fold cover by integer programming: minimise the sum of
    binary x_v subject to, for every pair, the x_v over its distinguishing
    set summing to at least k (the metric-dimension program of Chartrand et
    al. 2000, with right-hand side k)."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    a = np.array([[(s >> v) & 1 for v in range(n)] for s in sets], dtype=float)
    res = milp(
        np.ones(n),
        constraints=LinearConstraint(a, lb=k, ub=np.inf),
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
        options={"mip_rel_gap": 0},
    )
    if res.status != 0:
        raise RuntimeError(f"MILP did not reach an optimum: {res.message}")
    return round(res.fun)


def ladder_scan(rows: list[int]) -> list[int]:
    """Minimum k-fold cover size of the adjacency metric for k = 1..C by
    scanning every vertex subset (small n only)."""
    n = len(rows)
    sets = adjacency_sets(rows)
    top = dimensionality(sets)
    best = [n + 1] * (top + 1)
    for chosen in range(1 << n):
        level = min((chosen & s).bit_count() for s in sets)
        size = chosen.bit_count()
        for k in range(1, level + 1):
            if size < best[k]:
                best[k] = size
    return best[1:]
