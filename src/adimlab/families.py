"""Families of graphs sharing every neighborhood of a fixed generator.

Fixing a vertex set B of a graph G, the family collects every graph on the
same vertices that agrees with G on all edges incident to B; the free edges
inside V - B range over all subsets.  A minimum k-generator B of G stays a
k-generator for every member, which the verification sweep re-checks member
by member together with the rigidity corollaries.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from typing import NamedTuple

from .bitset import VertexSet
from .errors import BadParameter, LimitRequired, OutOfRange
from .graph import Graph
from .metric import build_table
from .solver import is_k_generator, minimum_size, solve_adim

_NO_LIMIT_MAX_PAIRS = 40


class FamilySpec(NamedTuple):
    base: Graph
    basis: VertexSet
    free_vertices: VertexSet
    family_size: int


def family_spec(g: Graph, b: VertexSet) -> FamilySpec:
    if b.n != g.n:
        raise OutOfRange("basis universe does not match the graph")
    free = b.complement()
    m = len(free)
    return FamilySpec(g, b, free, 1 << (m * (m - 1) // 2))


def _free_pairs(free: VertexSet) -> list[tuple[int, int]]:
    vs = free.members()
    return [(vs[i], vs[j]) for i in range(len(vs)) for j in range(i + 1, len(vs))]


def _member(g: Graph, bmask: int, pairs: list[tuple[int, int]], mask: int) -> Graph:
    rows = [
        g.rows[v] if (bmask >> v) & 1 else g.rows[v] & bmask for v in range(g.n)
    ]
    for bit, (u, v) in enumerate(pairs):
        if (mask >> bit) & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return Graph(g.n, rows)


def _check_range(limit: int | None, from_mask: int, to_mask: int | None) -> None:
    if limit is not None and limit < 0:
        raise BadParameter(f"member limit must be an integer >= 0, got {limit}")
    if from_mask < 0:
        raise BadParameter(f"from_mask must be an integer >= 0, got {from_mask}")
    if to_mask is not None and to_mask < from_mask:
        raise BadParameter(
            f"to_mask must be >= from_mask = {from_mask}, got {to_mask}"
        )


def enumerate_family(
    g: Graph,
    b: VertexSet,
    limit: int | None = None,
    from_mask: int = 0,
    to_mask: int | None = None,
) -> Iterator[Graph]:
    """The family members in free-edge mask order 0, 1, 2, ..., from
    ``from_mask`` up to (not including) ``to_mask``, at most ``limit`` of
    them; a start outside the family, a negative limit or an end below the
    start raises ``BadParameter`` here rather than on the first member.

    The free pairs are numbered lexicographically by vertex index, so member
    masks are reproducible and a mask range can be verified in shards.
    """
    _check_range(limit, from_mask, to_mask)
    spec = family_spec(g, b)
    if from_mask >= spec.family_size:
        raise BadParameter(
            f"from_mask must be < the family size {spec.family_size}, got {from_mask}"
        )
    pairs = _free_pairs(spec.free_vertices)
    if len(pairs) > _NO_LIMIT_MAX_PAIRS and limit is None and to_mask is None:
        raise LimitRequired(
            f"{len(pairs)} free pairs make 2^{len(pairs)} members; pass a limit"
        )
    end = spec.family_size if to_mask is None else min(to_mask, spec.family_size)
    masks = range(from_mask, end)
    if limit is not None:
        masks = masks[:limit]
    return (_member(g, b.mask, pairs, mask) for mask in masks)


class FamilyReport(NamedTuple):
    """A family check's outcome, built once when the check ends; the
    default violation list is shared, so a report is never appended to."""

    k: int
    basis: VertexSet
    family_size: int
    checked: int = 0
    violations: list[tuple[int, str]] = []
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "basis": self.basis.to_list(),
            "family_size": self.family_size,
            "checked": self.checked,
            "violations": [
                {"mask": m, "reason": r} for m, r in self.violations
            ],
            "elapsed": round(self.elapsed, 3),
        }


def verify_family_theorem(
    g: Graph,
    k: int,
    limit: int | None = None,
    from_mask: int = 0,
    to_mask: int | None = None,
) -> FamilyReport:
    """Check, member by member, that a minimum k-generator of the base graph
    generates the whole family and never increases the dimension; when the
    base dimension is k+1 (order >= 4) or k+2 (order >= 7) it must also stay
    exactly there."""
    _check_range(limit, from_mask, to_mask)
    base = solve_adim(g, k)
    basis = base.witness
    spec = family_spec(g, basis)
    start = time.perf_counter()
    rigid = None
    if base.dimension == k + 1 and g.n >= 4:
        rigid = k + 1
    elif base.dimension == k + 2 and g.n >= 7:
        rigid = k + 2
    checked = 0
    violations = []
    for mask, member in enumerate(
        enumerate_family(g, basis, limit, from_mask, to_mask), start=from_mask
    ):
        checked += 1
        table = build_table(member, 2)
        if not is_k_generator(table, k, basis):
            violations.append((mask, "basis is not a generator"))
            continue
        dim = minimum_size(table, k)
        if dim > base.dimension:
            violations.append((mask, f"dimension rose to {dim}"))
        elif rigid is not None and dim != rigid:
            violations.append((mask, f"dimension {dim} != rigid {rigid}"))
    elapsed = time.perf_counter() - start
    return FamilyReport(k, basis, spec.family_size, checked, violations, elapsed)
