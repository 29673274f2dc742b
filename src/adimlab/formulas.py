"""Closed-form dimension values and decidable equality criteria.

Every formula is served only inside its proven parameter range; outside it
the query is refused with the exact range in the message, never extrapolated.
Criteria that quantify over all minimum generators are decided by full basis
enumeration (an optional cap aborts with a typed error instead of sampling).
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitset import VertexSet
from .errors import (
    KExceedsDimensionality,
    NotATree,
    OutOfProvenRange,
    TooSmall,
)
from .graph import SINGLETON, Graph, complete, is_tree, join, twin_partition
from .metric import (
    adjacency_dimensionality,
    build_table,
    cone_dimensionality,
    forced_set,
    join_dimensionality,
)
from .solver import enumerate_bases, solve_adim

FAMILIES = (
    "path",
    "cycle",
    "complete",
    "empty",
    "complete_bipartite",
    "fan",
    "wheel",
    "petersen",
)

_PETERSEN_LADDER = (3, 4, 7, 8, 9, 10)


@dataclass(frozen=True)
class FormulaQuery:
    family: str
    params: tuple[int, ...]
    k: int


@dataclass(frozen=True)
class CriterionReport:
    criterion: str
    holds: bool
    witness: VertexSet | int | None = None

    def to_json_dict(self) -> dict:
        w = self.witness
        if isinstance(w, VertexSet):
            w = w.to_list()
        return {"criterion": self.criterion, "holds": self.holds, "witness": w}


def _refuse(family: str, k: int, rng: str):
    raise OutOfProvenRange(f"{family} with k={k} is only proven for {rng}")


def _one_param(q: FormulaQuery) -> int:
    if len(q.params) != 1:
        raise OutOfProvenRange(f"{q.family} takes exactly one parameter n")
    return q.params[0]


def formula_adim(q: FormulaQuery) -> int:
    """Closed-form minimum k-generator size for the supported families."""
    fam, k = q.family, q.k
    if fam == "path":
        n = _one_param(q)
        if k == 1:
            if n in (2, 3):
                return 1
            if n >= 4:
                return (2 * n + 2) // 5
            _refuse(fam, k, "n >= 2")
        if k == 2:
            if n >= 4:
                return (n + 2) // 2
            _refuse(fam, k, "n >= 4")
        if k == 3:
            if n >= 4:
                return n - (n - 4) // 5
            _refuse(fam, k, "n >= 4")
        _refuse(fam, k, "k <= 3")
    if fam == "cycle":
        n = _one_param(q)
        if k == 1:
            if n >= 4:
                return (2 * n + 2) // 5
            _refuse(fam, k, "n >= 4")
        if 2 <= k <= 4 and n >= 5:
            return ((n + 1) // 2, n - n // 5, n)[k - 2]
        _refuse(fam, k, "k <= 4 and n >= 5")
    if fam in ("complete", "empty"):
        n = _one_param(q)
        if n >= 2 and k in (1, 2):
            return n - 1 if k == 1 else n
        _refuse(fam, k, "n >= 2 and k <= 2 (the twin-class bound)")
    if fam == "complete_bipartite":
        if len(q.params) != 2:
            raise OutOfProvenRange("complete_bipartite takes parameters r, s")
        r, s = q.params
        if k == 1:
            if r + s >= 3:
                return r + s - 2
            _refuse(fam, k, "r + s >= 3")
        if k == 2:
            if (r >= 2 and s >= 2) or (r == 1 and s == 1):
                return r + s
            _refuse(fam, k, "r, s >= 2 (every vertex twinned) or r = s = 1")
        _refuse(fam, k, "k <= 2 (the twin-class bound)")
    if fam == "fan":
        n = _one_param(q)
        return _fan_value(n, k)
    if fam == "wheel":
        n = _one_param(q)
        return _wheel_value(n, k)
    if fam == "petersen":
        if 1 <= k <= 6:
            return _PETERSEN_LADDER[k - 1]
        _refuse(fam, k, "k <= 6")
    raise OutOfProvenRange(f"unknown family {fam!r}; pick one of {FAMILIES}")


def _fan_value(n: int, k: int) -> int:
    if k == 1:
        if n == 1:
            return 1
        if 2 <= n <= 5:
            return 2
        if n == 6:
            return 3
        if n >= 7:
            return (2 * n + 2) // 5
        _refuse("fan", k, "n >= 1")
    if k == 2:
        if n == 2:
            return 3
        if n in (3, 4, 5):
            return 4
        if n >= 6:
            return (n + 2) // 2
        _refuse("fan", k, "n >= 2")
    if k == 3:
        if n in (4, 5):
            return 5
        if n >= 6:
            return n - (n - 4) // 5
        _refuse("fan", k, "n >= 4")
    _refuse("fan", k, "k <= 3")


def _wheel_value(n: int, k: int) -> int:
    if k == 1:
        if n in (3, 6):
            return 3
        if n >= 3:
            return (2 * n + 2) // 5
        _refuse("wheel", k, "n >= 3")
    if k == 2:
        if 3 <= n <= 6:
            return 4
        if n >= 7:
            return (n + 1) // 2
        _refuse("wheel", k, "n >= 3")
    if k == 3:
        if n in (5, 6):
            return 5
        if n >= 7:
            return n - n // 5
        _refuse("wheel", k, "n >= 5")
    if k == 4:
        if n in (5, 6):
            return 6
        if n >= 7:
            return n
        _refuse("wheel", k, "n >= 5")
    _refuse("wheel", k, "k <= 4")


# -- cone and join criteria --------------------------------------------------


def _check_cone_k(h: Graph, k: int) -> None:
    if h.n < 2:
        raise TooSmall("criteria need a nontrivial graph")
    top = cone_dimensionality(h)
    if not 1 <= k <= top:
        raise KExceedsDimensionality(
            f"k={k} outside 1..{top}, the feasibility range of the cone"
        )


def _basis_outside_neighborhood(h: Graph, basis: VertexSet, y: int) -> int:
    return (basis.mask & ~h.rows[y]).bit_count()


def cone_equality_criterion(
    h: Graph, k: int, basis_cap: int | None = None
) -> CriterionReport:
    """Some minimum k-generator A of H keeps >= k vertices outside every
    open neighborhood; equivalent to the cone K1+H having equal dimension."""
    _check_cone_k(h, k)
    for basis in enumerate_bases(h, k, basis_cap):
        if all(_basis_outside_neighborhood(h, basis, y) >= k for y in range(h.n)):
            return CriterionReport("cone-equality", True, basis)
    return CriterionReport("cone-equality", False)


def cone_plus_one_criterion(
    h: Graph, k: int, basis_cap: int | None = None
) -> CriterionReport:
    """Every minimum k-generator of H leaves exactly k-1 vertices outside
    some open neighborhood and never fewer; forces the cone dimension to
    exceed H's by exactly one."""
    _check_cone_k(h, k)
    witness = None
    for basis in enumerate_bases(h, k, basis_cap):
        outs = [_basis_outside_neighborhood(h, basis, y) for y in range(h.n)]
        if min(outs) != k - 1:
            return CriterionReport("cone-plus-one", False)
        if witness is None:
            witness = outs.index(k - 1)
    return CriterionReport("cone-plus-one", True, witness)


@dataclass(frozen=True)
class ConeBound:
    """Upper bound for the 2-level cone dimension with equality detection."""

    bound: int
    equality: bool
    reason: str | None = None

    def to_json_dict(self) -> dict:
        return {"bound": self.bound, "equality": self.equality, "reason": self.reason}


def adim2_upper_cone(h: Graph, basis_cap: int | None = None) -> ConeBound:
    """adim_2(H) + 2 bounds the cone; flags the two proven equality premises
    (a universal vertex outside all 2-bases, or an isolated vertex plus a
    degree n-2 vertex both outside all 2-bases)."""
    if h.n < 2:
        raise TooSmall("the bound needs a nontrivial graph")
    bases = enumerate_bases(h, 2, basis_cap)
    base = len(bases[0])
    in_some_basis = 0
    for basis in bases:
        in_some_basis |= basis.mask
    degrees = h.degrees()
    for x in range(h.n):
        if degrees[x] == h.n - 1 and not (in_some_basis >> x) & 1:
            return ConeBound(base + 2, True, "universal-vertex")
    isolated = [v for v in range(h.n) if degrees[v] == 0]
    near = [u for u in range(h.n) if degrees[u] == h.n - 2]
    for v in isolated:
        for u in near:
            if not (in_some_basis >> v) & 1 and not (in_some_basis >> u) & 1:
                return ConeBound(base + 2, True, "isolated-plus-near-universal")
    return ConeBound(base + 2, False)


def join_bounds(g: Graph, h: Graph, k: int) -> tuple[int, int]:
    """(lower, upper) sandwich for the join dimension:
    adim_k(G) + adim_k(H) <= adim_k(G+H) <= adim_k(K1+G) + adim_k(H)."""
    if g.n < 2 or h.n < 2:
        raise TooSmall("join bounds need nontrivial graphs")
    top = min(
        join_dimensionality(g, h),
        adjacency_dimensionality(h),
        cone_dimensionality(g),
    )
    if not 1 <= k <= top:
        raise KExceedsDimensionality(f"k={k} outside 1..{top} for these bounds")
    ah = solve_adim(h, k).dimension
    lower = solve_adim(g, k).dimension + ah
    upper = solve_adim(join(complete(1), g), k).dimension + ah
    return lower, upper


def join_equality_criterion(
    g: Graph, h: Graph, k: int, basis_cap: int | None = None
) -> CriterionReport:
    """Some pair of minimum k-generators (A, B) keeps >= k vertices outside
    N(x) union N(y) for every cross pair; equivalent to additivity of the
    join dimension.  The two sides are disjoint, so the test reduces to
    max_A min_x |A - N(x)| + max_B min_y |B - N(y)| >= k."""
    if g.n < 2 or h.n < 2:
        raise TooSmall("the criterion needs nontrivial graphs")
    top = join_dimensionality(g, h)
    if not 1 <= k <= top:
        raise KExceedsDimensionality(f"k={k} outside 1..{top} for the join")

    def best(graph: Graph) -> tuple[int, VertexSet]:
        score, argmax = -1, None
        for basis in enumerate_bases(graph, k, basis_cap):
            s = min(
                _basis_outside_neighborhood(graph, basis, y) for y in range(graph.n)
            )
            if s > score:
                score, argmax = s, basis
        return score, argmax

    sg, wg = best(g)
    sh, _ = best(h)
    if sg + sh >= k:
        return CriterionReport("join-equality", True, wg)
    return CriterionReport("join-equality", False)


def full_dimension_criteria(g: Graph, k: int) -> CriterionReport:
    """adim_k(G) = n exactly when the size-k pair sets cover every vertex;
    decided from the table alone, with no solver call.  The witness on a
    negative answer is a vertex every minimum generator can drop."""
    table = build_table(g, 2)
    covered = forced_set(table, k)
    if len(covered) == g.n:
        return CriterionReport("full-dimension-k", True)
    spare = covered.complement().members()[0]
    return CriterionReport("full-dimension-k", False, spare)


def full_dimension_twin_criterion(g: Graph) -> CriterionReport:
    """k = 2 form of the full-dimension test: every vertex must sit in a
    non-singleton twin class."""
    if g.n < 2:
        raise TooSmall("needs at least 2 vertices")
    part = twin_partition(g)
    for cls, kind in zip(part.classes, part.kinds):
        if kind == SINGLETON:
            return CriterionReport("full-dimension-twin-2", False, cls.members()[0])
    return CriterionReport("full-dimension-twin-2", True)


def cone_full_dimension_criterion(h: Graph) -> CriterionReport:
    """adim_2(K1+H) = n+1 exactly when H has a universal vertex and every
    non-universal vertex sits in a non-singleton twin class of H."""
    if h.n < 2:
        raise TooSmall("needs a nontrivial graph")
    n = h.n
    if h.max_degree() != n - 1:
        return CriterionReport("full-dimension-cone-2", False)
    part = twin_partition(h)
    for cls, kind in zip(part.classes, part.kinds):
        if kind == SINGLETON:
            v = cls.members()[0]
            if h.degree(v) < n - 1:
                return CriterionReport("full-dimension-cone-2", False, v)
    return CriterionReport("full-dimension-cone-2", True)


def tree_dimensionality(t: Graph) -> int:
    """Largest feasible k for a tree: 2 when two leaves share a support
    vertex, 3 otherwise."""
    if not is_tree(t):
        raise NotATree("the tree rule needs a connected acyclic graph")
    if t.n < 3:
        raise TooSmall("the tree rule needs order >= 3")
    for v in range(t.n):
        leaf_neighbors = sum(1 for u in t.neighbors(v) if t.degree(u) == 1)
        if leaf_neighbors >= 2:
            return 2
    return 3
