"""Closed-form dimension values and decidable equality criteria.

Every formula is served only inside its proven parameter range; outside it
the query is refused with the exact range in the message, never extrapolated.
Criteria that quantify over all minimum generators are decided by basis
enumeration, which the join criterion skips for H when a bound already
decides it.

The cone and join criteria and bounds refuse a level k outside 1..top, top
the closed-form dimensionality of the cone or join, in one check
(``KExceedsDimensionality``).  A graph of fewer than two vertices is
refused (``TooSmall``) by the closed form or basis list they call first.
"""

from __future__ import annotations

from typing import NamedTuple

from .bitset import VertexSet
from .errors import (
    BadParameter,
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
from .solver import enumerate_bases, minimum_size, solve_adim

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

_TWIN_BOUND = "n >= 2 and k <= 2 (the twin-class bound)"


def _fifths(n: int) -> int:
    return (2 * n + 2) // 5


# family -> (range a refusal names for an unlisted k, {k: (proven range,
# pieces)}); a piece (n0, value) serves every n from n0 up to the next
# piece's n0, value a constant or a function of n, and an n below the first
# piece is refused with that k's range
_CLOSED_FORMS = {
    "path": ("k <= 3", {
        1: ("n >= 2", ((2, 1), (4, _fifths))),
        2: ("n >= 4", ((4, lambda n: (n + 2) // 2),)),
        3: ("n >= 4", ((4, lambda n: n - (n - 4) // 5),)),
    }),
    "cycle": ("k <= 4 and n >= 5", {
        1: ("n >= 4", ((4, _fifths),)),
        2: ("k <= 4 and n >= 5", ((5, lambda n: (n + 1) // 2),)),
        3: ("k <= 4 and n >= 5", ((5, lambda n: n - n // 5),)),
        4: ("k <= 4 and n >= 5", ((5, lambda n: n),)),
    }),
    "complete": (_TWIN_BOUND, {
        1: (_TWIN_BOUND, ((2, lambda n: n - 1),)),
        2: (_TWIN_BOUND, ((2, lambda n: n),)),
    }),
    "fan": ("k <= 3", {
        1: ("n >= 1", ((1, 1), (2, 2), (6, 3), (7, _fifths))),
        2: ("n >= 2", ((2, 3), (3, 4), (6, lambda n: (n + 2) // 2))),
        3: ("n >= 4", ((4, 5), (6, lambda n: n - (n - 4) // 5))),
    }),
    "wheel": ("k <= 4", {
        1: ("n >= 3", ((3, 3), (4, _fifths), (6, 3), (7, _fifths))),
        2: ("n >= 3", ((3, 4), (7, lambda n: (n + 1) // 2))),
        3: ("n >= 5", ((5, 5), (7, lambda n: n - n // 5))),
        4: ("n >= 5", ((5, 6), (7, lambda n: n))),
    }),
}
_CLOSED_FORMS["empty"] = _CLOSED_FORMS["complete"]

# family -> (parameter count, how a wrong count is named); the rest take n
_ARITY = {
    "complete_bipartite": (2, "parameters r, s"),
    "petersen": (0, "no parameters"),
}


class FormulaQuery(NamedTuple):
    family: str
    params: tuple[int, ...]
    k: int


class CriterionReport(NamedTuple):
    criterion: str
    holds: bool
    witness: VertexSet | int | None = None

    def to_json_dict(self) -> dict:
        w = self.witness
        if isinstance(w, VertexSet):
            w = w.to_list()
        return {"criterion": self.criterion, "holds": self.holds, "witness": w}


def formula_adim(q: FormulaQuery) -> int:
    """Closed-form minimum k-generator size for the supported families."""
    fam, k = q.family, q.k
    if fam not in FAMILIES:
        raise OutOfProvenRange(f"unknown family {fam!r}; pick one of {FAMILIES}")
    arity, named = _ARITY.get(fam, (1, "exactly one parameter n"))
    if len(q.params) != arity:
        raise OutOfProvenRange(f"{fam} takes {named}")
    if fam == "complete_bipartite" and min(q.params) < 1:
        # no graph has such a part; the generator refuses it the same way
        r, s = q.params
        raise BadParameter(f"complete_bipartite needs r, s >= 1, got {r}, {s}")
    value = None
    if k < 1:
        rng = "k >= 1"
    elif fam == "petersen":
        rng = "k <= 6"
        if k <= len(_PETERSEN_LADDER):
            value = _PETERSEN_LADDER[k - 1]
    elif fam == "complete_bipartite":
        r, s = q.params
        rng = {
            1: "r + s >= 3",
            2: "r, s >= 2 (every vertex twinned) or r = s = 1",
        }.get(k, "k <= 2 (the twin-class bound)")
        if k == 1 and r + s >= 3:
            value = r + s - 2
        elif k == 2 and (r >= 2 and s >= 2 or r == s == 1):
            value = r + s
    else:
        (n,) = q.params
        unlisted, by_k = _CLOSED_FORMS[fam]
        rng, pieces = by_k.get(k, (unlisted, ()))
        value = next((v for n0, v in reversed(pieces) if n0 <= n), None)
        if callable(value):
            value = value(n)
    if value is None:
        raise OutOfProvenRange(f"{fam} with k={k} is only proven for {rng}")
    return value


# -- cone and join criteria --------------------------------------------------


def _check_level(k: int, top: int, what: str) -> None:
    if not 1 <= k <= top:
        raise KExceedsDimensionality(f"k={k} outside 1..{top} for {what}")


def _outside(h: Graph, basis: VertexSet) -> list[int]:
    """For each vertex y of H, how many basis vertices lie outside N(y)."""
    return [(basis.mask & ~row).bit_count() for row in h.rows]


def cone_equality_criterion(h: Graph, k: int) -> CriterionReport:
    """Some minimum k-generator A of H keeps >= k vertices outside every
    open neighborhood; equivalent to the cone K1+H having equal dimension."""
    _check_level(k, cone_dimensionality(h), "the cone")
    for basis in enumerate_bases(h, k):
        if min(_outside(h, basis)) >= k:
            return CriterionReport("cone-equality", True, basis)
    return CriterionReport("cone-equality", False)


def cone_plus_one_criterion(h: Graph, k: int) -> CriterionReport:
    """Every minimum k-generator of H leaves exactly k-1 vertices outside
    some open neighborhood and never fewer; forces the cone dimension to
    exceed H's by exactly one."""
    _check_level(k, cone_dimensionality(h), "the cone")
    witness = None
    for basis in enumerate_bases(h, k):
        outs = _outside(h, basis)
        if min(outs) != k - 1:
            return CriterionReport("cone-plus-one", False)
        if witness is None:
            witness = outs.index(k - 1)
    return CriterionReport("cone-plus-one", True, witness)


class ConeBound(NamedTuple):
    """Upper bound for the 2-level cone dimension with equality detection."""

    bound: int
    equality: bool
    reason: str | None = None

    def to_json_dict(self) -> dict:
        return self._asdict()


def adim2_upper_cone(h: Graph) -> ConeBound:
    """adim_2(H) + 2 bounds the cone; flags the two proven equality premises
    (a universal vertex outside all 2-bases, or an isolated vertex plus a
    degree n-2 vertex both outside all 2-bases)."""
    bases = enumerate_bases(h, 2)
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
    # the join's closed form is never lower: its cross term is at least the
    # cone's, since n_H - max_degree(H) >= 1
    top = min(cone_dimensionality(g), adjacency_dimensionality(h))
    _check_level(k, top, "these bounds")
    ah = minimum_size(build_table(h, 2), k)
    lower = minimum_size(build_table(g, 2), k) + ah
    upper = minimum_size(build_table(join(complete(1), g), 2), k) + ah
    return lower, upper


def join_equality_criterion(g: Graph, h: Graph, k: int) -> CriterionReport:
    """Some pair of minimum k-generators (A, B) keeps >= k vertices outside
    N(x) union N(y) for every cross pair; equivalent to additivity of the
    join dimension.  The two sides are disjoint, so the test reduces to
    max_A min_x |A - N(x)| + max_B min_y |B - N(y)| >= k.

    H's term is at least 0 and at least the score of H's lex-first basis,
    so H's bases are listed only when neither closes the gap; the report
    is the one the full lists give."""
    _check_level(k, join_dimensionality(g, h), "the join")

    def best(graph: Graph) -> tuple[int, VertexSet]:
        score, argmax = -1, None
        for basis in enumerate_bases(graph, k):
            s = min(_outside(graph, basis))
            if s > score:
                score, argmax = s, basis
        return score, argmax

    sg, wg = best(g)
    if (
        sg >= k
        or sg + min(_outside(h, solve_adim(h, k).witness)) >= k
        or sg + best(h)[0] >= k
    ):
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
