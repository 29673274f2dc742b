"""Exact minimum set multicover over bitmasks: the search kernel.

Given the pair masks of a distinguish table, a k-generator is a vertex set
hitting every mask at least k times (k >= 1); the solver below finds a
minimum one.  Masks are plain ints, so any universe size is accepted.

A table is first reduced: duplicate masks go, and so does every mask that
contains another one (a set hitting A k times hits every superset of A k
times, so the valid covers are unchanged); the rest are sorted by
(popcount, value).  The search then runs on columns: one int per vertex,
bit p set when the vertex lies in mask p.  The residual is k bit-planes,
plane j holding the masks still short of j + 1 hits, so a pick updates it
with a few ANDs and ORs, and coverage counts over a vertex set come from a
ripple of ANDs and ORs over its columns: masks with too few available
vertices end a branch, masks with exactly as many force them all, and a
mask with one to spare is the one branched on.  The lower bound on further
picks is ceil(total residual / best single-vertex coverage), and at least
the largest residual, which is the number of non-empty planes.

A node first compares the picks so far plus the largest residual with the
incumbent, before any column work; forced picks cannot lower that sum, so
the test ends only nodes that would end without a branch anyway.  Otherwise
it walks the set bits of the available vertices and ripples over their
columns, on local variables when at most three planes are non-empty.  A
vertex that hits no short mask is dropped from the available set for the
whole subtree (the short masks only shrink below a node), and the exclude
branch of a node reuses its columns without a call.

A solve has two phases.  The minimum search, a branch and bound from the
greedy incumbent, finds the minimum size and one cover of that size
(``minimum_search``).  The lex pass then walks the vertices in index order
to list the minimum covers lexicographically, asking the same branch and
bound, bounded by that size, whether a cover agrees with each new decision.

The kernel owns the minimum search's record: a ``Prepared`` table keeps one
per k in ``searches``, so the records live exactly as long as the table.
``minimum_search`` returns the stored record when there is one, charged its
nodes, so a budget has the outcome it would have on a cold table.  The lex
pass of ``solve_min_multicover`` (which keeps the first cover) and of
``enumerate_min_covers`` (which lists them all) starts from that record and
counts its nodes against the budget too.  ``cover_ladder`` is the one
ladder, the minimum size at every level k = 1..C: the minimum search alone
per level, so it shares its records with solves and basis lists.

The reduced masks and their columns depend on the masks alone, not on k,
so ``prepare`` makes them once as a ``Prepared`` table
(``DistinguishTable.prepared`` keeps one per distinguish table).  Every
search takes one, with a column per vertex, and seeds itself with
``forced``, the masks of exactly k bits, which every k-fold cover contains,
ORed with the table's ``prefix``: vertices the lexicographically smallest
minimum cover is known to hold at every feasible k.  A distinguish table's
prefix is its graph's twin prefix (``graph.twin_prefix``); ``prepare`` on
raw masks carries none, since a 2-bit mask of a general instance says
nothing of symmetry.  The witness pass of ``solve_min_multicover`` takes
the prefix too, so its probes search only covers that hold it;
``enumerate_min_covers`` never does, and lists every minimum cover.
"""

from __future__ import annotations

from typing import NamedTuple

from .bitset import bits_of
from .errors import BudgetExhausted, KTooLarge, OutOfRange


def implementation_name() -> str:
    """Name of the kernel behind every result, shown by benchmark runs."""
    return "python"


def _reduce(masks) -> list[int]:
    """The masks without duplicates and without any mask containing another,
    sorted by (popcount, value); their k-fold covers are those of ``masks``."""
    kept: list[int] = []
    for m in sorted(sorted(set(masks)), key=int.bit_count):
        # a kept mask inside m has fewer bits, so it is already in ``kept``
        for a in kept:
            if a & m == a:
                break
        else:
            kept.append(m)
    return kept


def _columns(masks, n: int) -> list[int]:
    """Column layout: bit p of entry v is set when vertex v lies in mask p."""
    if not masks:
        return [0] * n
    # transpose the n-digit binary rows, last mask first so that it becomes
    # the top bit; digit 0 of a row is vertex n - 1
    rows = [format(m, f"0{n}b") for m in reversed(masks)]
    return [int("".join(digits), 2) for digits in zip(*rows)][::-1]


class Prepared(NamedTuple):
    """A table ready for search: the reduced masks, their columns, the
    ``prefix``, vertices that the lexicographically smallest minimum cover
    holds at every feasible k (0 when nothing is known of the table), and
    ``searches``, the record of ``minimum_search`` for each k run so far."""

    masks: tuple[int, ...]
    cols: tuple[int, ...]
    prefix: int
    searches: dict


def prepare(masks, n: int, prefix: int = 0) -> Prepared:
    """Reduce ``masks`` and lay them out in columns over ``n`` vertices; a
    mask outside 0..2^n - 1 raises ``OutOfRange``."""
    reduced = _reduce(masks)
    if reduced and (min(reduced) < 0 or max(reduced) >> n):
        raise OutOfRange(f"a mask lies outside the {n} vertices 0..{n - 1}")
    return Prepared(tuple(reduced), tuple(_columns(reduced, n)), prefix, {})


def forced(masks, k: int) -> int:
    """Union of the masks of exactly k bits, which every k-fold cover contains
    (for a feasible k, reduction keeps every such mask)."""
    out = 0
    for m in masks:
        if m.bit_count() == k:
            out |= m
    return out


def _pick(planes: list[int], col: int) -> list[int]:
    """Residual planes after one more vertex with column ``col``: its masks
    move down one plane, so those with exactly j hits leave plane j."""
    keep = ~col
    out = []
    below = 0
    for p in planes:
        out.append(p & keep | below & col)
        below = p
    return out


def _planes(cols: list[int], k: int, width: int, chosen: int) -> list[int]:
    """Residual planes of ``width`` masks once ``chosen`` is taken."""
    planes = [(1 << width) - 1] * k
    for v in bits_of(chosen):
        planes = _pick(planes, cols[v])
    return planes


def greedy_cover(
    prepared: Prepared, k: int, seed: int = 0, planes: list[int] | None = None
) -> int:
    """Valid (not necessarily minimum) cover grown from ``seed`` by always
    adding the vertex hitting the most deficient reduced masks, ties to low
    index.  ``planes``, when given, are the residual planes of ``seed``."""
    masks, cols = prepared.masks, prepared.cols
    if planes is None:
        planes = _planes(cols, k, len(masks), seed)
    chosen = seed
    while planes[-1]:
        short = planes[-1]
        best, pick = 0, -1
        for v in range(len(cols)):
            if not (chosen >> v) & 1:
                score = (cols[v] & short).bit_count()
                if score > best:
                    best, pick = score, v
        if not best:
            raise KTooLarge("infeasible cover instance: some mask has < k bits")
        chosen |= 1 << pick
        planes = _pick(planes, cols[pick])
    return chosen


class _Search:
    """One search over a ``Prepared`` table.  ``best_size``/``best_mask``
    hold the smallest cover found so far; the branch and bound stops as soon
    as it holds one of at most ``floor`` vertices, and every node it enters
    counts against ``budget``."""

    __slots__ = ("masks", "cols", "k", "n", "budget", "nodes", "best_size",
                 "best_mask", "floor")

    def __init__(self, prepared, k, budget):
        self.masks, self.cols = prepared.masks, prepared.cols
        self.k = k
        self.n = len(self.cols)
        self.budget = budget
        self.nodes = 0
        self.floor = 0

    def branch_bound(self, chosen, count, avail, planes):
        """Dynamic-order search for any minimum cover extending ``chosen``.
        Each pass of the outer loop is one node; its exclude branch is the
        next pass, not a call."""
        cols = self.cols
        k = self.k
        budget = self.budget
        hits = None
        while self.best_size > self.floor:
            self.nodes += 1
            if budget is not None and self.nodes > budget:
                raise BudgetExhausted(f"node budget {budget} exhausted")
            while True:
                # plane k - i holds the masks that still need i or more hits,
                # and the planes are nested, so the largest residual is the
                # number of non-empty planes; it needs at least that many
                # more picks, and forced picks cannot lower count + deep
                deep = k - planes.count(0)
                if count + deep >= self.best_size:
                    return
                if not deep:
                    self.best_size = count
                    self.best_mask = chosen
                    return
                short = planes[-1]
                # short only shrinks below this node, so a vertex hitting no
                # short mask now never helps in the subtree: drop it
                if hits is None:
                    hits = []
                    rest = avail
                    while rest:
                        low = rest & -rest
                        rest ^= low
                        c = cols[low.bit_length() - 1] & short
                        if c:
                            hits.append(c)
                        else:
                            avail ^= low
                # reach[j]: short masks with at least j + 1 available vertices
                if deep == 1:
                    r0 = r1 = r2 = 0
                    for c in hits:
                        r2 |= r1 & c
                        r1 |= r0 & c
                        r0 |= c
                    reach = (r0, r1, r2)
                elif deep == 2:
                    r0 = r1 = r2 = r3 = 0
                    for c in hits:
                        r3 |= r2 & c
                        r2 |= r1 & c
                        r1 |= r0 & c
                        r0 |= c
                    reach = (r0, r1, r2, r3)
                elif deep == 3:
                    r0 = r1 = r2 = r3 = r4 = 0
                    for c in hits:
                        r4 |= r3 & c
                        r3 |= r2 & c
                        r2 |= r1 & c
                        r1 |= r0 & c
                        r0 |= c
                    reach = (r0, r1, r2, r3, r4)
                else:
                    reach = [0] * (deep + 2)
                    for c in hits:
                        for j in range(deep + 1, 0, -1):
                            reach[j] |= reach[j - 1] & c
                        reach[0] |= c
                tight = 0
                for i in range(1, deep + 1):
                    need = planes[k - i]
                    if need & ~reach[i - 1]:
                        return
                    tight |= need & ~reach[i]
                if not tight:
                    break
                must = 0
                rest = avail
                while rest:
                    low = rest & -rest
                    rest ^= low
                    c = cols[low.bit_length() - 1]
                    if c & tight:
                        must |= low
                        planes = _pick(planes, c)
                count += must.bit_count()
                chosen |= must
                avail &= ~must
                hits = None
            # count + deep < best_size holds here, so of the lower bound
            # max(ceil(total residual / best coverage), deep) only the first
            # part is left to test
            top = max(map(int.bit_count, hits))
            total = sum(map(int.bit_count, planes))
            if count - (-total // top) >= self.best_size:
                return
            slack1 = 0
            for i in range(1, deep + 1):
                slack1 |= planes[k - i] & ~reach[i + 1]
            first = slack1 or short
            branch = self.masks[(first & -first).bit_length() - 1]
            best = 0
            rest = branch & avail
            while rest:
                low = rest & -rest
                rest ^= low
                s = (cols[low.bit_length() - 1] & short).bit_count()
                if s > best:
                    best, bit = s, low
            self.branch_bound(chosen | bit, count + 1, avail & ~bit,
                              _pick(planes, cols[bit.bit_length() - 1]))
            # the exclude branch keeps the planes, so its hits are these
            # without the one of ``bit``
            del hits[(avail & (bit - 1)).bit_count()]
            avail &= ~bit

    def lex_covers(self, size, limit, prefix):
        """Covers of exactly ``size`` vertices holding ``prefix``, in
        ascending lexicographic order of their sorted member tuples, at most
        ``limit`` of them.  ``size`` must be the minimum size of such a
        cover and ``best_mask`` one of them.

        Vertices are decided in index order, including first.  A branch is
        entered only with a witness: a cover of ``size`` vertices that agrees
        with every decision so far.  The current witness settles one branch
        at each vertex, and a bounded branch and bound looks for a witness
        of the other."""
        out = []
        cols = self.cols
        k = self.k
        n = self.n
        # room[v][j]: masks with at least j + 1 vertices in v..n-1
        room = [()] * (n + 1)
        reach = [0] * k
        room[n] = tuple(reach)
        for v in range(n - 1, -1, -1):
            c = cols[v]
            for j in range(k - 1, 0, -1):
                reach[j] |= reach[j - 1] & c
            reach[0] |= c
            room[v] = tuple(reach)
        self.floor = size

        def extend(v, chosen, count, planes):
            """A cover of ``size`` vertices extending ``chosen`` by vertices
            from v..n-1, or None.  The prefix vertices from v on are taken
            first, and are no longer available to the search."""
            more = prefix & -(1 << v)
            if more:
                chosen |= more
                count += more.bit_count()
                for u in bits_of(more):
                    planes = _pick(planes, cols[u])
            if count + k - planes.count(0) > size:
                return None
            here = room[v]
            for i in range(1, k + 1):
                if planes[k - i] & ~here[i - 1]:
                    return None
            self.best_size = size + 1
            self.branch_bound(chosen, count, (1 << n) - (1 << v) & ~more, planes)
            return self.best_mask if self.best_size == size else None

        def rec(v, chosen, count, planes, witness):
            if count == size:
                out.append(chosen)
                return len(out) >= limit
            bit = 1 << v
            taken = _pick(planes, cols[v])
            inner = witness if witness & bit else extend(
                v + 1, chosen | bit, count + 1, taken)
            if inner is not None and rec(v + 1, chosen | bit, count + 1, taken, inner):
                return True
            if bit & prefix:
                return False
            outer = extend(v + 1, chosen, count, planes) if witness & bit else witness
            return outer is not None and rec(v + 1, chosen, count, planes, outer)

        rec(0, 0, 0, _planes(cols, k, len(self.masks), 0), self.best_mask)
        self.best_size = size
        return out


def minimum_search(prepared, k, budget=None):
    """The minimum search alone: the greedy incumbent, then branch and
    bound, both seeded with the forced masks and the prefix.  Returns
    (size, cover, nodes, greedy_size), the minimum cover size, one cover of
    that size (it holds the forced masks and the prefix, but need not be
    the lexicographically smallest), the nodes spent and the size of the
    greedy incumbent the search started from.  The record is stored in
    ``prepared.searches`` and a later call for the same k returns it,
    raising ``BudgetExhausted`` exactly when running the search again
    would.  Assumes feasibility (every mask has >= k bits)."""
    found = prepared.searches.get(k)
    if found is not None:
        if budget is not None and found[2] > budget:
            raise BudgetExhausted(f"node budget {budget} exhausted")
        return found
    search = _Search(prepared, k, budget)
    seed = forced(search.masks, k) | prepared.prefix
    planes = _planes(search.cols, k, len(search.masks), seed)
    incumbent = greedy_cover(prepared, k, seed, planes)
    greedy_size = search.best_size = incumbent.bit_count()
    search.best_mask = incumbent
    full = (1 << search.n) - 1
    search.branch_bound(seed, seed.bit_count(), full & ~seed, planes)
    found = search.best_size, search.best_mask, search.nodes, greedy_size
    prepared.searches[k] = found
    return found


def _lex_start(prepared, k, budget):
    """A search ready for the lex pass, and the minimum search's record it
    starts from: the search holds the record's cover and counts its nodes,
    so ``budget`` bounds the two phases together."""
    found = minimum_search(prepared, k, budget)
    search = _Search(prepared, k, budget)
    search.best_size, search.best_mask, search.nodes, _ = found
    return search, found


def solve_min_multicover(prepared, k, budget=None):
    """Exact minimum multicover.

    Returns (size, witness_mask, nodes, (greedy_size, search_nodes)) where
    witness is the lexicographically smallest minimum cover, greedy_size
    the size of the greedy incumbent the search started from and
    search_nodes the part of ``nodes`` spent finding the minimum size; the
    lex pass spent the rest.  Assumes feasibility (every mask has >= k
    bits).
    """
    search, (size, _, search_nodes, greedy_size) = _lex_start(prepared, k, budget)
    witnesses = search.lex_covers(size, 1, prepared.prefix)
    return size, witnesses[0], search.nodes, (greedy_size, search_nodes)


def enumerate_min_covers(prepared, k, limit=None, budget=None):
    """All minimum covers in lexicographic order.

    Returns (covers, nodes, truncated), ``nodes`` counting the nodes of the
    lex pass alone (``budget`` bounds it and the minimum search together);
    with a ``limit``, at most that many covers are returned and
    ``truncated`` reports whether more exist.
    """
    search, (size, _, search_nodes, _) = _lex_start(prepared, k, budget)
    cap = 1 << 62 if limit is None else limit + 1
    covers = search.lex_covers(size, cap, 0)
    truncated = limit is not None and len(covers) > limit
    return covers[:limit], search.nodes - search_nodes, truncated


def cover_ladder(prepared, budget=None):
    """Minimum cover size for every feasible level k = 1..C as a list
    (index k-1): the minimum search of each level, each bounded by
    ``budget`` nodes, on one prepared table."""
    if not prepared.masks:
        return []
    return [
        minimum_search(prepared, k, budget)[0]
        for k in range(1, prepared.masks[0].bit_count() + 1)
    ]
