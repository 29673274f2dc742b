"""Exact minimum set multicover over bitmasks: the search kernel.

Given the pair masks of a distinguish table, a k-generator is a vertex set
hitting every mask at least k times (k >= 1); the solver below finds a
minimum one.  Masks are plain ints, so any universe size is accepted.

A table is first reduced: duplicate masks go, and so does every mask that
contains another one (a set hitting A k times hits every superset of A k
times, so the valid covers are unchanged); the rest are sorted by
(popcount, value).  Reduction is one pass in that order: the masks kept so
far sit in (n+1)-bit fields of one packed int, and a candidate m is tested
against all of them with a few big-int operations (a kept mask lies inside
m exactly when its field of ``packed & ~m`` is zero, and adding 2^n - 1 to
every field leaves only such a field's top guard bit clear).  The search
then runs on columns: one int per vertex, bit p set when the vertex lies in
mask p, read off the packed int with one ``format`` and a strided slice
per vertex.  The residual is k bit-planes, plane j holding the masks still
short of j + 1 hits, so a pick updates it with a few ANDs and ORs, and
coverage counts over a vertex set come from a ripple of ANDs and ORs over
its columns: masks with too few available vertices end a branch, masks
with exactly as many force them all, and a mask with one to spare is the
one branched on.  The lower bound on further
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

Three shortcuts make a node cheaper without changing any decision, so the
tree, its node count and its answers stay those of the plain tests.  When
one plane is non-empty it is the short plane itself, so the infeasible and
tight masks come straight from the first two ripple terms.  The forced
vertices, the available ones whose columns meet a tight mask, are the OR
of the tight masks ANDed with the available set.  And the coverage bound,
count + ceil(total / top) >= incumbent, is the same test as total > room *
top with room = incumbent - count - 1; any one hit's coverage is at most
top, so when the last hit's coverage already admits the total, top does
too, and the largest coverage is looked for only when that test fails.

A solve has two phases.  The minimum search, a branch and bound from the
greedy incumbent, finds the minimum size and one cover of that size
(``minimum_search``).  The lex pass then walks the vertices in index order
to list the minimum covers lexicographically, asking the same branch and
bound, bounded by that size, whether a cover agrees with each new decision.

The lex pass needs only the table, k, the size and a cover of that size,
so it can run beside the proof that the size is minimal.  A minimum search
that a solve or a basis list starts offers its incumbent to the
``witness`` helper process once it has entered ``HANDOFF_NODES`` nodes,
and again at each later improvement (the helper takes an offer only when
idle).  When the search ends, the helper's covers are taken if it started
from the final size and cover; otherwise the pass runs here.  The helper
runs ``lex_pass`` too, so the covers, node counts and budget outcomes are
those of the pass run here.  The hand-off costs a node nothing: a node
compares its count with one ``stop``, the budget or the hand-off node,
whichever comes first.

The kernel owns the minimum search's record: a ``Prepared`` table keeps one
per k in ``searches``, so the records live exactly as long as the table.
``minimum_search`` returns the stored record when there is one, charged its
nodes, so a budget has the outcome it would have on a cold table.  The lex
pass of ``solve_min_multicover`` (which keeps the first cover) and of
``enumerate_min_covers`` (which lists them all) starts from that record and
counts its nodes against the budget too; a record already stored hands
nothing over, so its pass runs here.  ``cover_ladder`` is the one
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
    mask outside 0..2^n - 1 raises ``OutOfRange``.  Kept mask i sits in
    bits i(n+1) .. i(n+1) + n - 1 of one packed int, bit i(n+1) + n its
    guard bit."""
    masks = set(masks)
    if masks and (min(masks) < 0 or max(masks) >> n):
        raise OutOfRange(f"a mask lies outside the {n} vertices 0..{n - 1}")
    width = n + 1
    full = (1 << n) - 1
    kept = []
    packed = 0  # the kept masks, one per field
    ones = 0  # bit 0 of each kept mask's field
    fulls = 0  # full in each kept mask's field
    guards = 0  # bit n, the guard bit, of each kept mask's field
    for m in sorted(sorted(masks), key=int.bit_count):
        # m * ones repeats m in every field, so a kept mask lies inside m
        # exactly when its field of packed & ~(m * ones) is 0; adding full
        # leaves that field's guard bit clear and sets every other one,
        # without a carry into the next field.  A kept mask inside m has
        # fewer bits, so it is already packed
        if (packed & ~(m * ones)) + fulls & guards == guards:
            shift = len(kept) * width
            kept.append(m)
            packed |= m << shift
            ones |= 1 << shift
            fulls |= full << shift
            guards |= 1 << shift + n
    if not kept:
        return Prepared((), (0,) * n, prefix, {})
    # digit n - v of each field's n + 1 digits is vertex v, and the last
    # mask's field comes first, so that it becomes the column's top bit
    digits = format(packed, f"0{len(kept) * width}b")
    cols = tuple(int(digits[n - v::width], 2) for v in range(n))
    return Prepared(tuple(kept), cols, prefix, {})


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


# a minimum search whose lex pass may run in the ``witness`` helper offers
# its incumbent there once it has entered this many nodes
HANDOFF_NODES = 64
# the node count no search reaches: the stop of a search without a budget
_NEVER = 1 << 62


class _Search:
    """One search over a ``Prepared`` table.  ``best_size``/``best_mask``
    hold the smallest cover found so far; the branch and bound stops as soon
    as it holds one of at most ``floor`` vertices, and every node it enters
    counts against ``budget``.

    A node compares its count with ``stop`` alone: the budget, or the
    hand-off node while that comes first.  ``handoff``, when given, is the
    (limit, prefix) of the lex pass that will follow the minimum search:
    from the hand-off node on (``offering``), the incumbent is offered to
    the ``witness`` helper then and at every improvement, and ``job`` is
    (ticket, size, cover) of the last offer the helper took."""

    __slots__ = ("masks", "cols", "k", "n", "budget", "nodes", "best_size",
                 "best_mask", "floor", "stop", "handoff", "offering", "job")

    def __init__(self, prepared, k, budget, handoff=None):
        self.masks, self.cols = prepared.masks, prepared.cols
        self.k = k
        self.n = len(self.cols)
        self.budget = budget
        self.nodes = 0
        self.floor = 0
        self.stop = _NEVER if budget is None else budget
        if handoff is not None:
            self.stop = min(self.stop, HANDOFF_NODES - 1)
        self.handoff = handoff
        self.offering = False
        self.job = None

    def passed(self):
        """Called when ``nodes`` passes ``stop``: raise past the budget,
        start offering at the hand-off node, and return the next stop."""
        budget = self.budget
        if budget is not None and self.nodes > budget:
            raise BudgetExhausted(f"node budget {budget} exhausted")
        if self.handoff is not None and not self.offering:
            self.offering = True
            self.offer()
        self.stop = _NEVER if budget is None else budget
        return self.stop

    def offer(self):
        """Offer the incumbent's lex pass to the ``witness`` helper, with
        what is left of the budget; it takes it when idle."""
        # imported here, so a process whose searches all stay below the
        # hand-off node never loads it
        from . import witness

        limit, prefix = self.handoff
        left = None if self.budget is None else self.budget - self.nodes
        ticket = witness.offer(
            (self.masks, self.cols, self.k, self.best_size, self.best_mask,
             limit, prefix, left)
        )
        if ticket is not None:
            self.job = ticket, self.best_size, self.best_mask

    def branch_bound(self, chosen, count, avail, planes):
        """Dynamic-order search for any minimum cover extending ``chosen``.
        Each pass of the outer loop is one node; its exclude branch is the
        next pass, not a call."""
        masks, cols = self.masks, self.cols
        k = self.k
        stop = self.stop
        hits = None
        while self.best_size > self.floor:
            self.nodes += 1
            if self.nodes > stop:
                stop = self.passed()
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
                    if self.offering:
                        self.offer()
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
                    # the one plane is short itself: the loop below, unrolled
                    if short & ~r0:
                        return
                    tight = short & ~r1
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
                if deep > 1:
                    tight = 0
                    for i in range(1, deep + 1):
                        need = planes[k - i]
                        if need & ~reach[i - 1]:
                            return
                        tight |= need & ~reach[i]
                if not tight:
                    break
                # every available vertex of a tight mask is forced
                must = 0
                while tight:
                    low = tight & -tight
                    tight ^= low
                    must |= masks[low.bit_length() - 1]
                must &= avail
                for v in bits_of(must):
                    planes = _pick(planes, cols[v])
                count += must.bit_count()
                chosen |= must
                avail &= ~must
                hits = None
            # count + deep < best_size holds here, so of the lower bound
            # max(ceil(total residual / best coverage), deep) only the first
            # part is left to test: count + ceil(total / top) >= best_size
            # exactly when total > room * top.  The last hit's coverage is
            # at most top, so when it already admits total, top does too
            room = self.best_size - count - 1
            total = sum(map(int.bit_count, planes))
            if total > room * hits[-1].bit_count() and total > room * max(
                map(int.bit_count, hits)
            ):
                return
            if deep == 1:
                slack1 = short & ~r2
            else:
                slack1 = 0
                for i in range(1, deep + 1):
                    slack1 |= planes[k - i] & ~reach[i + 1]
            first = slack1 or short
            branch = masks[(first & -first).bit_length() - 1]
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
    return _minimum(prepared, k, budget)[0]


def _minimum(prepared, k, budget, handoff=None):
    """``minimum_search``'s record and the job its search handed to the
    ``witness`` helper, or None: a stored record hands none over, and a
    search does only when ``handoff``, its lex pass, is given."""
    found = prepared.searches.get(k)
    if found is not None:
        if budget is not None and found[2] > budget:
            raise BudgetExhausted(f"node budget {budget} exhausted")
        return found, None
    search = _Search(prepared, k, budget, handoff)
    seed = forced(search.masks, k) | prepared.prefix
    planes = _planes(search.cols, k, len(search.masks), seed)
    incumbent = greedy_cover(prepared, k, seed, planes)
    greedy_size = search.best_size = incumbent.bit_count()
    search.best_mask = incumbent
    full = (1 << search.n) - 1
    search.branch_bound(seed, seed.bit_count(), full & ~seed, planes)
    found = search.best_size, search.best_mask, search.nodes, greedy_size
    prepared.searches[k] = found
    return found, search.job


def lex_pass(prepared, k, size, cover, limit, prefix, nodes=0, budget=None):
    """``_Search.lex_covers`` from ``cover``, a cover of the minimum size
    ``size``: (covers, nodes), ``nodes`` counting on from the one given,
    which ``budget`` bounds.  The ``witness`` helper runs it too."""
    search = _Search(prepared, k, budget)
    search.best_size, search.best_mask, search.nodes = size, cover, nodes
    return search.lex_covers(size, limit, prefix), search.nodes


def _lex_covers(prepared, k, budget, limit, prefix):
    """The minimum search's record, then its lex pass: (covers, nodes,
    record), ``nodes`` counting both phases, which ``budget`` bounds
    together.  The search offers its lex pass to the ``witness`` helper,
    and the helper's covers are taken when it started from the record's
    size and cover; otherwise the pass runs here.  Either way the covers,
    the nodes and the budget outcome are those of the pass run here."""
    found, job = _minimum(prepared, k, budget, (limit, prefix))
    size, cover, search_nodes, _ = found
    if job is not None and job[1:] == (size, cover):
        from . import witness

        done = witness.collect(job[0])
        if done is not None:
            covers, nodes = done
            nodes += search_nodes
            if budget is not None and nodes > budget:
                raise BudgetExhausted(f"node budget {budget} exhausted")
            return covers, nodes, found
    covers, nodes = lex_pass(prepared, k, size, cover, limit, prefix, search_nodes, budget)
    return covers, nodes, found


def solve_min_multicover(prepared, k, budget=None):
    """Exact minimum multicover.

    Returns (size, witness_mask, nodes, (greedy_size, search_nodes)) where
    witness is the lexicographically smallest minimum cover, greedy_size
    the size of the greedy incumbent the search started from and
    search_nodes the part of ``nodes`` spent finding the minimum size; the
    lex pass spent the rest.  Assumes feasibility (every mask has >= k
    bits).
    """
    witnesses, nodes, found = _lex_covers(prepared, k, budget, 1, prepared.prefix)
    size, _, search_nodes, greedy_size = found
    return size, witnesses[0], nodes, (greedy_size, search_nodes)


def enumerate_min_covers(prepared, k, limit=None, budget=None):
    """All minimum covers in lexicographic order.

    Returns (covers, nodes, truncated), ``nodes`` counting the nodes of the
    lex pass alone (``budget`` bounds it and the minimum search together);
    with a ``limit``, at most that many covers are returned and
    ``truncated`` reports whether more exist.
    """
    cap = 1 << 62 if limit is None else limit + 1
    covers, nodes, found = _lex_covers(prepared, k, budget, cap, 0)
    truncated = limit is not None and len(covers) > limit
    return covers[:limit], nodes - found[2], truncated


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
