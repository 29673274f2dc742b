"""Exact minimum set multicover over bitmasks: the search kernel.

Given the pair masks of a distinguish table, a k-generator is a vertex set
hitting every mask at least k times; the solver below finds a minimum one.
Masks are plain ints, so any universe size is accepted.
"""

from __future__ import annotations

from itertools import combinations

from .bitset import bits_of
from .errors import BudgetExhausted, KTooLarge


def implementation_name() -> str:
    """Name of the kernel that produces every result, recorded in reports."""
    return "python"


def greedy_cover(masks, k: int, n: int, seed: int = 0) -> int:
    """Valid (not necessarily minimum) cover grown from ``seed`` by always
    adding the vertex hitting the most deficient masks, ties to low index."""
    chosen = seed
    residual = [max(0, k - (chosen & m).bit_count()) for m in masks]
    while True:
        scores = [0] * n
        deficient = False
        for m, r in zip(masks, residual):
            if r > 0:
                deficient = True
                for v in bits_of(m & ~chosen):
                    scores[v] += 1
        if not deficient:
            return chosen
        v = max(range(n), key=lambda i: (scores[i], -i))
        if scores[v] == 0:
            raise KTooLarge("infeasible cover instance: some mask has < k bits")
        chosen |= 1 << v
        for p, m in enumerate(masks):
            if residual[p] > 0 and (m >> v) & 1:
                residual[p] -= 1


class _Search:
    __slots__ = ("masks", "k", "n", "budget", "nodes", "best_size", "best_mask")

    def __init__(self, masks, k, n, budget):
        self.masks = masks
        self.k = k
        self.n = n
        self.budget = budget
        self.nodes = 0

    def _tick(self):
        self.nodes += 1
        if self.budget is not None and self.nodes > self.budget:
            raise BudgetExhausted(f"node budget {self.budget} exhausted")

    def _packing_bound(self, residual, avail):
        """Lower bound on extra picks: residuals of masks with pairwise
        disjoint available parts add up."""
        lb = 0
        used = 0
        for m, r in zip(self.masks, residual):
            if r > 0:
                am = m & avail
                if am & used == 0:
                    lb += r
                    used |= am
        return lb

    def branch_bound(self, chosen, count, avail, residual):
        """Dynamic-order search for any minimum cover extending ``chosen``."""
        self._tick()
        masks = self.masks
        while True:
            if count >= self.best_size:
                return
            must = 0
            worst_slack = None
            branch_pair = -1
            covered = True
            for p, r in enumerate(residual):
                if r > 0:
                    covered = False
                    cov = (masks[p] & avail).bit_count()
                    if cov < r:
                        return
                    if cov == r:
                        must |= masks[p] & avail
                    elif worst_slack is None or cov - r < worst_slack:
                        worst_slack = cov - r
                        branch_pair = p
            if covered:
                self.best_size = count
                self.best_mask = chosen
                return
            if must:
                add = must.bit_count()
                if count + add >= self.best_size:
                    return
                chosen |= must
                avail &= ~must
                count += add
                residual = [
                    max(0, r - (masks[p] & must).bit_count()) if r > 0 else 0
                    for p, r in enumerate(residual)
                ]
                continue
            break
        if count + self._packing_bound(residual, avail) >= self.best_size:
            return
        candidates = masks[branch_pair] & avail
        scores = [0] * self.n
        for p, r in enumerate(residual):
            if r > 0:
                for v in bits_of(masks[p] & candidates):
                    scores[v] += 1
        v = max(bits_of(candidates), key=lambda i: (scores[i], -i))
        bit = 1 << v
        new_res = [
            r - 1 if r > 0 and (masks[p] >> v) & 1 else r
            for p, r in enumerate(residual)
        ]
        self.branch_bound(chosen | bit, count + 1, avail & ~bit, new_res)
        self.branch_bound(chosen, count, avail & ~bit, residual)

    def lex_covers(self, size, forced, limit):
        """Covers of exactly ``size`` vertices in ascending lexicographic
        order of their sorted member tuples, at most ``limit`` of them.
        ``size`` must be the minimum cover size; ``forced`` vertices are
        taken in every cover."""
        out = []
        masks = self.masks
        n = self.n

        def rec(v, chosen, count, residual):
            self._tick()
            if count > size or count + (n - v) < size:
                return False
            avail = -1 << v
            worst = 0
            for p, r in enumerate(residual):
                if r > 0:
                    cov = (masks[p] & avail).bit_count()
                    if cov < r:
                        return False
                    if r > worst:
                        worst = r
            if count + self._packing_bound(residual, avail) > size:
                return False
            if worst == 0 and count == size:
                out.append(chosen)
                return len(out) >= limit
            if v == n:
                return False
            bit = 1 << v
            new_res = [
                r - 1 if r > 0 and (masks[p] >> v) & 1 else r
                for p, r in enumerate(residual)
            ]
            if rec(v + 1, chosen | bit, count + 1, new_res):
                return True
            if (forced >> v) & 1:
                return False
            return rec(v + 1, chosen, count, residual)

        rec(0, 0, 0, [self.k] * len(masks))
        return out


def _minimum(masks, k, n, forced, budget):
    """A search whose ``best_size`` is the minimum cover size: the greedy
    incumbent, then branch and bound.  Returns (search, greedy_size)."""
    search = _Search(masks, k, n, budget)
    incumbent = greedy_cover(masks, k, n, forced)
    search.best_size = incumbent.bit_count()
    search.best_mask = incumbent
    residual = [max(0, k - (forced & m).bit_count()) for m in masks]
    full = (1 << n) - 1
    search.branch_bound(forced, forced.bit_count(), full & ~forced, residual)
    return search, incumbent.bit_count()


def solve_min_multicover(masks, k, n, forced=0, budget=None):
    """Exact minimum multicover.

    Returns (size, witness_mask, nodes, greedy_size) where witness is the
    lexicographically smallest minimum cover and greedy_size the size of the
    greedy incumbent the search started from.  Assumes feasibility (every
    mask has >= k bits); ``forced`` must be a subset of every valid cover.
    """
    if not masks:
        return 0, 0, 0, 0
    search, greedy_size = _minimum(masks, k, n, forced, budget)
    witnesses = search.lex_covers(search.best_size, forced, 1)
    return search.best_size, witnesses[0], search.nodes, greedy_size


def enumerate_min_covers(masks, k, n, forced=0, limit=None, budget=None):
    """All minimum covers in lexicographic order, found in one search: the
    minimum size first, then the lex pass over covers of that size.

    Returns (covers, nodes, truncated); with a ``limit``, at most that many
    covers are returned and ``truncated`` reports whether more exist.
    """
    if not masks:
        return [0], 0, False
    search, _ = _minimum(masks, k, n, forced, budget)
    cap = 1 << 62 if limit is None else limit + 1
    covers = search.lex_covers(search.best_size, forced, cap)
    truncated = limit is not None and len(covers) > limit
    return covers[:limit], search.nodes, truncated


def cover_ladder(masks, n):
    """Minimum cover size for every feasible level k = 1..C as a list
    (index k-1), computed by scanning subsets in increasing size."""
    if not masks:
        return []
    top = min(m.bit_count() for m in masks)
    best = [0] * (top + 1)
    unfilled = top
    vbits = [1 << v for v in range(n)]
    for s in range(1, n + 1):
        for combo in combinations(vbits, s):
            smask = 0
            for b in combo:
                smask |= b
            lvl = top
            for m in masks:
                c = (smask & m).bit_count()
                if c < lvl:
                    lvl = c
                    if lvl == 0:
                        break
            while lvl >= 1 and best[lvl] == 0:
                best[lvl] = s
                unfilled -= 1
                lvl -= 1
            if unfilled == 0:
                return best[1:]
    return best[1:]
