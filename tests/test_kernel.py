"""The multicover kernel on inputs the solver-level tests do not reach."""

import random
from itertools import combinations

import pytest

from adimlab import kernel
from adimlab.errors import AdimlabError, BudgetExhausted, KTooLarge
from adimlab.graph import path
from adimlab.metric import build_table, dimensionality, forced_set
from adimlab.solver import brute_force_adim, enumerate_bases, solve_table

from conftest import random_graph


def test_budget_exhausted_raises():
    masks = build_table(path(10), 2).pair_masks
    with pytest.raises(BudgetExhausted):
        kernel.solve_min_multicover(masks, 2, 10, 0, 2)


def test_greedy_cover_infeasible_raises_typed_error():
    # the second mask has 1 bit, so no vertex set hits it twice
    with pytest.raises(KTooLarge) as info:
        kernel.greedy_cover([0b011, 0b100], 2, 3, 0)
    assert isinstance(info.value, AdimlabError)


def test_greedy_cover_breaks_ties_to_the_lowest_index():
    # every vertex hits one deficient mask at first: 0 is taken, then 2
    assert kernel.greedy_cover([0b0011, 0b1100], 1, 4) == 0b0101
    # the seed is kept and only the masks it leaves short are scored
    assert kernel.greedy_cover([0b0011, 0b1100], 1, 4, 0b1000) == 0b1001


def test_python_kernel_large_universe():
    # masks are plain ints, so n > 64 works through big ints
    masks = [(1 << 64) | (1 << 65), (1 << 65) | (1 << 66), (1 << 64) | (1 << 66)]
    size, witness, _, _ = kernel.solve_min_multicover(masks, 1, 67, 0, None)
    assert size == 2
    assert all((witness & m).bit_count() >= 1 for m in masks)
    g = path(70)
    big = build_table(g, 2).pair_masks
    greedy = kernel.greedy_cover(big, 1, 70, 0)
    assert all((greedy & m).bit_count() >= 1 for m in big)


def _tables(seed, count, ns, ts=(2, 3)):
    """(graph, table, k) triples on random graphs, k a random feasible level
    (every pair set holds its own two vertices, so k = 1 and 2 always are)."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        g = random_graph(rng, rng.choice(ns))
        table = build_table(g, rng.choice(ts))
        out.append((g, table, rng.randint(1, dimensionality(table))))
    return out


def test_reduction_leaves_every_answer_unchanged():
    # duplicates and supersets of a table's masks admit the same k-fold
    # covers, so the search must give the same size, witness and bases
    rng = random.Random(2024)
    for g, table, k in _tables(11, 60, range(3, 10)):
        masks = list(table.pair_masks)
        noisy = masks + rng.sample(masks, len(masks) // 2)
        noisy += [m | rng.getrandbits(g.n) for m in rng.sample(masks, len(masks) // 2)]
        rng.shuffle(noisy)
        for forced in (0, forced_set(table, k).mask):
            plain = kernel.solve_min_multicover(masks, k, g.n, forced)
            extra = kernel.solve_min_multicover(noisy, k, g.n, forced)
            assert plain[:2] == extra[:2]
            for limit in (None, 2):
                plain = kernel.enumerate_min_covers(masks, k, g.n, forced, limit)
                extra = kernel.enumerate_min_covers(noisy, k, g.n, forced, limit)
                assert (plain[0], plain[2]) == (extra[0], extra[2])
        assert kernel.cover_ladder(masks, g.n) == kernel.cover_ladder(noisy, g.n)


@pytest.mark.parametrize("t", [2, 3])
def test_witness_is_the_brute_force_witness(t):
    # brute force tries subsets in lexicographic order within each size, so
    # its first hit is the lexicographically smallest minimum cover
    for g, table, k in _tables(300 + t, 40, range(2, 11), ts=(t,)):
        size, witness, _, _ = kernel.solve_min_multicover(
            table.pair_masks, k, g.n, forced_set(table, k).mask
        )
        slow = brute_force_adim(g, k, t=t)
        assert (size, witness) == (slow.dimension, slow.witness.mask)


def test_enumerate_bases_matches_brute_force_at_level_3():
    for g, table, k in _tables(33, 40, range(3, 9), ts=(3,)):
        bases = [b.mask for b in enumerate_bases(g, k, t=3)]
        size = bases[0].bit_count()
        expected = [
            sum(1 << v for v in c)
            for c in combinations(range(g.n), size)
            if all(sum((m >> v) & 1 for v in c) >= k for m in table.pair_masks)
        ]
        assert bases == expected


def test_cover_ladder_matches_repeated_solves_across_the_scan_threshold():
    # solver._ladder scans subsets up to _LADDER_SCAN_MAX_N and solves each k
    # above it; both sides must agree on the orders around the threshold
    rng = random.Random(913)
    for n in range(9, 14):
        for _ in range(2):
            table = build_table(random_graph(rng, n), 2)
            solved = [
                solve_table(table, k).dimension
                for k in range(1, dimensionality(table) + 1)
            ]
            assert kernel.cover_ladder(table.pair_masks, n) == solved
