"""The multicover kernel on inputs the solver-level tests do not reach."""

import random
from itertools import combinations

import pytest

from adimlab import kernel, solver
from adimlab.bitset import bits_of
from adimlab.corpus import _classes
from adimlab.errors import AdimlabError, BudgetExhausted, KTooLarge, OutOfRange
from adimlab.graph import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    empty_graph,
    fig2_graph,
    from_pair_mask,
    join,
    path,
    petersen,
)
from adimlab.metric import build_table, dimensionality, forced_set
from adimlab.solver import brute_force_adim, enumerate_bases, solve_adim, solve_table

from conftest import random_graph


def test_budget_exhausted_raises():
    masks = build_table(path(10), 2).pair_masks
    with pytest.raises(BudgetExhausted):
        kernel.solve_min_multicover(kernel.prepare(masks, 10), 2, 2)


def test_greedy_cover_infeasible_raises_typed_error():
    # the second mask has 1 bit, so no vertex set hits it twice
    with pytest.raises(KTooLarge) as info:
        kernel.greedy_cover(kernel.prepare([0b011, 0b100], 3), 2, 0)
    assert isinstance(info.value, AdimlabError)


def test_prepare_refuses_a_mask_outside_the_universe():
    # a mask naming vertex n would grow the universe by a column, and a
    # negative one has no columns
    for masks in ([0b100], [0b011, 0b100], [-1]):
        with pytest.raises(OutOfRange):
            kernel.prepare(masks, 2)
    assert kernel.prepare([0b11], 2).cols == (1, 1)
    # every mask is checked, also one that reduction would drop for
    # holding a smaller one
    for masks in ([0b011, 0b1011], [0b001, -1], [0, 0b1000]):
        with pytest.raises(OutOfRange):
            kernel.prepare(masks, 3)


def _reduce(masks) -> list[int]:
    """Reference reduction, one kept mask at a time: the masks without
    duplicates and without any mask containing another, sorted by
    (popcount, value)."""
    kept: list[int] = []
    for m in sorted(sorted(set(masks)), key=int.bit_count):
        for a in kept:
            if a & m == a:
                break
        else:
            kept.append(m)
    return kept


def _columns(masks, n: int) -> list[int]:
    """Reference column layout, by transposing the masks' binary rows: bit
    p of entry v is set when vertex v lies in mask p."""
    if not masks:
        return [0] * n
    rows = [format(m, f"0{n}b") for m in reversed(masks)]
    return [int("".join(digits), 2) for digits in zip(*rows)][::-1]


def _mask_sets(rng, n):
    """Mask sets over n vertices: random ones of every density, with
    duplicates, a zero mask and nested chains mixed in."""
    out = [[], [0], [0, 0]]
    for _ in range(40):
        size = rng.randint(1, 60)
        masks = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(size)]
        masks += rng.sample(masks, len(masks) // 3)
        if rng.random() < 0.3:
            masks.append(0)
        chain = rng.getrandbits(n)
        for _ in range(rng.randint(0, 5)):
            masks.append(chain)
            chain |= rng.getrandbits(n)
        rng.shuffle(masks)
        out.append(masks)
    return out


@pytest.mark.parametrize("n", [0, 1, 6, 22, 40])
def test_prepare_matches_the_reference_reduction_and_columns(n):
    # at n = 40 the packed fields of many masks span several machine words
    rng = random.Random(3300 + n)
    for masks in _mask_sets(rng, n):
        prepared = kernel.prepare(masks, n)
        kept = _reduce(masks)
        assert prepared.masks == tuple(kept)
        if n:
            assert prepared.cols == tuple(_columns(kept, n))
        else:
            # one column per vertex; the reference's transpose gives a zero
            # mask over no vertices the one digit "0", so a column too
            assert prepared.cols == ()


def test_greedy_cover_breaks_ties_to_the_lowest_index():
    # every vertex hits one deficient mask at first: 0 is taken, then 2
    table = kernel.prepare([0b0011, 0b1100], 4)
    assert kernel.greedy_cover(table, 1) == 0b0101
    # the seed is kept and only the masks it leaves short are scored
    assert kernel.greedy_cover(table, 1, 0b1000) == 0b1001


def test_python_kernel_large_universe():
    # masks are plain ints, so n > 64 works through big ints
    masks = [(1 << 64) | (1 << 65), (1 << 65) | (1 << 66), (1 << 64) | (1 << 66)]
    size, witness, _, _ = kernel.solve_min_multicover(kernel.prepare(masks, 67), 1)
    assert size == 2
    assert all((witness & m).bit_count() >= 1 for m in masks)
    g = path(70)
    big = build_table(g, 2).pair_masks
    greedy = kernel.greedy_cover(kernel.prepare(big, 70), 1, 0)
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
        plain_table = kernel.prepare(masks, g.n)
        noisy_table = kernel.prepare(noisy, g.n)
        plain = kernel.solve_min_multicover(plain_table, k)
        extra = kernel.solve_min_multicover(noisy_table, k)
        assert plain[:2] == extra[:2]
        assert all((extra[1] & m).bit_count() >= k for m in noisy)
        for limit in (None, 2):
            listed = kernel.enumerate_min_covers(plain_table, k, limit)
            noisy_listed = kernel.enumerate_min_covers(noisy_table, k, limit)
            assert (listed[0], listed[2]) == (noisy_listed[0], noisy_listed[2])
        assert kernel.cover_ladder(plain_table) == kernel.cover_ladder(noisy_table)


def test_forced_masks_of_the_reduced_table_are_the_forced_set():
    # a mask of exactly k bits contains no smaller mask when k is feasible,
    # so the kernel's seed on the reduced masks is the table's forced set
    for g, table, _ in _tables(12, 80, range(2, 12)):
        for k in range(1, dimensionality(table) + 1):
            assert kernel.forced(table.prepared.masks, k) == forced_set(table, k).mask


@pytest.mark.parametrize("t", [2, 3])
def test_witness_is_the_brute_force_witness(t):
    # brute force tries subsets in lexicographic order within each size, so
    # its first hit is the lexicographically smallest minimum cover
    for g, table, k in _tables(300 + t, 40, range(2, 11), ts=(t,)):
        size, witness, _, _ = kernel.solve_min_multicover(
            kernel.prepare(table.pair_masks, g.n), k
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


def test_cover_ladder_matches_brute_force_and_repeated_solves():
    # every class with n <= 6 and its cone, at t = 2 and 3, against
    # brute force level by level
    for n in range(2, 7):
        for rep, _, h in _classes(n):
            assert h == from_pair_mask(n, rep)
            for g in (h, join(complete(1), h)):
                for t in (2, 3):
                    table = build_table(g, t)
                    slow = [
                        brute_force_adim(g, k, t=t).dimension
                        for k in range(1, dimensionality(table) + 1)
                    ]
                    prepared = kernel.prepare(table.pair_masks, g.n)
                    assert kernel.cover_ladder(prepared) == slow
                    assert solver.table_ladder(table) == slow
    # larger orders against one solve per level
    rng = random.Random(913)
    graphs = [random_graph(rng, n) for n in range(9, 14) for _ in range(2)]
    rng = random.Random(914)
    graphs += [random_graph(rng, n) for n in (7, 8) for _ in range(3)]
    for g in graphs:
        table = build_table(g, 2)
        solved = [
            solve_table(table, k).dimension
            for k in range(1, dimensionality(table) + 1)
        ]
        assert kernel.cover_ladder(kernel.prepare(table.pair_masks, g.n)) == solved
        assert solver.table_ladder(table) == solved


def test_cover_ladder_budget_bounds_each_level():
    table = build_table(random_graph(random.Random(1409), 14), 2)
    prepared = kernel.prepare(table.pair_masks, 14)
    nodes = [
        kernel.minimum_search(prepared, k)[2]
        for k in range(1, dimensionality(table) + 1)
    ]
    assert len(nodes) > 1
    ladder = kernel.cover_ladder(prepared)
    assert kernel.cover_ladder(prepared, max(nodes)) == ladder
    with pytest.raises(BudgetExhausted):
        kernel.cover_ladder(prepared, max(nodes) - 1)


# (graph, k): ((size, witness, nodes) of solve_min_multicover,
#              (count, last cover, nodes, truncated) of enumerate_min_covers
#              with limit 5, its nodes those of the lex pass alone), on the
#              level-2 table.  Node counts are deterministic: a change in
#              search effort fails here.
PINNED = {
    ("petersen", 1): ((3, (0, 2, 8), 12), (5, (0, 6, 7), 16, True)),
    ("petersen", 2): ((4, (0, 2, 8, 9), 36), (5, (2, 4, 5, 6), 77, False)),
    ("petersen", 3): ((7, (0, 1, 2, 3, 4, 5, 6), 112),
                      (5, (0, 1, 2, 3, 4, 6, 7), 8, True)),
    ("fig2", 1): ((9, (1, 5, 8, 10, 12, 13, 15, 20, 22), 4155),
                  (5, (1, 5, 8, 10, 12, 15, 16, 20, 22), 2808, True)),
    ("fig2", 2): ((14, (0, 1, 3, 5, 7, 9, 11, 12, 13, 15, 17, 19, 21, 23), 1269),
                  (5, (0, 1, 3, 5, 7, 9, 11, 13, 15, 17, 18, 19, 21, 23), 799,
                   True)),
    ("fig2", 3): ((20, (1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 13, 14, 15, 16, 17, 19,
                        20, 21, 22, 23), 5),
                  (1, (1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 13, 14, 15, 16, 17, 19,
                       20, 21, 22, 23), 4, False)),
    ("random14", 1): ((4, (0, 1, 2, 4), 38), (5, (0, 1, 4, 10), 16, True)),
    ("random14", 2): ((6, (0, 1, 2, 3, 4, 5), 106),
                      (5, (0, 1, 2, 4, 6, 11), 22, True)),
    ("random14", 3): ((8, (0, 1, 2, 3, 4, 5, 6, 8), 55),
                      (5, (0, 1, 2, 4, 5, 6, 9, 11), 39, True)),
    ("random16", 1): ((4, (1, 2, 4, 9), 77), (5, (2, 4, 5, 7), 87, True)),
    ("random16", 2): ((6, (0, 2, 4, 5, 9, 11), 213),
                      (2, (2, 4, 5, 9, 11, 13), 420, False)),
    ("random16", 3): ((9, (0, 1, 2, 3, 4, 5, 6, 7, 9), 168),
                      (5, (0, 1, 2, 4, 5, 6, 7, 9, 12), 59, True)),
    ("random18", 1): ((5, (0, 1, 2, 3, 5), 218), (5, (0, 1, 2, 5, 9), 20, True)),
    ("random18", 2): ((7, (0, 1, 2, 3, 4, 9, 13), 541),
                      (5, (0, 1, 2, 4, 5, 6, 14), 104, True)),
    ("random18", 3): ((9, (0, 1, 2, 3, 4, 5, 6, 10, 14), 236),
                      (5, (2, 5, 6, 8, 10, 13, 14, 15, 17), 822, True)),
    ("random20", 1): ((5, (0, 1, 2, 3, 8), 343), (5, (0, 1, 2, 3, 19), 18, True)),
    ("random20", 2): ((7, (0, 1, 2, 3, 7, 10, 18), 1749),
                      (5, (0, 1, 2, 8, 12, 14, 17), 489, True)),
    ("random20", 3): ((9, (0, 1, 2, 3, 5, 6, 8, 13, 14), 3001),
                      (5, (0, 1, 3, 5, 6, 13, 14, 15, 19), 2788, True)),
}


@pytest.fixture(scope="module")
def pinned_graphs():
    rng = random.Random(1408)
    graphs = {"petersen": petersen(), "fig2": fig2_graph()}
    for n in (14, 16, 18, 20):
        graphs[f"random{n}"] = random_graph(rng, n)
    return graphs


@pytest.mark.parametrize("name,k", sorted(PINNED))
def test_search_answers_and_node_counts_are_pinned(pinned_graphs, name, k):
    g = pinned_graphs[name]
    masks = build_table(g, 2).pair_masks
    prepared = kernel.prepare(masks, g.n)
    (size, witness, nodes), (count, last, enum_nodes, truncated) = PINNED[name, k]
    solved = kernel.solve_min_multicover(prepared, k)
    assert (solved[0], tuple(bits_of(solved[1])), solved[2]) == (size, witness, nodes)
    covers, found, more = kernel.enumerate_min_covers(prepared, k, 5)
    assert covers[0] == solved[1]
    assert (len(covers), tuple(bits_of(covers[-1])), found, more) == (
        count, last, enum_nodes, truncated
    )
    # the search exhausts at node budget + 1, so its own count just suffices,
    # on a cold table as on one holding the minimum search; an enumeration's
    # budget bounds that search and its lex pass together
    enum_budget = solved[3][1] + enum_nodes
    for table in (prepared, kernel.prepare(masks, g.n)):
        assert kernel.solve_min_multicover(table, k, nodes)[:3] == solved[:3]
        with pytest.raises(BudgetExhausted):
            kernel.solve_min_multicover(table, k, nodes - 1)
    for table in (prepared, kernel.prepare(masks, g.n)):
        assert kernel.enumerate_min_covers(table, k, 5, enum_budget) == (
            covers, found, more
        )
        with pytest.raises(BudgetExhausted):
            kernel.enumerate_min_covers(table, k, 5, enum_budget - 1)


def test_twin_prefix_keeps_every_answer_on_small_classes():
    # a table's own prepared form forces its graph's twin prefix; the raw
    # masks carry none, so they search as the kernel did before the prefix
    fast_nodes = slow_nodes = 0
    for n in range(2, 8):
        for _, _, h in _classes(n):
            for g in (h, join(complete(1), h)):
                for t in (2, 3):
                    table = build_table(g, t)
                    raw = kernel.prepare(table.pair_masks, g.n)
                    assert table.prepared[:2] == raw[:2]
                    for k in range(1, dimensionality(table) + 1):
                        fast = kernel.solve_min_multicover(table.prepared, k)
                        slow = kernel.solve_min_multicover(raw, k)
                        assert fast[:2] == slow[:2], (g, t, k)
                        # each lex pass starts from its own search's cover,
                        # so only the lists must agree, not the node counts
                        listed = kernel.enumerate_min_covers(table.prepared, k)
                        raw_listed = kernel.enumerate_min_covers(raw, k)
                        assert listed[::2] == raw_listed[::2]
                        if table.prepared.prefix & ~kernel.forced(raw.masks, k):
                            # the greedy incumbent grown from the prefix can
                            # be larger, so only the sum must not grow
                            fast_nodes += fast[2]
                            slow_nodes += slow[2]
                        else:
                            # the same search; a probe of the witness pass
                            # that left the prefix available would cost more
                            assert fast[3] == slow[3]
                            assert fast[2] <= slow[2], (g, t, k)
    assert 2 * fast_nodes < slow_nodes


def _lexicographic(g, h):
    """G∘H: (a, b) ~ (c, d) when a ~ c, or a = c and b ~ d; vertex a·|H| + b."""
    block = (1 << h.n) - 1
    rows = []
    for a in range(g.n):
        around = sum(block << c * h.n for c in bits_of(g.rows[a]))
        rows += [around | r << a * h.n for r in h.rows]
    return Graph(g.n * h.n, rows)


def _corona(g, h):
    """G⊙H: G on 0..|G|-1, then copy a of H on |G| + a·|H| onwards, each of
    its vertices joined to vertex a."""
    base = g.n
    rows = [r | ((1 << h.n) - 1) << base + a * h.n for a, r in enumerate(g.rows)]
    for a in range(g.n):
        rows += [r << base + a * h.n | 1 << a for r in h.rows]
    return Graph(g.n * (h.n + 1), rows)


@pytest.mark.parametrize("name, graph, size, nodes", [
    ("C7∘K4", lambda: _lexicographic(cycle(7), complete(4)), 21, (21837, 1)),
    ("C10⊙K2", lambda: _corona(cycle(10), complete(2)), 14, (8210, 6)),
])
def test_twin_prefix_on_product_graphs(name, graph, size, nodes):
    # the greedy incumbent is optimal in both; without the prefix the search
    # proves it again over every choice of twin
    table = build_table(graph(), 2)
    raw = kernel.prepare(table.pair_masks, table.n)
    slow = kernel.solve_min_multicover(raw, 1)
    fast = kernel.solve_min_multicover(table.prepared, 1)
    assert (slow[0], slow[2]) == (size, nodes[0])
    assert (fast[0], fast[2]) == (size, nodes[1])
    assert fast[1] == slow[1]
    assert fast[1] & table.prepared.prefix == table.prepared.prefix


def test_twin_prefix_brings_petersen_corona_within_budget():
    g = _corona(petersen(), path(3))
    table = build_table(g, 2)
    assert g.n == 40
    size, _, nodes, _ = kernel.solve_min_multicover(table.prepared, 1, 20_000)
    assert (size, nodes) == (19, 14169)
    with pytest.raises(BudgetExhausted):
        kernel.solve_min_multicover(kernel.prepare(table.pair_masks, g.n), 1, 20_000)


@pytest.mark.parametrize("graph", [
    _lexicographic(cycle(4), complete(3)),
    complete_bipartite(3, 4),
    join(complete(4), empty_graph(5)),
])
def test_twin_heavy_graphs_match_brute_force(graph):
    for k in (1, 2):
        slow = brute_force_adim(graph, k)
        fast = solve_adim(graph, k)
        assert (fast.dimension, fast.witness) == (slow.dimension, slow.witness)


def test_a_stored_minimum_search_gives_the_answers_of_a_full_solve():
    # the lex pass from minimum_search's stored record answers as a solve
    # from scratch does, node counts and budget outcomes included, and
    # runs no search again
    rng = random.Random(2302)
    for _ in range(120):
        g = random_graph(rng, rng.randint(2, 14))
        table = build_table(g, rng.choice((2, 3)))
        k = rng.randint(1, table.min_pair_size())
        cold = kernel.solve_min_multicover(
            kernel.prepare(table.pair_masks, g.n, table.prepared.prefix), k
        )
        prepared = kernel.prepare(table.pair_masks, g.n, table.prepared.prefix)
        found = kernel.minimum_search(prepared, k)
        assert prepared.searches == {k: found}
        assert (found[0], found[2], found[3]) == (cold[0], cold[3][1], cold[3][0])
        assert kernel.minimum_search(prepared, k) is found
        assert kernel.solve_min_multicover(prepared, k) == cold
        nodes, search_nodes = cold[2], cold[3][1]
        assert kernel.solve_min_multicover(prepared, k, nodes) == cold
        for budget in {nodes - 1, search_nodes - 1}:
            with pytest.raises(BudgetExhausted):
                kernel.solve_min_multicover(prepared, k, budget)
        with pytest.raises(BudgetExhausted):
            kernel.minimum_search(prepared, k, search_nodes - 1)
        assert prepared.searches == {k: found} and prepared.searches[k] is found
