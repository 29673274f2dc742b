import random
import re

import pytest

from adimlab.bitset import VertexSet
from adimlab.corpus import enumerate_all_graphs
from adimlab.errors import (
    BadParameter,
    BasisCountExceeded,
    BudgetExhausted,
    CapExceeded,
    Disconnected,
    KExceedsDimensionality,
    OutOfRange,
    TooSmall,
)
from adimlab.graph import (
    complement,
    complete,
    cycle,
    diameter,
    disjoint_union,
    fig1_graph,
    fig2_graph,
    fig4_graph,
    fig5_graph,
    is_connected,
    join,
    path,
    petersen,
)
from adimlab import kernel, solver
from adimlab.metric import (
    DistinguishTable,
    adjacency_dimensionality,
    build_table,
    dimensionality,
    forced_set,
    metric_table,
)
from adimlab.solver import (
    adim_ladder,
    brute_force_adim,
    dim_ladder,
    enumerate_bases,
    greedy_bound,
    is_k_generator,
    minimum_size,
    solve_adim,
    solve_dim,
    solve_table,
)

from conftest import random_graph


def test_is_k_generator_fixtures():
    t4 = build_table(fig4_graph(), 2)
    assert is_k_generator(t4, 3, VertexSet.from_iterable(9, [0, 1, 2, 3, 4, 7, 8]))
    for g in (petersen(), path(5), fig4_graph()):
        t = build_table(g, 2)
        assert is_k_generator(t, 2, g.vertex_set())
    assert not is_k_generator(build_table(path(4), 2), 1, VertexSet(4, 1))


def _table_level_queries(g, t, k):
    """Every table-level query of g at truncation level t for level k."""
    table = build_table(g, t)
    return {
        "forced_set": lambda: forced_set(table, k),
        "solve_table": lambda: solve_table(table, k),
        "minimum_size": lambda: minimum_size(table, k),
        "greedy_bound": lambda: greedy_bound(table, k),
        "enumerate_bases": lambda: enumerate_bases(g, k, t=t),
        "brute_force_adim": lambda: brute_force_adim(g, k, t=t),
    }


@pytest.mark.parametrize(
    "g, t",
    [(path(5), 2), (petersen(), 2), (fig2_graph(), 2), (cycle(7), 3)],
    ids=["path5", "petersen", "fig2", "cycle7-t3"],
)
def test_every_table_query_refuses_a_level_with_one_message(g, t):
    dim = dimensionality(build_table(g, t))
    for k, message in (
        (0, "k must be >= 1, got 0"),
        (-1, "k must be >= 1, got -1"),
        (dim + 1, f"no {dim + 1}-generator exists: the dimensionality bound is {dim}"),
    ):
        for query in _table_level_queries(g, t, k).values():
            with pytest.raises(KExceedsDimensionality, match=f"^{re.escape(message)}$"):
                query()
    # the top level itself is served
    assert minimum_size(build_table(g, t), dim) >= dim


def test_every_table_query_refuses_a_level_that_is_not_an_integer():
    # 1.5 lies in 1..dimensionality, so only its type keeps it from the kernel
    for k in (1.5, 2.0):
        for query in _table_level_queries(cycle(6), 2, k).values():
            with pytest.raises(
                KExceedsDimensionality, match=f"^k must be an integer, got {k!r}$"
            ):
                query()


def test_every_table_query_refuses_one_vertex_with_one_message():
    g = complete(1)
    queries = _table_level_queries(g, 2, 1)
    queries["adim_ladder"] = lambda: adim_ladder(g)
    queries["dim_ladder"] = lambda: dim_ladder(g)
    for query in queries.values():
        with pytest.raises(TooSmall, match=r"^need at least 2 vertices, got 1$"):
            query()


def test_is_k_generator_refuses_a_set_over_another_universe():
    table = build_table(path(4), 2)
    for s in (VertexSet(10, 0b1111111111), VertexSet(3, 0b111)):
        with pytest.raises(OutOfRange):
            is_k_generator(table, 1, s)


def test_petersen_ladder():
    assert adim_ladder(petersen()) == [3, 4, 7, 8, 9, 10]
    assert adjacency_dimensionality(petersen()) == 6


def test_path4_k3():
    assert solve_adim(path(4), 3).dimension == 4


def test_fig2_ladders():
    g = fig2_graph()
    assert [solve_adim(g, k).dimension for k in (1, 2, 3)] == [9, 14, 20]
    assert [solve_dim(g, k).dimension for k in (1, 2, 3)] == [8, 12, 20]


def test_fig1_dim_ladder():
    for t in (1, 2, 4, 6):
        g = fig1_graph(t)
        assert [solve_dim(g, k).dimension for k in (1, 2, 3, 4)] == [2, 3, 4, 5]


def test_join_flat_graphs_dim_equals_adim():
    g = join(path(3), path(3))
    assert diameter(g) <= 2
    assert solve_dim(g, 1).dimension == solve_adim(g, 1).dimension


def test_witness_is_valid_and_contains_forced():
    rng = random.Random(31)
    for _ in range(80):
        g = random_graph(rng, rng.randint(2, 8))
        table = build_table(g, 2)
        top = adjacency_dimensionality(g)
        for k in range(1, top + 1):
            res = solve_adim(g, k)
            assert is_k_generator(table, k, res.witness)
            assert len(res.witness) == res.dimension
            assert not forced_set(table, k) - res.witness
            assert res.dimension >= k


def test_brute_force_examples():
    assert brute_force_adim(cycle(5), 2).dimension == 3
    assert brute_force_adim(cycle(6), 3).dimension == 5
    assert brute_force_adim(complete(4), 2).dimension == 4


def test_brute_force_cap():
    # above BRUTE_FORCE_MAX_N a size whose subsets pass the evaluation
    # limit is refused before any is tried
    with pytest.raises(
        CapExceeded,
        match=r"^C\(30,14\) subsets exceed the brute-force evaluation limit$",
    ):
        brute_force_adim(path(30), 14, t=30)


def test_oracle_equivalence_with_witnesses():
    # both searches emit the lexicographically smallest optimum
    rng = random.Random(4242)
    for _ in range(120):
        g = random_graph(rng, rng.randint(2, 8))
        top = adjacency_dimensionality(g)
        for k in range(1, top + 1):
            fast = solve_adim(g, k)
            slow = brute_force_adim(g, k)
            assert fast.dimension == slow.dimension
            assert fast.witness == slow.witness


def test_enumerate_bases_fixtures():
    only = enumerate_bases(fig5_graph(), 3)
    assert [b.to_list() for b in only] == [[1, 2, 4, 5, 6, 8]]
    assert len(enumerate_bases(fig4_graph(), 3)) == 6
    cone = join(complete(1), fig5_graph())
    cone_bases = [b.to_list() for b in enumerate_bases(cone, 3)]
    assert cone_bases == [
        [0, 1, 2, 3, 4, 5, 6, 7, 8],
        [0, 1, 2, 3, 4, 5, 6, 7, 9],
        [0, 1, 2, 3, 4, 5, 7, 8, 9],
        [0, 1, 2, 3, 4, 6, 7, 8, 9],
    ]


def test_enumerate_bases_order_and_cap():
    bases = enumerate_bases(cycle(6), 2)
    lists = [b.to_list() for b in bases]
    assert lists == sorted(lists)
    with pytest.raises(BasisCountExceeded):
        enumerate_bases(cycle(6), 2, limit=1)
    # C6 has exactly six minimum 1-generators: a limit of six holds them all
    six = enumerate_bases(cycle(6), 1, limit=6)
    assert len(six) == 6 and six == enumerate_bases(cycle(6), 1)
    with pytest.raises(BasisCountExceeded):
        enumerate_bases(cycle(6), 1, limit=5)


def test_enumerate_matches_brute_force_enumeration():
    from itertools import combinations

    rng = random.Random(77)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 7))
        table = build_table(g, 2)
        top = adjacency_dimensionality(g)
        k = rng.randint(1, top)
        bases = enumerate_bases(g, k)
        size = len(bases[0])
        expected = [
            list(c)
            for c in combinations(range(g.n), size)
            if is_k_generator(table, k, VertexSet.from_iterable(g.n, c))
        ]
        assert [b.to_list() for b in bases] == expected


def test_basis_counts_of_fig4_and_fig5():
    assert len(enumerate_bases(fig5_graph(), 3)) == 1
    assert len(enumerate_bases(fig4_graph(), 3)) == 6


def test_greedy_bound_properties():
    assert len(greedy_bound(build_table(complete(2), 2), 1)) <= 2
    pet = build_table(petersen(), 2)
    assert len(greedy_bound(pet, 1)) >= 3
    c10 = build_table(cycle(10), 2)
    g = greedy_bound(c10, 2)
    assert is_k_generator(c10, 2, g)
    assert len(g) >= 5
    rng = random.Random(13)
    for _ in range(60):
        graph = random_graph(rng, rng.randint(2, 8))
        table = build_table(graph, 2)
        top = adjacency_dimensionality(graph)
        for k in (1, top):
            got = greedy_bound(table, k)
            assert is_k_generator(table, k, got)
            assert len(got) >= solve_adim(graph, k).dimension


def test_k_errors():
    with pytest.raises(KExceedsDimensionality):
        solve_adim(petersen(), 7)
    with pytest.raises(KExceedsDimensionality):
        solve_adim(path(4), 0)
    with pytest.raises(KExceedsDimensionality):
        enumerate_bases(complete(3), 3)


def test_disconnected_rules():
    g = disjoint_union(path(3), path(2))
    assert solve_adim(g, 1).dimension >= 1  # accepted via saturation
    with pytest.raises(Disconnected):
        solve_dim(g, 1)
    with pytest.raises(Disconnected):
        dim_ladder(g)
    with pytest.raises(Disconnected):
        metric_table(g)
    for h in (complete(1), complete(4), path(5), petersen(), fig2_graph()):
        full = build_table(h, max(1, diameter(h)))
        assert metric_table(h).pair_masks == full.pair_masks


def test_a_stored_solve_dim_walks_once(monkeypatch):
    # the full metric is level n, so a stored solve_dim needs only the one
    # connectivity walk, not a walk from every vertex to find the diameter
    from adimlab import graph, metric

    walks = []
    real = graph.bfs_layers

    def counting(*args, **kwargs):
        walks.append(args)
        return real(*args, **kwargs)

    for module in (graph, metric):
        monkeypatch.setattr(module, "bfs_layers", counting)
    first = solve_dim(path(7), 1)
    walks.clear()
    assert _answer(solve_dim(path(7), 1)) == _answer(first)
    assert len(walks) == 1


def test_budget_exhaustion():
    with pytest.raises(BudgetExhausted):
        solve_adim(fig2_graph(), 2, budget=5)


def test_budget_env(monkeypatch):
    monkeypatch.setenv("ADIMLAB_BUDGET", "5")
    with pytest.raises(BudgetExhausted):
        solve_adim(fig2_graph(), 2)
    monkeypatch.setenv("ADIMLAB_BUDGET", "")
    assert solve_adim(cycle(5), 2).dimension == 3


def test_bad_budgets_and_limits_raise_bad_parameter(monkeypatch):
    with pytest.raises(BadParameter, match=">= 0, got -1"):
        solve_adim(cycle(5), 1, budget=-1)
    with pytest.raises(BadParameter, match=">= 0, got -1"):
        enumerate_bases(cycle(5), 1, limit=-1)
    for raw in ("abc", "-3", "1.5"):
        monkeypatch.setenv("ADIMLAB_BUDGET", raw)
        with pytest.raises(BadParameter, match="ADIMLAB_BUDGET|>= 0"):
            solve_adim(cycle(5), 1)
        with pytest.raises(BadParameter):
            adim_ladder(cycle(12))
    # budget 0 is in range: a search with masks exhausts at its first node
    monkeypatch.delenv("ADIMLAB_BUDGET")
    with pytest.raises(BudgetExhausted, match="node budget 0 exhausted"):
        solve_adim(cycle(5), 1, budget=0)


def test_budget_env_bounds_every_ladder(monkeypatch):
    # the budget bounds the search of each level at every order: its
    # largest level takes 1 node on cycle(5) and 51 on cycle(12)
    for g, need in ((cycle(5), 1), (cycle(12), 51)):
        monkeypatch.delenv("ADIMLAB_BUDGET", raising=False)
        top = adjacency_dimensionality(g)
        solved = [solve_adim(g, k).dimension for k in range(1, top + 1)]
        monkeypatch.setenv("ADIMLAB_BUDGET", str(need - 1))
        with pytest.raises(BudgetExhausted):
            adim_ladder(g)
        monkeypatch.setenv("ADIMLAB_BUDGET", str(need))
        assert adim_ladder(g) == solved


def test_budget_bounds_the_whole_basis_enumeration(monkeypatch):
    # the minimum search's nodes plus its lex pass's are the budget that
    # just suffices, from the argument or the environment
    prepared = build_table(fig4_graph(), 2).prepared
    found = kernel.minimum_search(prepared, 3)
    covers, lex, _ = kernel.enumerate_min_covers(prepared, 3)
    nodes = found[2] + lex
    assert len(covers) == 6
    assert len(enumerate_bases(fig4_graph(), 3, budget=nodes)) == 6
    with pytest.raises(BudgetExhausted):
        enumerate_bases(fig4_graph(), 3, budget=nodes - 1)
    monkeypatch.setenv("ADIMLAB_BUDGET", str(nodes - 1))
    with pytest.raises(BudgetExhausted):
        enumerate_bases(fig4_graph(), 3)


def test_monotony_and_corollaries():
    rng = random.Random(19)
    for _ in range(80):
        g = random_graph(rng, rng.randint(2, 8))
        ladder = adim_ladder(g)
        n = g.n
        for k in range(2, len(ladder) + 1):
            assert ladder[k - 1] > ladder[k - 2]
            assert ladder[k - 1] >= ladder[0] + (k - 1)
        for k in range(1, len(ladder)):
            assert ladder[k - 1] < n


def test_complement_invariance_of_dimension():
    rng = random.Random(3)
    for _ in range(50):
        g = random_graph(rng, rng.randint(2, 8))
        assert adim_ladder(g) == adim_ladder(complement(g))


def test_dim_le_adim_on_connected():
    rng = random.Random(41)
    seen = 0
    while seen < 50:
        g = random_graph(rng, rng.randint(2, 7))
        if not is_connected(g):
            continue
        seen += 1
        adim = adim_ladder(g)
        dim = dim_ladder(g)
        for k in range(1, len(adim) + 1):
            assert dim[k - 1] <= adim[k - 1]
            if diameter(g) <= 2:
                assert dim[k - 1] == adim[k - 1]


def test_adim_equals_k_classification():
    # the only hits at any order <= 6 are the 2- and 3-vertex path shapes
    # and their complements, at levels 1 and 2
    hits = []
    for n in range(2, 7):
        for g in enumerate_all_graphs(n):
            for k, value in enumerate(adim_ladder(g), start=1):
                if value == k:
                    hits.append((n, tuple(g.edges()), k))
    three = {
        ((0, 1), (1, 2)), ((0, 1), (0, 2)), ((0, 2), (1, 2)),  # labeled P3
        ((0, 1),), ((0, 2),), ((1, 2),),  # labeled P3 complements
    }
    for n, edges, k in hits:
        assert k in (1, 2)
        if n == 2:
            assert edges in {(), ((0, 1),)}
        else:
            assert n == 3 and edges in three
    # each qualifying graph hits at exactly k in {1, 2}
    assert len(hits) == (2 + 6) * 2


def test_full_dimension_iff_forced_covers():
    rng = random.Random(8)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 7))
        table = build_table(g, 2)
        ladder = adim_ladder(g)
        for k in range(1, len(ladder) + 1):
            assert (ladder[k - 1] == g.n) == (
                len(forced_set(table, k)) == g.n
            )


def test_stats_and_json_schema():
    res = solve_adim(petersen(), 3)
    d = res.to_json_dict()
    assert set(d) == {
        "k", "dimension", "witness", "nodes", "search_nodes", "greedy_size",
        "millis",
    }
    assert d["k"] == 3 and d["dimension"] == 7
    assert d["witness"] == res.witness.to_list()
    assert res.stats.greedy_size >= res.dimension
    assert res.stats.millis >= 0


def test_dim_ladder_matches_brute_force_at_diameter():
    rng = random.Random(55)
    seen = 0
    while seen < 25:
        g = random_graph(rng, rng.randint(2, 7))
        if not is_connected(g):
            continue
        seen += 1
        t = max(1, int(diameter(g)))
        ladder = dim_ladder(g)
        for k in range(1, len(ladder) + 1):
            assert ladder[k - 1] == brute_force_adim(g, k, t=t).dimension


def test_solve_result_survives_pickle():
    # results cross process boundaries, so their vertex sets must pickle
    import pickle

    res = solve_adim(cycle(6), 1)
    assert pickle.loads(pickle.dumps(res)) == res
    bases = enumerate_bases(cycle(6), 1)
    assert pickle.loads(pickle.dumps(bases)) == bases


def _random_tables(seed, count):
    """(graph, t, k): random graphs with n <= 14 at t = 2 and 3, k a random
    feasible level."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        g = random_graph(rng, rng.randint(2, 14))
        t = rng.choice((2, 3))
        out.append((g, t, rng.randint(1, build_table(g, t).min_pair_size())))
    return out


def _answer(result):
    """A solve's dimension, witness and stats, its millis aside."""
    return result.dimension, result.witness, result.stats._replace(millis=0.0)


def _cold_search(g, t, k):
    """The minimum search's record on a table that never stored one."""
    return kernel.minimum_search(DistinguishTable(g, t).prepared, k)


def test_a_stored_minimum_gives_the_answers_of_a_cold_table():
    for g, t, k in _random_tables(1801, 800):
        build_table.cache_clear()
        table = build_table(g, t)
        cold_bases = enumerate_bases(g, k, t=t)
        # the enumeration stored the kernel's record of the search it ran
        searches = table.prepared.searches
        assert list(searches) == [k]
        found = searches[k]
        assert type(found) is tuple and found == _cold_search(g, t, k)
        size, cover, search_nodes, greedy_size = found
        # a solve after it runs no search: the record is the same object
        solved = solve_table(table, k)
        assert searches == {k: found} and searches[k] is found
        # a table that never stored anything solves to the same answer, with
        # the same node counts
        fresh = solve_table(DistinguishTable(g, t), k)
        assert _answer(fresh) == _answer(solved)
        assert (size, search_nodes, greedy_size) == (
            solved.dimension, solved.stats.search_nodes, solved.stats.greedy_size
        )
        assert 1 <= search_nodes <= solved.stats.nodes
        assert _answer(solve_table(table, k)) == _answer(solved)
        assert enumerate_bases(g, k, t=t) == cold_bases
        assert cold_bases[0] == solved.witness
        assert VertexSet(table.n, cover) in cold_bases


def test_the_minimum_search_alone_gives_the_size_of_a_full_solve():
    for g, t, k in _random_tables(1805, 400):
        build_table.cache_clear()
        table = build_table(g, t)
        cold = solve_table(DistinguishTable(g, t), k)
        assert minimum_size(table, k) == cold.dimension
        assert list(table.prepared.searches) == [k]
        assert table.prepared.searches[k] == _cold_search(g, t, k)
        # a full solve after it runs only the lex pass, and gives the
        # witness and node counts of a cold table
        assert _answer(solve_table(table, k)) == _answer(cold)
        assert minimum_size(table, k) == cold.dimension


def test_a_second_solve_runs_no_search_and_answers_as_a_cold_table():
    for g, t, k in _random_tables(1807, 150):
        build_table.cache_clear()
        table = build_table(g, t)
        cold = solve_table(DistinguishTable(g, t), k)
        nodes = cold.stats.nodes
        with pytest.raises(BudgetExhausted, match=f"node budget {nodes - 1} "):
            solve_table(DistinguishTable(g, t), k, nodes - 1)
        assert _answer(solve_table(table, k)) == _answer(cold)
        found = table.prepared.searches[k]
        # the second solve, and every budgeted one after it, reads the
        # stored search; the budget that just suffices is a cold table's
        assert _answer(solve_table(table, k)) == _answer(cold)
        assert _answer(solve_table(table, k, nodes)) == _answer(cold)
        with pytest.raises(BudgetExhausted, match=f"node budget {nodes - 1} "):
            solve_table(table, k, nodes - 1)
        assert table.prepared.searches == {k: found}
        assert table.prepared.searches[k] is found


def test_stored_minima_keep_the_budget_of_a_cold_search():
    for g, t, k in _random_tables(1802, 100):
        build_table.cache_clear()
        table = build_table(g, t)
        solved = solve_table(table, k)
        nodes = solved.stats.nodes
        search = table.prepared.searches[k][2]
        # the stored search raises exactly when running it would
        assert _answer(solve_table(table, k, budget=nodes)) == _answer(solved)
        with pytest.raises(BudgetExhausted, match=f"node budget {nodes - 1} "):
            solve_table(table, k, budget=nodes - 1)
        assert minimum_size(table, k, budget=search) == solved.dimension
        with pytest.raises(BudgetExhausted, match=f"node budget {search - 1} "):
            minimum_size(table, k, budget=search - 1)
        # an enumeration charges the stored minimum search, then its lex
        # pass; the kernel counts the lex pass alone
        covers, lex, _ = kernel.enumerate_min_covers(table.prepared, k)
        assert [b.mask for b in enumerate_bases(g, k, budget=search + lex, t=t)] == covers
        with pytest.raises(BudgetExhausted, match=f"node budget {search - 1} "):
            enumerate_bases(g, k, budget=search - 1, t=t)
        if lex:
            with pytest.raises(BudgetExhausted, match=f"node budget {search + lex - 1} "):
                enumerate_bases(g, k, budget=search + lex - 1, t=t)


def test_a_budget_holds_whatever_the_cache_holds_before_a_solve():
    # solve_table and minimum_size succeed exactly when a cold search of
    # their phases fits the budget, after either phase was stored or none
    for g, t, k in _random_tables(1806, 150):
        prepared = build_table(g, t).prepared
        size, witness, nodes, (_, search) = kernel.solve_min_multicover(prepared, k)
        for budget in (nodes, nodes - 1, search, search - 1):
            for warm in (None, minimum_size, solve_table):
                build_table.cache_clear()
                table = build_table(g, t)
                if warm is not None:
                    warm(table, k)
                if budget >= nodes:
                    assert solve_table(table, k, budget).witness.mask == witness
                else:
                    with pytest.raises(BudgetExhausted):
                        solve_table(table, k, budget)
                if budget >= search:
                    assert minimum_size(table, k, budget) == size
                else:
                    with pytest.raises(BudgetExhausted):
                        minimum_size(table, k, budget)


def _enumeration(g, k, t, budget):
    """The bases of one budgeted enumeration, or BudgetExhausted."""
    try:
        return enumerate_bases(g, k, budget=budget, t=t)
    except BudgetExhausted:
        return BudgetExhausted


def test_a_basis_budget_holds_whatever_the_cache_holds():
    # enumerate_bases succeeds exactly when the table's minimum search plus
    # the lex pass from its cover fits the budget, on a cold table, after a
    # size-only solve and after a full solve alike; the witness's own lex
    # pass is never charged
    for g, t, k in [(fig2_graph(), 2, 2)] + _random_tables(1804, 200):
        prepared = build_table(g, t).prepared
        found = kernel.minimum_search(prepared, k)
        bases, lex, _ = kernel.enumerate_min_covers(prepared, k)
        threshold = found[2] + lex
        full = kernel.solve_min_multicover(prepared, k)[2]
        for budget in (threshold, threshold - 1, full + lex):
            outcomes = []
            for warm in (None, minimum_size, solve_table):
                build_table.cache_clear()
                if warm is not None:
                    warm(build_table(g, t), k)
                outcomes.append(_enumeration(g, k, t, budget))
            cold = outcomes[0]
            assert outcomes == [cold] * 3
            assert (cold is BudgetExhausted) == (budget < threshold)
            if cold is not BudgetExhausted:
                assert [b.mask for b in cold] == bases


def test_an_enumeration_stores_the_minimum_it_solved():
    build_table.cache_clear()
    bases = enumerate_bases(fig2_graph(), 2)
    table = build_table(fig2_graph(), 2)
    assert list(table.prepared.searches) == [2]
    size, cover, _, _ = found = table.prepared.searches[2]
    assert found == _cold_search(fig2_graph(), 2, 2)
    assert size == 14 and VertexSet(table.n, cover) in bases
    # a later solve runs the lex pass from the stored search, not the search
    solved = solve_adim(fig2_graph(), 2)
    assert (solved.dimension, solved.witness) == (14, bases[0])
    assert minimum_size(table, 2) == 14
    assert _answer(solve_adim(fig2_graph(), 2)) == _answer(solved)
    assert table.prepared.searches == {2: found}
    assert table.prepared.searches[2] is found


def _outcome(call):
    """What one budgeted call returns, its millis aside, or BudgetExhausted."""
    try:
        out = call()
    except BudgetExhausted:
        return BudgetExhausted
    return _answer(out) if isinstance(out, solver.SolveResult) else out


def test_a_ladder_shares_its_records_with_sizes_solves_and_bases():
    # adim_ladder stores the minimum search of every level on its table;
    # a size read, a solve and a basis list after it create no record, and
    # they answer and run out of budget as each does on a cold table
    rng = random.Random(1808)
    for _ in range(100):
        g = random_graph(rng, rng.randint(2, 14))
        k = rng.randint(1, adjacency_dimensionality(g))
        build_table.cache_clear()
        stats = solve_table(build_table(g, 2), k).stats
        search, nodes = stats.search_nodes, stats.nodes
        lex = kernel.enumerate_min_covers(build_table(g, 2).prepared, k)[1]
        for budget in {None, search - 1, search, nodes - 1, nodes,
                       search + lex - 1, search + lex}:
            calls = (
                lambda table: minimum_size(table, k, budget),
                lambda table: solve_table(table, k, budget),
                lambda table: enumerate_bases(g, k, budget=budget),
            )
            cold = []
            for call in calls:
                build_table.cache_clear()
                table = build_table(g, 2)
                cold.append(_outcome(lambda: call(table)))
            build_table.cache_clear()
            table = build_table(g, 2)
            ladder = adim_ladder(g)
            stored = dict(table.prepared.searches)
            assert list(stored) == list(range(1, len(ladder) + 1))
            assert stored[k][0] == ladder[k - 1]
            warm = [_outcome(lambda: call(table)) for call in calls]
            assert warm == cold, (g, k, budget)
            searches = table.prepared.searches
            assert searches == stored
            assert all(searches[j] is stored[j] for j in stored)


def test_pickled_and_copied_tables_store_nothing():
    import copy
    import pickle

    for g, t, k in _random_tables(1803, 40):
        table = DistinguishTable(g, t)
        solved = solve_table(table, k)
        for twin in (pickle.loads(pickle.dumps(table)), copy.deepcopy(table)):
            assert not twin.prepared.searches
            assert _answer(solve_table(twin, k)) == _answer(solved)
