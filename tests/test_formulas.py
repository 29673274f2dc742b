import inspect
import random
from collections import Counter

import pytest

from adimlab import formulas
from adimlab.corpus import enumerate_all_graphs, enumerate_trees
from adimlab.errors import (
    BadParameter,
    KExceedsDimensionality,
    NotATree,
    OutOfProvenRange,
    TooSmall,
)
from adimlab.formulas import (
    ConeBound,
    CriterionReport,
    FormulaQuery,
    adim2_upper_cone,
    cone_equality_criterion,
    cone_full_dimension_criterion,
    cone_plus_one_criterion,
    formula_adim,
    full_dimension_criteria,
    full_dimension_twin_criterion,
    join_bounds,
    join_equality_criterion,
    tree_dimensionality,
)
from adimlab.graph import (
    complete,
    complete_bipartite,
    cycle,
    empty_graph,
    fan,
    fig3_graph,
    fig4_graph,
    from_edge_list,
    join,
    path,
    petersen,
    wheel,
)
from adimlab.metric import (
    adjacency_dimensionality,
    build_table,
    cone_dimensionality,
    join_dimensionality,
)
from adimlab.solver import adim_ladder, enumerate_bases, minimum_cover, solve_adim
from adimlab.verify import Corpus, sweep_theorem

from conftest import random_graph


def q(family, params, k):
    return FormulaQuery(family, params if isinstance(params, tuple) else (params,), k)


def test_formula_examples():
    assert formula_adim(q("path", 10, 2)) == 6
    assert formula_adim(q("wheel", 6, 1)) == 3
    assert formula_adim(q("fan", 5, 3)) == 5
    assert formula_adim(q("cycle", 9, 4)) == 9
    assert formula_adim(q("petersen", (), 5)) == 9
    assert formula_adim(q("complete", 6, 1)) == 5
    assert formula_adim(q("empty", 6, 2)) == 6
    assert formula_adim(q("complete_bipartite", (2, 3), 1)) == 3
    assert formula_adim(q("complete_bipartite", (2, 3), 2)) == 5


def test_formula_refusals_carry_range():
    with pytest.raises(OutOfProvenRange, match="n >= 4"):
        formula_adim(q("path", 3, 2))
    with pytest.raises(OutOfProvenRange, match="n >= 5"):
        formula_adim(q("cycle", 4, 2))
    with pytest.raises(OutOfProvenRange, match="k <= 6"):
        formula_adim(q("petersen", (), 7))
    with pytest.raises(OutOfProvenRange):
        formula_adim(q("fan", 3, 3))
    with pytest.raises(OutOfProvenRange):
        formula_adim(q("unknown_family", 3, 1))
    with pytest.raises(OutOfProvenRange, match="^petersen takes no parameters$"):
        formula_adim(q("petersen", 5, 1))


# one row per (family, k) of the closed-form table: the lowest n served, the
# values at the next twelve orders, and the refusal one order below; an
# unlisted k is refused at every n with the family's range
TABLE_ROWS = [
    ("path", 1, 2, (1, 1, 2, 2, 2, 3, 3, 4, 4, 4, 5, 5), "n >= 2"),
    ("path", 2, 4, (3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8), "n >= 4"),
    ("path", 3, 4, (4, 5, 6, 7, 8, 8, 9, 10, 11, 12, 12, 13), "n >= 4"),
    ("path", 4, None, (), "k <= 3"),
    ("cycle", 1, 4, (2, 2, 2, 3, 3, 4, 4, 4, 5, 5, 6, 6), "n >= 4"),
    ("cycle", 2, 5, (3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8), "k <= 4 and n >= 5"),
    ("cycle", 3, 5, (4, 5, 6, 7, 8, 8, 9, 10, 11, 12, 12, 13),
     "k <= 4 and n >= 5"),
    ("cycle", 4, 5, (5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16),
     "k <= 4 and n >= 5"),
    ("cycle", 5, None, (), "k <= 4 and n >= 5"),
    ("complete", 1, 2, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12),
     "n >= 2 and k <= 2 (the twin-class bound)"),
    ("complete", 2, 2, (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13),
     "n >= 2 and k <= 2 (the twin-class bound)"),
    ("complete", 3, None, (), "n >= 2 and k <= 2 (the twin-class bound)"),
    ("empty", 1, 2, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12),
     "n >= 2 and k <= 2 (the twin-class bound)"),
    ("empty", 2, 2, (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13),
     "n >= 2 and k <= 2 (the twin-class bound)"),
    ("empty", 3, None, (), "n >= 2 and k <= 2 (the twin-class bound)"),
    ("fan", 1, 1, (1, 2, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5), "n >= 1"),
    ("fan", 2, 2, (3, 4, 4, 4, 4, 4, 5, 5, 6, 6, 7, 7), "n >= 2"),
    ("fan", 3, 4, (5, 5, 6, 7, 8, 8, 9, 10, 11, 12, 12, 13), "n >= 4"),
    ("fan", 4, None, (), "k <= 3"),
    ("wheel", 1, 3, (3, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 6), "n >= 3"),
    ("wheel", 2, 3, (4, 4, 4, 4, 4, 4, 5, 5, 6, 6, 7, 7), "n >= 3"),
    ("wheel", 3, 5, (5, 5, 6, 7, 8, 8, 9, 10, 11, 12, 12, 13), "n >= 5"),
    ("wheel", 4, 5, (6, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16), "n >= 5"),
    ("wheel", 5, None, (), "k <= 4"),
]


@pytest.mark.parametrize("family, k, first_n, values, rng", TABLE_ROWS)
def test_closed_form_table_rows(family, k, first_n, values, rng):
    if first_n is None:
        refused, served = (-1, 0, 7, 45), range(0)
    else:
        refused, served = (-1, first_n - 2, first_n - 1), range(first_n, 46)
    for n in refused:
        with pytest.raises(OutOfProvenRange) as err:
            formula_adim(q(family, n, k))
        assert str(err.value) == f"{family} with k={k} is only proven for {rng}"
    got = tuple(formula_adim(q(family, n, k)) for n in served)
    assert got[:len(values)] == values


@pytest.mark.parametrize("family, params, k, answer", [
    ("complete_bipartite", (1, 2), 1, 1),
    ("complete_bipartite", (1, 1), 1,
     "complete_bipartite with k=1 is only proven for r + s >= 3"),
    ("complete_bipartite", (2, 2), 2, 4),
    ("complete_bipartite", (1, 1), 2, 2),
    ("complete_bipartite", (1, 3), 2, "complete_bipartite with k=2 is only "
     "proven for r, s >= 2 (every vertex twinned) or r = s = 1"),
    ("complete_bipartite", (2, 3), 3,
     "complete_bipartite with k=3 is only proven for k <= 2 (the twin-class bound)"),
    ("petersen", (), 1, 3),
    ("petersen", (), 6, 10),
    ("petersen", (), 7, "petersen with k=7 is only proven for k <= 6"),
    ("path", (), 1, "path takes exactly one parameter n"),
    ("empty", (3, 3), 1, "empty takes exactly one parameter n"),
    ("complete_bipartite", (3,), 1, "complete_bipartite takes parameters r, s"),
    ("petersen", (10,), 0, "petersen takes no parameters"),
    ("wheel", (), 0, "wheel takes exactly one parameter n"),
    ("", (7,), 0, "unknown family ''; pick one of ('path', 'cycle', 'complete', "
     "'empty', 'complete_bipartite', 'fan', 'wheel', 'petersen')"),
    ("path", (7,), 0, "path with k=0 is only proven for k >= 1"),
    ("cycle", (9,), -1, "cycle with k=-1 is only proven for k >= 1"),
    ("complete_bipartite", (2, 3), 0,
     "complete_bipartite with k=0 is only proven for k >= 1"),
    ("petersen", (), 0, "petersen with k=0 is only proven for k >= 1"),
])
def test_bipartite_petersen_and_refusal_order(family, params, k, answer):
    # the unknown family wins over the parameter count, which wins over k < 1
    if isinstance(answer, int):
        assert formula_adim(q(family, params, k)) == answer
        return
    with pytest.raises(OutOfProvenRange) as err:
        formula_adim(q(family, params, k))
    assert str(err.value) == answer


@pytest.mark.parametrize("params", [(0, 3), (-1, 11)])
def test_complete_bipartite_refuses_empty_parts(params):
    # with the generator's own message, ahead of any level's range
    with pytest.raises(BadParameter) as made:
        complete_bipartite(*params)
    for k in (0, 1, 2):
        with pytest.raises(BadParameter) as err:
            formula_adim(q("complete_bipartite", params, k))
        assert str(err.value) == str(made.value)
    assert str(made.value) == "complete_bipartite needs r, s >= 1, got %d, %d" % params


def test_formulas_match_solver_everywhere_in_range():
    # a refusal inside a proven range would be skipped below, so the count of
    # points served per family is pinned too
    served = Counter()

    def check(family, params, k, ladder):
        try:
            value = formula_adim(q(family, params, k))
        except OutOfProvenRange:
            return
        served[family] += 1
        assert value == ladder[k - 1], (family, params, k)

    for n in range(2, 15):
        ladder = adim_ladder(path(n))
        for k in (1, 2, 3):
            check("path", n, k, ladder)
    for n in range(3, 15):
        ladder = adim_ladder(cycle(n))
        for k in (1, 2, 3, 4):
            check("cycle", n, k, ladder)
    for n in range(1, 15):
        ladder = adim_ladder(fan(n))
        for k in (1, 2, 3):
            check("fan", n, k, ladder)
    for n in range(3, 15):
        ladder = adim_ladder(wheel(n))
        for k in (1, 2, 3, 4):
            check("wheel", n, k, ladder)
    for n in range(2, 15):
        assert formula_adim(q("complete", n, 1)) == adim_ladder(complete(n))[0]
        assert formula_adim(q("complete", n, 2)) == adim_ladder(complete(n))[1]
        assert formula_adim(q("empty", n, 2)) == adim_ladder(empty_graph(n))[1]
    for r in range(1, 7):
        for s in range(r, 15 - r + 1):
            ladder = adim_ladder(complete_bipartite(r, s))
            for k in (1, 2):
                check("complete_bipartite", (r, s), k, ladder)
    for k in range(1, 7):
        assert formula_adim(q("petersen", (), k)) == adim_ladder(petersen())[k - 1]
    assert served == {
        "path": 35, "cycle": 41, "fan": 38, "wheel": 44, "complete_bipartite": 94,
    }


def test_cone_equality_fixtures():
    assert cone_equality_criterion(path(9), 2).holds
    rep = cone_equality_criterion(fig3_graph(), 2)
    assert not rep.holds
    assert solve_adim(join(complete(1), fig3_graph()), 2).dimension == 5


def test_cone_equality_biconditional_exhaustive_small():
    for n in range(2, 6):
        for h in enumerate_all_graphs(n):
            top = cone_dimensionality(h)
            lh = adim_ladder(h)
            lc = adim_ladder(join(complete(1), h))
            for k in range(1, top + 1):
                rep = cone_equality_criterion(h, k)
                assert rep.holds == (lc[k - 1] == lh[k - 1]), (h.edges(), k)
                if rep.holds:
                    basis = rep.witness
                    assert all(
                        (basis.mask & ~h.rows[y]).bit_count() >= k
                        for y in range(h.n)
                    )


def test_cone_equality_biconditional_sampled():
    rng = random.Random(2024)
    done = 0
    while done < 150:
        h = random_graph(rng, rng.randint(6, 7))
        top = cone_dimensionality(h)
        k = rng.randint(1, top)
        rep = cone_equality_criterion(h, k)
        equal = (
            solve_adim(join(complete(1), h), k).dimension
            == solve_adim(h, k).dimension
        )
        assert rep.holds == equal
        done += 1


def test_cone_equality_biconditional_exhaustive_n6():
    # the sweep checks the biconditional for k = 1..len(cone ladder) on one
    # graph per isomorphism class and counts every labeled graph
    report = sweep_theorem(Corpus(min_n=6, max_n=6), "cone-equality")
    assert report.checked == 32768
    assert report.violations == []


def test_diameter_six_forces_equality():
    for n in range(7, 12):
        h = path(n)
        for k in range(1, cone_dimensionality(h) + 1):
            assert cone_equality_criterion(h, k).holds
    for t in enumerate_trees(9, 8):
        ecc = max(
            max(d for d in __import__("adimlab").bfs_distances(t, v))
            for v in range(t.n)
        )
        if ecc >= 6:
            for k in range(1, cone_dimensionality(t) + 1):
                assert cone_equality_criterion(t, k).holds


def test_girth5_mindeg3_forces_equality():
    h = petersen()
    for k in range(1, cone_dimensionality(h) + 1):
        assert cone_equality_criterion(h, k).holds


def test_cone_plus_one_fixtures():
    rep = cone_plus_one_criterion(fig4_graph(), 3)
    assert rep.holds
    assert solve_adim(join(complete(1), fig4_graph()), 3).dimension == 8
    assert not cone_plus_one_criterion(path(9), 2).holds
    # K3's unique 2-basis is V; every vertex leaves exactly one outside,
    # so the premise holds and the cone value is 3 + 1 = 4
    rep = cone_plus_one_criterion(complete(3), 2)
    assert rep.holds
    assert solve_adim(join(complete(1), complete(3)), 2).dimension == 4


def test_cone_plus_one_implies_plus_one():
    rng = random.Random(911)
    done = 0
    while done < 120:
        h = random_graph(rng, rng.randint(2, 7))
        top = cone_dimensionality(h)
        k = rng.randint(1, top)
        if cone_plus_one_criterion(h, k).holds:
            assert (
                solve_adim(join(complete(1), h), k).dimension
                == solve_adim(h, k).dimension + 1
            )
        done += 1


def test_adim2_upper_cone():
    b = adim2_upper_cone(fan(7))
    assert isinstance(b, ConeBound)
    assert b.equality and b.reason == "universal-vertex"
    assert (
        solve_adim(join(complete(1), fan(7)), 2).dimension
        == solve_adim(fan(7), 2).dimension + 2
    )
    assert adim2_upper_cone(wheel(7)).equality
    b5 = adim2_upper_cone(path(5))
    assert b5.bound == 5 and not b5.equality
    assert solve_adim(join(complete(1), path(5)), 2).dimension < b5.bound


def test_the_criteria_enumerate_every_basis_uncapped():
    for fn in (
        cone_equality_criterion,
        cone_plus_one_criterion,
        adim2_upper_cone,
        join_equality_criterion,
    ):
        assert "basis_cap" not in inspect.signature(fn).parameters


def test_adim2_upper_cone_is_always_an_upper_bound():
    rng = random.Random(6)
    for _ in range(80):
        h = random_graph(rng, rng.randint(2, 7))
        bound = adim2_upper_cone(h).bound
        assert solve_adim(join(complete(1), h), 2).dimension <= bound


def test_join_bounds_examples():
    lower, upper = join_bounds(cycle(7), cycle(7), 2)
    assert lower == 8
    exact = solve_adim(join(cycle(7), cycle(7)), 2).dimension
    assert lower <= exact <= upper
    assert solve_adim(join(complete(3), cycle(7)), 2).dimension == 7
    assert solve_adim(join(petersen(), petersen()), 2).dimension == 8


def test_join_bounds_sandwich_random_pairs():
    rng = random.Random(321)
    done = 0
    while done < 60:
        g = random_graph(rng, rng.randint(2, 5))
        h = random_graph(rng, rng.randint(2, 5))
        try:
            lower, upper = join_bounds(g, h, rng.randint(1, 2))
        except KExceedsDimensionality:
            continue
        done += 1
        assert lower <= upper


def test_join_equality_criterion():
    for g in (complete(2), empty_graph(2)):
        rep = join_equality_criterion(g, cycle(6), 2)
        assert rep.holds
        assert (
            solve_adim(join(g, cycle(6)), 2).dimension
            == solve_adim(g, 2).dimension + solve_adim(cycle(6), 2).dimension
        )
    rep = join_equality_criterion(complete(2), complete(2), 1)
    assert not rep.holds
    assert solve_adim(join(complete(2), complete(2)), 1).dimension == 3


def test_join_equality_biconditional_random():
    rng = random.Random(777)
    done = 0
    while done < 80:
        g = random_graph(rng, rng.randint(2, 5))
        h = random_graph(rng, rng.randint(2, 5))
        from adimlab.metric import join_dimensionality

        top = join_dimensionality(g, h)
        k = rng.randint(1, top)
        rep = join_equality_criterion(g, h, k)
        additive = (
            solve_adim(join(g, h), k).dimension
            == solve_adim(g, k).dimension + solve_adim(h, k).dimension
        )
        assert rep.holds == additive
        done += 1


def _join_criterion_by_full_lists(g, h, k):
    """(holds, witness) of the join criterion from both full basis lists."""

    def best(graph):
        score, argmax = -1, None
        for basis in enumerate_bases(graph, k):
            s = min((basis.mask & ~row).bit_count() for row in graph.rows)
            if s > score:
                score, argmax = s, basis
        return score, argmax

    sg, wg = best(g)
    sh, _ = best(h)
    return (True, wg) if sg + sh >= k else (False, None)


def test_join_equality_criterion_lists_h_only_when_it_must(monkeypatch):
    listed = []
    real = formulas.enumerate_bases
    monkeypatch.setattr(
        formulas, "enumerate_bases", lambda graph, k: listed.append(graph) or real(graph, k)
    )
    rng = random.Random(2301)
    exits = Counter()
    for _ in range(320):
        g = random_graph(rng, rng.randint(2, 6))
        h = random_graph(rng, rng.randint(2, 6))
        k = rng.randint(1, min(join_dimensionality(g, h), cone_dimensionality(g)))
        listed.clear()
        rep = join_equality_criterion(g, h, k)
        assert (rep.holds, rep.witness) == _join_criterion_by_full_lists(g, h, k)
        lower, _ = join_bounds(g, h, k)
        assert rep.holds == (solve_adim(join(g, h), k).dimension == lower)
        # which exit decided it: G's score alone, the cover H's minimum
        # search stored, or H's full list
        sg = max(
            min((b.mask & ~row).bit_count() for row in g.rows)
            for b in enumerate_bases(g, k)
        )
        stored = minimum_cover(build_table(h, 2), k).mask
        if sg >= k:
            exit = "g-alone"
        elif sg + min((stored & ~row).bit_count() for row in h.rows) >= k:
            exit = "h-stored"
        else:
            exit = "full-list"
        exits[exit] += 1
        assert listed == ([g, h] if exit == "full-list" else [g]), exit
    assert min(exits[e] for e in ("g-alone", "h-stored", "full-list")) >= 10, exits


def test_full_dimension_criteria():
    assert full_dimension_criteria(complete_bipartite(2, 3), 2).holds
    rep = full_dimension_criteria(path(5), 2)
    assert not rep.holds and isinstance(rep.witness, int)
    assert full_dimension_criteria(cycle(5), 4).holds
    for k in (0, -1):
        with pytest.raises(KExceedsDimensionality, match=f"^k must be >= 1, got {k}$"):
            full_dimension_criteria(path(4), k)
    assert full_dimension_twin_criterion(complete_bipartite(2, 3)).holds
    assert not full_dimension_twin_criterion(path(5)).holds


def test_full_dimension_cone_variant():
    # a star has a universal center and twinned leaves, so its cone is full
    star = complete_bipartite(1, 4)
    assert cone_full_dimension_criterion(star).holds
    assert (
        solve_adim(join(complete(1), star), 2).dimension == star.n + 1
    )
    assert not cone_full_dimension_criterion(path(4)).holds
    rng = random.Random(15)
    for _ in range(60):
        h = random_graph(rng, rng.randint(2, 6))
        holds = cone_full_dimension_criterion(h).holds
        full = solve_adim(join(complete(1), h), 2).dimension == h.n + 1
        assert holds == full


def test_criterion_report_json():
    rep = CriterionReport("cone-equality", True, None)
    assert rep.to_json_dict() == {
        "criterion": "cone-equality",
        "holds": True,
        "witness": None,
    }


def test_tree_dimensionality():
    assert tree_dimensionality(complete_bipartite(1, 3)) == 2
    assert tree_dimensionality(path(6)) == 3
    spider = from_edge_list(
        7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]
    )
    assert tree_dimensionality(spider) == 3
    with pytest.raises(NotATree):
        tree_dimensionality(cycle(4))
    with pytest.raises(TooSmall):
        tree_dimensionality(path(2))


def test_tree_dimensionality_matches_table():
    for t in enumerate_trees(9, 3):
        assert tree_dimensionality(t) == adjacency_dimensionality(t)


def test_cone_and_join_queries_refuse_levels_and_tiny_graphs_in_one_place():
    h, g = cycle(5), path(4)
    cone_top = cone_dimensionality(h)
    bounds_top = min(
        join_dimensionality(g, h), adjacency_dimensionality(h), cone_dimensionality(g)
    )
    for query, top, what in (
        (lambda k: cone_equality_criterion(h, k), cone_top, "the cone"),
        (lambda k: cone_plus_one_criterion(h, k), cone_top, "the cone"),
        (lambda k: join_bounds(g, h, k), bounds_top, "these bounds"),
        (lambda k: join_equality_criterion(g, h, k), join_dimensionality(g, h),
         "the join"),
    ):
        query(top)
        for k in (0, top + 1):
            with pytest.raises(
                KExceedsDimensionality, match=f"^k={k} outside 1..{top} for {what}$"
            ):
                query(k)
    # a graph under two vertices is refused by the closed form or basis list
    # each query reads first
    one = complete(1)
    for query in (
        lambda: cone_equality_criterion(one, 1),
        lambda: cone_plus_one_criterion(one, 1),
        lambda: adim2_upper_cone(one),
        lambda: join_bounds(one, h, 1),
        lambda: join_bounds(h, one, 1),
        lambda: join_equality_criterion(one, h, 1),
        lambda: join_equality_criterion(h, one, 1),
    ):
        with pytest.raises(TooSmall):
            query()
