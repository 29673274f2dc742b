import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from functools import cache, partial
from itertools import combinations, permutations
from math import comb
from pathlib import Path
from queue import SimpleQueue

import pytest

import adimlab
from adimlab import corpus as corpus_mod
from adimlab import formulas, graph, verify
from adimlab.bitset import VertexSet
from adimlab.corpus import _classes, enumerate_all_graphs, enumerate_trees
from adimlab.errors import (
    BadParameter,
    BudgetExhausted,
    MalformedHeader,
    TooLarge,
    UnknownTheorem,
)
from adimlab.formulas import cone_equality_criterion, full_dimension_criteria
from adimlab.graph import (
    Graph,
    complete,
    fig3_graph,
    fig5_graph,
    from_graph6,
    join,
    path,
    petersen,
    to_graph6,
)
from adimlab.metric import build_table, cone_dimensionality
from adimlab.solver import adim_ladder, is_k_generator, minimum_cover
from adimlab.verify import (
    PAIR_THEOREMS,
    THEOREMS,
    Corpus,
    Violation,
    _is_cycle_graph,
    _is_path_graph,
    check_cone_conjecture,
    check_cone_slack,
    sweep_theorem,
)


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_all_graphs(3)) == 8
    assert sum(1 for _ in enumerate_all_graphs(4)) == 64
    with pytest.raises(TooLarge):
        next(enumerate_all_graphs(8))
    # a negative order is a bad parameter, not one above the cap
    with pytest.raises(BadParameter):
        next(enumerate_all_graphs(-1))
    with pytest.raises(BadParameter):
        _classes(-1)


def test_enumeration_is_exact_and_distinct():
    seen = {g.rows for g in enumerate_all_graphs(4)}
    assert len(seen) == 64


def test_min_degree_filter_recount():
    filtered = sum(
        1 for g in Corpus(min_n=5, max_n=5, min_degree=2)
    )
    recount = sum(
        1
        for g in enumerate_all_graphs(5)
        if all(g.degree(v) >= 2 for v in range(5))
    )
    assert filtered == recount > 0


def test_corpus_connected_filter():
    total = sum(1 for _ in Corpus(min_n=4, max_n=4))
    connected = sum(1 for _ in Corpus(min_n=4, max_n=4, connected=True))
    assert total == 64 and 0 < connected < total


def test_corpus_from_graph6_lines(tmp_path):
    trees = enumerate_trees(6, 2)
    path = tmp_path / "trees.g6"
    path.write_text("\n".join(to_graph6(t) for t in trees) + "\n")
    corpus = Corpus.from_file(str(path))
    loaded = list(corpus)
    assert len(loaded) == len(trees)
    assert all(from_graph6(to_graph6(t)) == t for t in loaded)


def test_tree_enumeration_counts():
    # unlabeled tree counts for n = 1..9
    expected = [1, 1, 1, 2, 3, 6, 11, 23, 47]
    for n, want in enumerate(expected, start=1):
        assert len(enumerate_trees(n, n)) == want


def test_tree_enumeration_rejects_orders_below_one():
    assert [t.n for t in enumerate_trees(3, 1)] == [1, 2, 3]
    for min_n in (0, -1):
        with pytest.raises(BadParameter):
            enumerate_trees(3, min_n)


def test_tree_enumeration_rejects_reversed_orders_and_names_its_cap():
    with pytest.raises(BadParameter, match=r"1 <= min_n <= max_n, got 5\.\.3$"):
        enumerate_trees(3, 5)
    capped = "^tree enumeration is capped at n <= 16, got 17$"
    with pytest.raises(TooLarge, match=capped):
        enumerate_trees(17)


# enumerate_trees(9) in graph6: orders ascending, each order's trees in the
# order of their canonical codes
TREES_UP_TO_9 = (
    "@ A_ Bo Cs Cq DqG Ds_ DsO EqH? EqI? EqGO Esa? Es`? EsP? FqGOO FqHA? "
    "FqH@? FqHC? FqH?O FqI?G FqIC? FqH?_ FsaC? FsaA? Fs`A? GqGOO_ GqGOQ? "
    "GqGOS? GqGOOG GqHAA? GqHA@? GqHAC? GqHA?O GqH@C? GqHC?C GqHCC? GqHC?O "
    "GqH?OO GqH@?_ GqI?K? GqICC? GqI?G_ GqHA?_ GqHC?_ GsaCC? GsaCA? GsaAA? "
    "Gs`AA? HqGOOGA HqGOO_O HqGOO`? HqGOO_G HqGOO__ HqGOOa? HqGOO_A HqGOQ?@ "
    "HqGOQ@? HqGOQ?_ HqGOQA? HqGOO_C HqGOS?@ HqGOSA? HqGOQ?C HqHAA@? "
    "HqHAA?_ HqHAAA? HqHAA?G HqHA@?_ HqHA@A? HqHAC?@ HqHACA? HqHAC?G "
    "HqHA?OG HqHA@?G HqH@C?@ HqH@CA? HqHC?E? HqHCCA? HqHC?CG HqHCC?G "
    "HqHC?OG HqH@C?O HqH@?_C HqHA@?O HqI?K?@ HqI?KA? HqICCA? HqI?K?O "
    "HqHC?CO HqHAA?O HqHAC?O HsaCCA? HsaCC@? HsaCA@? HsaAA@?"
)


def test_tree_enumeration_keeps_its_graphs_and_order():
    assert " ".join(map(to_graph6, enumerate_trees(9))) == TREES_UP_TO_9


def test_dim_le_adim_walks_the_pairs_once(monkeypatch):
    # with both tables cached the check's only walk is its one diameter:
    # a BFS from each of the n vertices; the full metric's table is level n
    g = path(7)
    build_table(g, 2)
    build_table(g, g.n)
    walks = []
    real = graph.bfs_layers

    def counting(*args, **kwargs):
        walks.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(graph, "bfs_layers", counting)
    assert THEOREMS["dim-le-adim"](g) == []
    assert len(walks) == 7


THEOREMS_SMALL = (
    "monotony",
    "complement",
    "cone-lower",
    "cone-dimensionality",
    "cone-isolated-dichotomy",
    "full-dimension",
    "adim3-eq-4",
    "adim4-eq-5",
    "dim-le-adim",
    "kdim-vs-kadj",
)


@pytest.mark.parametrize("theorem", THEOREMS_SMALL)
def test_sweeps_hold_up_to_n5(theorem):
    report = sweep_theorem(Corpus(min_n=2, max_n=5), theorem)
    assert report.passed
    assert report.checked == 2 + 8 + 64 + 1024


def test_pair_sweeps_hold_on_tiny_corpus():
    # 1098 labeled graphs with 2 <= n <= 5 make 1098 * 1099 / 2 pairs
    for theorem in ("join-lower", "join-dimensionality"):
        report = sweep_theorem(Corpus(min_n=2, max_n=5), theorem)
        assert report.passed and report.checked == 603351


def test_k1t_trees_sweep():
    trees = enumerate_trees(9, 2)
    lines = tuple(to_graph6(t) for t in trees)
    report = sweep_theorem(Corpus(graph6_lines=lines), "K1T-trees")
    assert report.passed
    assert report.checked == len(trees) == 94


def test_unknown_theorem():
    with pytest.raises(UnknownTheorem):
        sweep_theorem(Corpus(), "no-such-theorem")


def test_characterization_hit_counts():
    # the labeled copies of a path on 4 vertices and of a 5-cycle number
    # 4!/2 = 12 and 5!/10 = 12; they are exactly the graphs hit
    hits4 = sum(
        1
        for g in enumerate_all_graphs(4)
        if len(adim_ladder(g)) >= 3 and adim_ladder(g)[2] == 4
    )
    assert hits4 == 12
    hits5 = [
        g
        for g in enumerate_all_graphs(5)
        if len(adim_ladder(g)) >= 3 and adim_ladder(g)[2] == 4
    ]
    assert len(hits5) == 12
    assert all(
        sorted(g.degrees()) == [2, 2, 2, 2, 2] for g in hits5
    )
    hits5_k4 = sum(
        1
        for g in enumerate_all_graphs(5)
        if len(adim_ladder(g)) >= 4 and adim_ladder(g)[3] == 5
    )
    assert hits5_k4 == 12


# The checkers these theorem ids had before each became a parameterised
# form of a shared one, kept as the reference the shared forms must equal.


def _check_adim1_ge_3(g):
    if g.n < 7:
        return []
    first = adim_ladder(g)[0]
    return [] if first >= 3 else [(1, first, ">= 3")]


def _check_adim3_eq_4(g):
    if g.n < 4:
        return []
    ladder = adim_ladder(g)
    observed = len(ladder) >= 3 and ladder[2] == 4
    expected = (g.n == 4 and _is_path_graph(g)) or (g.n == 5 and _is_cycle_graph(g))
    if observed != expected:
        return [(3, observed, expected)]
    return []


def _check_adim4_eq_5(g):
    if g.n < 5:
        return []
    ladder = adim_ladder(g)
    observed = len(ladder) >= 4 and ladder[3] == 5
    expected = g.n == 5 and _is_cycle_graph(g)
    if observed != expected:
        return [(4, observed, expected)]
    return []


MERGED_CHECKERS = {
    "adim1-ge-3": _check_adim1_ge_3,
    "adim3-eq-4": _check_adim3_eq_4,
    "adim4-eq-5": _check_adim4_eq_5,
}

@cache
def _class_graphs():
    """One graph of every isomorphism class with 2 <= n <= 7."""
    return tuple(g for n in range(2, 8) for _, _, g in _classes(n))


def _shift_ladders(monkeypatch, level, delta):
    """Make every ladder the checkers read, the references' included, the
    true one with level ``level`` (index) moved by ``delta``."""
    true_ladder = cache(verify.adim_ladder)

    def shifted(g):
        ladder = list(true_ladder(g))
        if level < len(ladder):
            ladder[level] += delta
        return ladder

    monkeypatch.setattr(verify, "adim_ladder", shifted)
    monkeypatch.setitem(globals(), "adim_ladder", shifted)


def test_merged_checkers_equal_their_references_on_every_class():
    for theorem, reference in MERGED_CHECKERS.items():
        for g in _class_graphs():
            assert THEOREMS[theorem](g) == reference(g), (theorem, to_graph6(g))


def test_merged_checkers_equal_their_references_on_shifted_ladders(monkeypatch):
    # every level a reference reads, moved up and down: each theorem then
    # reports violations, and they must be the reference's
    found = Counter()
    for level in range(4):
        for delta in (1, -1):
            with monkeypatch.context() as patch:
                _shift_ladders(patch, level, delta)
                for theorem, reference in MERGED_CHECKERS.items():
                    for g in _class_graphs():
                        triples = THEOREMS[theorem](g)
                        assert triples == reference(g), (theorem, level, delta)
                        found[theorem] += len(triples)
    assert min(found[theorem] for theorem in MERGED_CHECKERS) > 0


# a level (index) each theorem reads, which a shift makes it report on
SHIFTED_LEVEL = {"adim1-ge-3": 0, "adim3-eq-4": 2, "adim4-eq-5": 3, "k-plus-2": 1}


@pytest.mark.parametrize("theorem", sorted(SHIFTED_LEVEL))
def test_merged_checkers_pool_like_the_serial_sweep(monkeypatch, theorem):
    corpus = Corpus(min_n=2, max_n=7)
    serial = sweep_theorem(corpus, theorem)
    pooled = sweep_theorem(corpus, theorem, jobs=2)
    assert (pooled.checked, pooled.violations) == (serial.checked, [])
    # with a shifted ladder the reports are not empty; a pool made after
    # the shift reads it too, as its workers are forked from this process
    verify._close_pool()
    _shift_ladders(monkeypatch, SHIFTED_LEVEL[theorem], -1)
    records = Corpus(graph6_lines=tuple(map(to_graph6, _class_graphs())))
    try:
        serial = sweep_theorem(records, theorem)
        pooled = sweep_theorem(records, theorem, jobs=2)
    finally:
        verify._close_pool()
    assert serial.violations and pooled.violations == serial.violations
    assert pooled.checked == serial.checked == len(_class_graphs())


def test_parallel_sweep_matches_serial():
    corpus = Corpus(min_n=2, max_n=5)
    serial = sweep_theorem(corpus, "monotony")
    parallel = sweep_theorem(corpus, "monotony", jobs=2)
    assert serial.checked == parallel.checked
    assert serial.violations == parallel.violations


def test_conjecture_small_corpus():
    report = check_cone_conjecture(Corpus(min_n=2, max_n=5), range(1, 5))
    assert report.passed
    assert report.checked == 1098
    # a level below 1, a level that is not an integer or an empty range
    # would check no level at all
    for ks in ([], [0], range(0, 3), [-1], [1.5], [2, 1.5]):
        with pytest.raises(BadParameter, match=">= 1"):
            check_cone_conjecture(Corpus(min_n=2, max_n=4), ks)


def test_conjecture_takes_numpy_integer_levels():
    # levels are refused by errors.check_positive_int, which serves numpy
    # integers as the solver does
    numpy = pytest.importorskip("numpy")
    corpus = Corpus(min_n=2, max_n=5)
    report = check_cone_conjecture(corpus, [numpy.int64(2)])
    assert report._replace(elapsed=0) == check_cone_conjecture(
        corpus, [2]
    )._replace(elapsed=0)


def test_conjecture_keeps_a_wide_level_range_lazy():
    # only the cone ladder's levels are visited, and a range's lowest level
    # is read from its ends whatever its step
    corpus = Corpus(min_n=2, max_n=5)
    narrow = check_cone_conjecture(corpus, range(1, 8))
    wide = check_cone_conjecture(corpus, range(1, 10**18))
    assert (wide.checked, wide.violations) == (narrow.checked, narrow.violations)
    with pytest.raises(BadParameter, match="got 0"):
        check_cone_conjecture(corpus, range(10**18, -1, -1))
    assert check_cone_slack(fig3_graph(), range(2, 10**18)) == []


def test_conjecture_slack_fixtures():
    # fig3 at level 2 leaves slack 1; fig5 at level 3 is tight (slack 0)
    g3 = fig3_graph()
    lh = adim_ladder(g3)
    lc = adim_ladder(join(complete(1), g3))
    assert lc[1] == lh[1] + 1
    assert not check_cone_slack(g3, [2])
    g5 = fig5_graph()
    lh = adim_ladder(g5)
    lc = adim_ladder(join(complete(1), g5))
    assert lc[2] == lh[2] + 3
    assert not check_cone_slack(g5, [3])


def _ladder_cone_slack(h, k_range):
    """``check_cone_slack`` as it was before certificates, kept as the
    reference: the cone's exact ladder against H's at every level."""
    lh = adim_ladder(h) if h.n >= 2 else []
    lc = adim_ladder(join(complete(1), h)) if lh else []
    return [
        (k, lc[k - 1], f"<= {lh[k - 1] + k}")
        for k in range(1, len(lc) + 1)
        if k in k_range and lc[k - 1] > lh[k - 1] + k
    ]


def test_cone_certificates_are_generators_within_the_bound():
    # every level of every class with n <= 6 gets a certificate
    levels = 0
    for h in _class_graphs():
        if h.n > 6:
            continue
        table = build_table(h, 2)
        cone = build_table(join(complete(1), h), 2)
        for k in range(1, cone_dimensionality(h) + 1):
            s = verify._cone_certificate(h, minimum_cover(table, k).mask, k)
            assert s is not None, (to_graph6(h), k)
            assert is_k_generator(cone, k, VertexSet(cone.n, s)), (to_graph6(h), k)
            assert s.bit_count() <= adim_ladder(h)[k - 1] + k
            levels += 1
    assert levels == 456


def test_cone_slack_equals_the_ladder_comparison_on_every_class():
    for h in _class_graphs():
        expected = _ladder_cone_slack(h, range(1, 10))
        assert check_cone_slack(h, range(1, 10)) == expected, to_graph6(h)


def test_cone_slack_searches_the_cone_once_where_no_certificate_holds(
    monkeypatch,
):
    monkeypatch.setattr(verify, "_cone_certificate", lambda h, basis, k: None)
    tables = []
    real_build = verify.build_table

    def recording(g, t):
        tables.append(g)
        return real_build(g, t)

    monkeypatch.setattr(verify, "build_table", recording)
    for h in _class_graphs():
        if h.n > 5:
            continue
        tables.clear()
        assert check_cone_slack(h, range(1, 10)) == _ladder_cone_slack(
            h, range(1, 10)
        )
        assert tables == [h, join(complete(1), h)], to_graph6(h)

    # an exact cone value one above the bound is reported under each
    # labeled member's graph6, as (k, exact value, "<= adim_k(H) + k")
    def above(cone_table, k):
        cone = cone_table.graph  # K1 + H, apex at 0
        h = Graph(cone.n - 1, [row >> 1 for row in cone.rows[1:]])
        return adim_ladder(h)[k - 1] + k + 1

    monkeypatch.setattr(verify, "minimum_size", above)
    corpus = Corpus(min_n=2, max_n=4)
    report = check_cone_conjecture(corpus, range(1, 3))
    expected = [
        Violation(to_graph6(g), k, bound + 1, f"<= {bound}")
        for g in corpus
        for k in range(1, min(2, cone_dimensionality(g)) + 1)
        for bound in [adim_ladder(g)[k - 1] + k]
    ]
    expected.sort(key=lambda v: (v.graph6, v.k))
    assert report.checked == 74 and len(expected) > 74
    assert report.violations == expected


def test_conjecture_sweep_builds_one_table_per_class_and_no_cone(monkeypatch):
    calls = Counter()
    real_build, real_join = verify.build_table, verify.join

    def counting_build(g, t):
        calls["build_table"] += 1
        return real_build(g, t)

    def counting_join(g, h):
        calls["join"] += 1
        return real_join(g, h)

    monkeypatch.setattr(verify, "build_table", counting_build)
    monkeypatch.setattr(verify, "join", counting_join)
    real_build.cache_clear()
    report = check_cone_conjecture(Corpus(min_n=2, max_n=6), range(1, 5))
    assert report.passed and report.checked == 33866
    assert calls == {"build_table": 207}
    assert real_build.cache_info().misses == 207


def test_violation_stream_and_report_json():
    collected = []
    report = check_cone_conjecture(
        Corpus(min_n=2, max_n=3), range(1, 3), on_violation=collected.append
    )
    assert collected == []
    d = report.to_json_dict()
    assert d["theorem"] == "cone-conjecture"
    assert d["violations"] == []
    v = Violation("A_", 1, 2, 3)
    assert json.loads(json.dumps(v.to_json_dict())) == {
        "graph6": "A_", "k": 1, "observed": 2, "expected": 3,
    }


def test_nightly_order7_sweeps():
    for theorem in ("k-plus-2", "adim1-ge-3", "adim3-eq-4", "adim4-eq-5"):
        report = sweep_theorem(Corpus(min_n=7, max_n=7), theorem, jobs=4)
        assert report.passed, (theorem, report.violations[:3])
        assert report.checked == 1 << 21


def test_nightly_order6_dichotomy():
    report = sweep_theorem(
        Corpus(min_n=2, max_n=6), "cone-isolated-dichotomy", jobs=4
    )
    assert report.passed


# -- isomorphism-class sweeps ------------------------------------------------


def _orbit_by_relabeling(n, mask):
    """Pair masks of every relabeling of the graph with this pair mask."""
    pairs = list(combinations(range(n), 2))
    bit = {pair: b for b, pair in enumerate(pairs)}
    edges = [pair for b, pair in enumerate(pairs) if mask >> b & 1]
    return {
        sum(1 << bit[min(p[i], p[j]), max(p[i], p[j])] for i, j in edges)
        for p in permutations(range(n))
    }


def test_class_walk_counts_and_representatives():
    walks = [_classes(n) for n in range(8)]
    # A000088: graphs on n unlabeled vertices
    assert [len(w) for w in walks] == [1, 1, 2, 4, 11, 34, 156, 1044]
    for n, walk in enumerate(walks):
        assert sum(size for _, size, _ in walk) == 2 ** comb(n, 2)
        assert [r for r, _, _ in walk] == sorted(r for r, _, _ in walk)
        assert all(g == graph.from_pair_mask(n, rep) for rep, _, g in walk)
    for n, walk in enumerate(walks[:7]):
        for rep, size, _ in walk:
            orbit = _orbit_by_relabeling(n, rep)
            assert min(orbit) == rep and len(orbit) == size


def test_class_list_is_walked_once_per_order(monkeypatch):
    _classes.cache_clear()
    builds = Counter()
    real_tables = corpus_mod._relabel_tables

    def counting_tables(n):
        builds[n] += 1
        return real_tables(n)

    monkeypatch.setattr(corpus_mod, "_relabel_tables", counting_tables)
    corpus = Corpus(min_n=2, max_n=6)
    reports = [sweep_theorem(corpus, "monotony") for _ in range(2)]
    reports.append(sweep_theorem(corpus, "monotony", jobs=2))
    assert builds == Counter(range(2, 7))
    assert {(r.checked, tuple(r.violations)) for r in reports} == {(33866, ())}
    assert isinstance(_classes(6), tuple)
    with pytest.raises(TooLarge):
        _classes(8)
    with pytest.raises(BadParameter):
        _classes(-1)


def _labeled_reference(checker, corpus):
    """What a sweep must report: the checker on every labeled graph."""
    checked, violations = 0, []
    for g in corpus:
        checked += 1
        g6 = to_graph6(g)
        violations += [Violation(g6, *t) for t in checker(g)]
    violations.sort(key=lambda v: (v.graph6, v.k))
    return checked, violations


@pytest.mark.parametrize("theorem", sorted(THEOREMS))
def test_class_sweep_matches_labeled_reference(theorem):
    corpus = Corpus(min_n=2, max_n=5)
    report = sweep_theorem(corpus, theorem)
    assert (report.checked, report.violations) == _labeled_reference(
        THEOREMS[theorem], corpus
    )


def _edge_count_mod3(g):
    m = g.edge_count()
    return [(2, m, "!= 0 mod 3"), (1, m, "!= 0 mod 3")] if m % 3 == 0 else []


@pytest.mark.parametrize(
    "jobs, corpus",
    [
        (1, Corpus(min_n=2, max_n=6)),
        (2, Corpus(min_n=2, max_n=6)),
        (2, Corpus(min_n=2, max_n=6, connected=True, min_degree=2)),
    ],
    ids=["serial", "pool", "pool-filtered"],
)
def test_class_sweep_reports_every_labeled_violation(monkeypatch, jobs, corpus):
    monkeypatch.setitem(THEOREMS, "edges-mod-3", _edge_count_mod3)
    checked, violations = _labeled_reference(_edge_count_mod3, corpus)
    streamed = []
    report = sweep_theorem(corpus, "edges-mod-3", jobs, streamed.append)
    assert report.checked == checked
    assert report.violations == violations and len(violations) > 1000
    assert Counter(streamed) == Counter(violations)


def _recording_pool(monkeypatch) -> list[int]:
    """The jobs of every pooled sweep from now on, each handed the real kept
    pool."""
    asked = []
    real = verify._kept_pool

    def recording(jobs, checker):
        asked.append(jobs)
        return real(jobs, checker)

    monkeypatch.setattr(verify, "_kept_pool", recording)
    return asked


def _worker_pids() -> set[int]:
    # the kept pool's workers are this process's only multiprocessing children
    return {p.pid for p in multiprocessing.active_children()}


def test_conjecture_pool_for_any_k_range(monkeypatch):
    asked = _recording_pool(monkeypatch)
    corpus = Corpus(min_n=2, max_n=5)
    serial = check_cone_conjecture(corpus, range(1, 3))
    assert asked == []
    pooled = check_cone_conjecture(corpus, range(1, 3), jobs=2)
    assert asked == [2] and len(_worker_pids()) == 2
    assert pooled.checked == serial.checked == 1098
    assert pooled.violations == serial.violations


def _labeled_pair_reference(checker, corpus):
    """What a pair sweep must report: the checker on every unordered pair of
    labeled corpus graphs, a graph paired with itself included."""
    graphs = list(corpus)
    checked, violations = 0, []
    for i, g in enumerate(graphs):
        for h in graphs[i:]:
            checked += 1
            name = f"{to_graph6(g)}+{to_graph6(h)}"
            violations += [Violation(name, *t) for t in checker(g, h)]
    violations.sort(key=lambda v: (v.graph6, v.k))
    return checked, violations


def _edge_sum_mod3(g, h):
    m = g.edge_count() + h.edge_count()
    return [(1, m, "!= 0 mod 3")] if m % 3 == 0 else []


def _g6_corpus(**filters):
    # a sample of labeled graphs with 2 <= n <= 5, out of order, with three
    # records repeated and a blank line
    labeled = [to_graph6(g) for g in Corpus(min_n=2, max_n=5)]
    lines = labeled[5::29] + labeled[::13] + [""]
    return Corpus(graph6_lines=tuple(lines), **filters)


PAIR_CORPORA = [
    (1, Corpus(min_n=1, max_n=4)),
    (2, Corpus(min_n=1, max_n=4)),
    (2, Corpus(min_n=2, max_n=4, connected=True)),
    (1, Corpus(min_n=3, max_n=4, min_degree=1)),
    (1, _g6_corpus()),
    (2, _g6_corpus(min_degree=1)),
    (3, _g6_corpus(min_degree=1)),
]


@pytest.mark.parametrize(
    "corpus",
    [Corpus(0, 5), Corpus(2, 5, connected=True, min_degree=1), _g6_corpus()],
    ids=["orders", "filtered", "g6"],
)
def test_entries_expand_into_the_labeled_graphs(corpus):
    # each entry stands for as many labeled graphs as its weight, and all
    # entries together stand for the labeled iteration, repeats included
    relabel, names = {}, Counter()
    for entry in corpus.entries():
        members = corpus_mod.labeled_members((entry,), relabel)
        assert len(members) == entry[1]
        assert all(name == to_graph6(g) for name, (g,) in members)
        names.update(name for name, _ in members)
    assert names == Counter(map(to_graph6, corpus))


@pytest.mark.parametrize(
    "jobs, corpus",
    PAIR_CORPORA,
    ids=[
        "serial", "pool", "pool-connected", "serial-min-degree", "g6", "g6-pool",
        "g6-pool-3",
    ],
)
def test_pair_sweep_matches_labeled_pair_reference(monkeypatch, jobs, corpus):
    monkeypatch.setitem(PAIR_THEOREMS, "edge-sum-mod-3", _edge_sum_mod3)
    checked, violations = _labeled_pair_reference(_edge_sum_mod3, corpus)
    streamed = []
    report = sweep_theorem(corpus, "edge-sum-mod-3", jobs, streamed.append)
    assert report.checked == checked
    assert report.violations == violations and len(violations) > 100
    assert Counter(streamed) == Counter(violations)


@pytest.mark.parametrize("theorem", sorted(PAIR_THEOREMS))
def test_pair_theorems_match_labeled_pair_reference(theorem):
    corpus = Corpus(min_n=2, max_n=4)
    assert _labeled_pair_reference(PAIR_THEOREMS[theorem], corpus) == (2775, [])
    report = sweep_theorem(corpus, theorem, jobs=2)
    assert (report.checked, report.violations) == (2775, [])


def test_graph6_corpus_uses_the_pool(monkeypatch):
    asked = _recording_pool(monkeypatch)
    monkeypatch.setitem(THEOREMS, "edges-mod-3", _edge_count_mod3)
    corpus = _g6_corpus()
    serial = sweep_theorem(corpus, "edges-mod-3")
    assert asked == []
    pooled = sweep_theorem(corpus, "edges-mod-3", jobs=2)
    assert asked == [2] and len(_worker_pids()) == 2
    assert (pooled.checked, pooled.violations) == (serial.checked, serial.violations)
    assert serial.checked == len(corpus.graph6_lines) - 1 and serial.violations
    assert (serial.checked, serial.violations) == _labeled_reference(
        _edge_count_mod3, corpus
    )


def test_pool_shards_carry_the_corpus_and_a_slice_not_graphs(monkeypatch):
    # each worker takes its slice of units from the corpus itself, so a
    # shard holds no graph; run here, the shards report on one queue
    asked, shards = [], []
    reports = SimpleQueue()

    class InProcessPool:
        def apply_async(self, fn, args, error_callback):
            shards.append(args[0])
            fn(*args)

    def in_process_pool(jobs, checker):
        asked.append(jobs)
        return InProcessPool(), reports

    monkeypatch.setattr(verify, "_kept_pool", in_process_pool)
    monkeypatch.setattr(verify, "_queue", reports)
    monkeypatch.setitem(THEOREMS, "edges-mod-3", _edge_count_mod3)
    corpus = _g6_corpus(min_degree=1)
    serial = sweep_theorem(corpus, "edges-mod-3")
    assert asked == []
    pooled = sweep_theorem(corpus, "edges-mod-3", jobs=2)
    assert asked == [2]
    assert shards == [(_edge_count_mod3, corpus, 1, part, 2) for part in (0, 1)]
    for shard in shards:
        assert b"Graph" not in pickle.dumps(shard)
    assert (pooled.checked, pooled.violations) == (serial.checked, serial.violations)
    assert serial.violations and reports.empty()


def test_a_pool_wider_than_the_corpus_still_reports(monkeypatch):
    # three units over four slices: the last slice is empty, and its count
    # of 0 still ends it
    monkeypatch.setitem(THEOREMS, "edges-mod-3", _edge_count_mod3)
    corpus = Corpus(min_n=1, max_n=2)
    serial = sweep_theorem(corpus, "edges-mod-3")
    pooled = sweep_theorem(corpus, "edges-mod-3", jobs=4)
    assert (pooled.checked, pooled.violations) == (serial.checked, serial.violations)
    assert serial.checked == 3 and serial.violations


def _reports_then_waits(marker: str, g):
    # a violation on the empty graph on two vertices; on K2, checked later
    # in the same slice, wait until the parent has seen that violation
    if g.n != 2:
        return []
    if not g.edge_count():
        return [(0, "reported", "before the wait")]
    deadline = time.monotonic() + 30
    while not os.path.exists(marker):
        if time.monotonic() > deadline:
            return [(0, "no violation seen", "while its slice ran")]
        time.sleep(0.005)
    return []


def test_a_pooled_violation_is_seen_while_its_slice_runs(monkeypatch, tmp_path):
    # K2 ('A_') is the ninth record and the empty graph ('A?') the first,
    # so one slice holds both at any jobs dividing 8; the slice ends only
    # once on_violation has seen the first record's violation
    marker = tmp_path / "seen"
    monkeypatch.setitem(
        THEOREMS, "reports-then-waits", partial(_reports_then_waits, str(marker))
    )
    corpus = Corpus(graph6_lines=("A?", *["B?"] * 7, "A_"))
    seen = []

    def on_violation(v):
        seen.append(v)
        marker.touch()

    report = sweep_theorem(corpus, "reports-then-waits", 2, on_violation)
    assert seen == report.violations == [
        Violation("A?", 0, "reported", "before the wait")
    ]


def _worker_pid(g):
    # one report per graph, naming the process that checked it
    return [(0, os.getpid(), "checked in this process")]


def _pooled_pids(corpus, jobs):
    report = sweep_theorem(corpus, "worker-pid", jobs)
    return {v.observed for v in report.violations}


def test_pooled_sweeps_reuse_the_workers_of_one_pool(monkeypatch):
    monkeypatch.setitem(THEOREMS, "worker-pid", _worker_pid)
    corpus = Corpus(min_n=2, max_n=4)
    first = _pooled_pids(corpus, 2)
    workers = _worker_pids()
    second = _pooled_pids(corpus, 2)
    assert len(workers) == 2 and _worker_pids() == workers
    assert first | second <= workers
    # a different jobs replaces the pool: its workers are all new
    wider = _pooled_pids(corpus, 4)
    assert len(_worker_pids()) == 4 and not _worker_pids() & workers
    assert wider <= _worker_pids()


def _table_was_cached(g):
    hits = build_table.cache_info().hits
    build_table(g, 2)
    if build_table.cache_info().hits > hits:
        return [(0, "table from the cache", "table built for this shard")]
    return []


def test_a_worker_starts_each_sweep_from_an_empty_table_cache(monkeypatch):
    # every class graph is its own graph, so within one sweep no table is
    # asked for twice; a hit would be a table kept from an earlier sweep
    monkeypatch.setitem(THEOREMS, "table-cached", _table_was_cached)
    corpus = Corpus(min_n=2, max_n=5)
    sweep_theorem(corpus, "monotony")  # caches tables a new pool would inherit
    for _ in range(2):
        assert sweep_theorem(corpus, "table-cached", jobs=2).violations == []


def test_each_shard_starts_from_an_empty_table_cache(monkeypatch):
    # neither a table built before a shard nor one an earlier shard of the
    # same worker built answers for it
    g = path(4)
    build_table(g, 2)
    reports = SimpleQueue()
    monkeypatch.setattr(verify, "_queue", reports)
    shard = (_table_was_cached, Corpus(graph6_lines=(to_graph6(g),)), 1, 0, 1)
    for _ in range(2):
        verify._sweep_slice(shard)
        assert reports.get_nowait() == 1 and reports.empty()


def test_a_kept_pool_follows_the_budget_variable(monkeypatch):
    # a worker reads the environment it was forked with, so a pool made
    # without a budget must not answer once ADIMLAB_BUDGET is set
    monkeypatch.delenv("ADIMLAB_BUDGET", raising=False)
    corpus = Corpus(min_n=2, max_n=4)
    assert check_cone_conjecture(corpus, jobs=2).passed
    monkeypatch.setenv("ADIMLAB_BUDGET", "0")
    for jobs in (1, 2):
        with pytest.raises(BudgetExhausted):
            check_cone_conjecture(corpus, jobs=jobs)


def _fails_on_the_triangle(g):
    if g.n == 3 and g.edge_count() == 3:
        raise RuntimeError("checker failed")
    return []


def test_a_failed_pooled_sweep_drops_its_pool(monkeypatch):
    monkeypatch.setitem(THEOREMS, "fails", _fails_on_the_triangle)
    monkeypatch.setitem(THEOREMS, "edges-mod-3", _edge_count_mod3)
    corpus = Corpus(min_n=2, max_n=5)
    serial = sweep_theorem(corpus, "edges-mod-3")
    sweep_theorem(corpus, "edges-mod-3", jobs=2)
    workers = _worker_pids()
    with pytest.raises(RuntimeError, match="checker failed"):
        sweep_theorem(corpus, "fails", jobs=2)
    assert _worker_pids() == set()
    pooled = sweep_theorem(corpus, "edges-mod-3", jobs=2)
    assert (pooled.checked, pooled.violations) == (serial.checked, serial.violations)
    assert len(_worker_pids()) == 2 and not _worker_pids() & workers


class _Unpicklable(Exception):
    """An exception holding a lock, which pickle refuses."""

    def __init__(self):
        super().__init__("holds a lock")
        self.lock = threading.Lock()


def _raises_unpicklable(g):
    if g.n == 3 and g.edge_count() == 3:
        raise _Unpicklable()
    return []


def test_an_error_the_pool_cannot_send_drops_the_pool(monkeypatch):
    # a worker's exception that cannot be pickled is named in one that can,
    # and a checker that cannot be pickled never reaches a worker: either
    # way the parent raises at once instead of waiting for the slice
    monkeypatch.setitem(THEOREMS, "unpicklable-error", _raises_unpicklable)
    monkeypatch.setitem(THEOREMS, "local-checker", lambda g: [])
    corpus = Corpus(min_n=2, max_n=4)
    with pytest.raises(RuntimeError, match="_Unpicklable.*holds a lock"):
        sweep_theorem(corpus, "unpicklable-error", jobs=2)
    assert _worker_pids() == set()
    with pytest.raises((AttributeError, pickle.PicklingError), match="pickle"):
        sweep_theorem(corpus, "local-checker", jobs=2)
    assert _worker_pids() == set()


LATE_CHECKER = """
from adimlab.verify import THEOREMS, Corpus, sweep_theorem
corpus = Corpus(min_n=2, max_n=4)
sweep_theorem(corpus, "monotony", jobs=2)
def late(g):
    return []
THEOREMS["late"] = late
first = sweep_theorem(corpus, "late", jobs=2)
def late(g):
    return [(0, "redefined", "checker")]
THEOREMS["late"] = late
second = sweep_theorem(corpus, "late", jobs=2)
print(first.checked, len(first.violations), len(second.violations))
"""


def test_a_checker_made_after_the_pool_gets_new_workers():
    # a worker unpickles the checker by name from the module state it was
    # forked with: a checker __main__ defines after the first pooled sweep
    # would kill the worker and leave the sweep waiting forever, and one it
    # redefines would run its old definition
    src = str(Path(adimlab.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-c", LATE_CHECKER], env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    assert proc.returncode == 0, err
    assert out.split() == ["74", "0", "74"]


def _sweep_in_child(queue):
    report = sweep_theorem(Corpus(min_n=2, max_n=4), "worker-pid", jobs=2)
    queue.put({v.observed for v in report.violations})


def test_a_forked_child_makes_its_own_pool(monkeypatch):
    # the parent's kept pool is not the child's: its workers are not the
    # child's children, and using it there would wait forever
    monkeypatch.setitem(THEOREMS, "worker-pid", _worker_pid)
    _pooled_pids(Corpus(min_n=2, max_n=3), 2)
    workers = _worker_pids()
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_sweep_in_child, args=(queue,))
    child.start()
    try:
        pids = queue.get(timeout=30)
    finally:
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0
    assert pids and not pids & workers and child.pid not in pids
    assert _worker_pids() == workers


def _close_pool_in_child():
    verify._close_pool()
    assert verify._pool is None


def test_a_forked_child_closing_the_pool_leaves_the_parents_workers(monkeypatch):
    # the child drops the pool record it inherited; the workers are the
    # parent's, so they stay up and serve the parent's next sweep
    monkeypatch.setitem(THEOREMS, "worker-pid", _worker_pid)
    corpus = Corpus(min_n=2, max_n=3)
    _pooled_pids(corpus, 2)
    workers = _worker_pids()
    ctx = multiprocessing.get_context("fork")
    child = ctx.Process(target=_close_pool_in_child)
    child.start()
    child.join(timeout=30)
    if child.is_alive():
        child.kill()
    assert child.exitcode == 0
    for pid in workers:
        os.kill(pid, 0)
    assert _pooled_pids(corpus, 2) <= workers
    assert _worker_pids() == workers


def test_corpus_iteration_names_an_undecodable_record():
    with pytest.raises(MalformedHeader, match=r"graph6 record 2 'D~\{xx': 2 trailing"):
        list(Corpus(graph6_lines=("CF", "D~{xx")))


def test_corpus_refuses_an_order_above_the_cap_when_made(monkeypatch):
    walked = []
    real_classes = corpus_mod._classes
    monkeypatch.setattr(
        corpus_mod, "_classes", lambda n: walked.append(n) or real_classes(n)
    )
    capped = r"^labeled enumeration is capped at n <= 7, got 8$"
    for orders in ((6, 8), (8, None)):
        with pytest.raises(TooLarge, match=capped):
            Corpus(*orders)
    assert walked == []


def test_corpus_refuses_empty_and_negative_order_ranges():
    for min_n, max_n in ((4, 3), (-1, 3), (-2, -1)):
        with pytest.raises(BadParameter, match="min_n"):
            Corpus(min_n=min_n, max_n=max_n)
    with pytest.raises(BadParameter):
        Corpus(min_n=3, max_n=2, graph6_lines=("D~{",))
    assert sum(1 for _ in Corpus(min_n=0, max_n=0)) == 1


def test_cone_equality_sweep_reports_a_wrong_criterion(monkeypatch):
    # with the criterion's verdict flipped, every feasible (H, k) must fail
    def flipped(h, k):
        report = cone_equality_criterion(h, k)
        return report._replace(holds=not report.holds)

    monkeypatch.setattr(formulas, "cone_equality_criterion", flipped)
    corpus = Corpus(min_n=2, max_n=4)
    report = sweep_theorem(corpus, "cone-equality")
    assert report.checked == 74
    assert len(report.violations) == sum(
        len(adim_ladder(join(complete(1), h))) for h in corpus
    )


def test_full_dimension_sweep_reports_a_wrong_criterion(monkeypatch):
    # with the criterion's verdict flipped, every feasible (G, k) must fail
    def flipped(g, k):
        report = full_dimension_criteria(g, k)
        return report._replace(holds=not report.holds)

    monkeypatch.setattr(formulas, "full_dimension_criteria", flipped)
    corpus = Corpus(min_n=2, max_n=4)
    report = sweep_theorem(corpus, "full-dimension")
    assert report.checked == 74
    assert len(report.violations) == sum(len(adim_ladder(g)) for g in corpus)


def test_graph6_corpus_is_taken_whole_whatever_the_orders(tmp_path):
    # the order bounds choose the enumeration's orders, not a file's
    # records: the order-10 record above the default orders is swept, and
    # orders next to a file are refused rather than ignored
    f = tmp_path / "mixed.g6"
    f.write_text(f"{to_graph6(petersen())}\n{to_graph6(path(5))}\n")
    corpus = Corpus.from_file(str(f))
    assert [g.n for g in corpus] == [10, 5]
    report = sweep_theorem(corpus, "monotony")
    assert (report.checked, report.violations) == (2, [])
    for orders in ({"max_n": 3}, {"min_n": 2, "max_n": 12}):
        with pytest.raises(BadParameter, match="swept whole"):
            Corpus.from_file(str(f), **orders)
    report = sweep_theorem(Corpus.from_file(str(f), min_degree=2), "monotony")
    assert report.checked == 1


def test_pair_sweep_decodes_each_record_once(monkeypatch):
    decoded = []
    real = graph.from_graph6

    def counting(text):
        decoded.append(text)
        return real(text)

    monkeypatch.setattr(graph, "from_graph6", counting)
    monkeypatch.setitem(PAIR_THEOREMS, "edge-sum-mod-3", _edge_sum_mod3)
    lines = tuple(to_graph6(g) for g in Corpus(min_n=4, max_n=4))[:12]
    for jobs in (1, 2):
        decoded.clear()
        report = sweep_theorem(
            Corpus(graph6_lines=lines), "edge-sum-mod-3", jobs
        )
        assert report.checked == 12 * 13 // 2 and report.violations
        assert sorted(decoded) == sorted(lines)


@pytest.mark.parametrize(
    "corpus",
    [
        Corpus(graph6_lines=()),
        Corpus(graph6_lines=("", "  ")),
        Corpus(graph6_lines=("C?",), connected=True),
        Corpus(min_n=2, max_n=4, min_degree=9),
    ],
    ids=["empty-file", "blank-file", "file-filtered", "orders-filtered"],
)
def test_a_sweep_that_would_check_nothing_is_refused(corpus):
    for run in (
        lambda: sweep_theorem(corpus, "monotony"),
        lambda: sweep_theorem(corpus, "join-lower", jobs=2),
        lambda: check_cone_conjecture(corpus),
    ):
        with pytest.raises(BadParameter, match="min_degree=.*nothing to check"):
            run()


def test_corpus_refuses_a_negative_min_degree():
    with pytest.raises(BadParameter, match="min_degree must be >= 0"):
        Corpus(min_degree=-1)
    assert sum(1 for _ in Corpus(min_n=3, max_n=3, min_degree=0)) == 8


LAZY_FORMULAS = """
import sys
sys.path.insert(0, sys.argv[1])
from adimlab.verify import Corpus, check_cone_conjecture, sweep_theorem
cone = check_cone_conjecture(Corpus(2, 4), jobs=1)
monotony = sweep_theorem(Corpus(2, 4), "monotony", jobs=1)
print(cone.checked, monotony.checked, "adimlab.formulas" in sys.modules)
"""


def test_sweeps_that_need_no_closed_form_never_load_formulas():
    # verify imports formulas only inside the checkers that call it, so the
    # start-up of every other sweep never pays for loading it
    src = str(Path(adimlab.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-I", "-c", LAZY_FORMULAS, src],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["74", "74", "False"]
