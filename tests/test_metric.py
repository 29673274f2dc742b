import copy
import math
import pickle
import random
from collections import deque

import pytest
from hypothesis import given, settings

from adimlab.errors import (
    BadParameter,
    KExceedsDimensionality,
    OutOfRange,
    SamePair,
    TooSmall,
)
from adimlab.graph import (
    bfs_distances,
    complement,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    fig2_graph,
    hypercube,
    join,
    path,
    petersen,
)
from adimlab.metric import (
    DistinguishTable,
    adjacency_dimensionality,
    build_table,
    cone_dimensionality,
    dimensionality,
    distinguishing_set,
    forced_set,
    join_dimensionality,
    pair_rank,
    truncated_distance,
)

from conftest import graphs, random_graph


def _hop_distances(g, source):
    """Breadth-first distances over ``g.neighbors``, independent of the
    package's own walk; unreachable vertices get math.inf."""
    dist = [math.inf] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in g.neighbors(v):
            if dist[w] == math.inf:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def oracle_pair_set(g, t, x, y):
    """Distinguishing set straight from the definition via BFS distances."""
    dx = _hop_distances(g, x)
    dy = _hop_distances(g, y)
    return {z for z in range(g.n) if min(dx[z], t) != min(dy[z], t)}


def test_truncated_distance_values():
    p5 = path(5)
    assert truncated_distance(p5, 2, 0, 4) == 2
    assert truncated_distance(p5, 4, 0, 4) == 4
    assert truncated_distance(p5, 2, 1, 1) == 0
    g = disjoint_union(complete(1), complete(2))
    assert truncated_distance(g, 2, 0, 1) == 2  # unreachable saturates to t
    with pytest.raises(BadParameter):
        truncated_distance(p5, 0, 0, 1)


def test_distinguishing_set_paper_values():
    assert distinguishing_set(complete(3), 2, 0, 1).to_list() == [0, 1]
    assert distinguishing_set(path(4), 2, 0, 1).to_list() == [0, 1, 2]
    assert distinguishing_set(cycle(7), 2, 3, 4).to_list() == [2, 3, 4, 5]
    with pytest.raises(SamePair):
        distinguishing_set(path(4), 2, 2, 2)
    with pytest.raises(BadParameter):
        distinguishing_set(path(4), 0, 0, 1)
    for x, y in ((0, 4), (-1, 2), (5, 1)):
        with pytest.raises(OutOfRange):
            distinguishing_set(path(4), 2, x, y)


def test_pair_lookups_refuse_vertices_out_of_range():
    # a vertex outside 0..n-1 would rank as another pair, or past the array
    table = build_table(path(5), 2)
    for x, y in ((0, 7), (7, 0), (-1, 2), (2, -1), (4, 9), (5, 6)):
        with pytest.raises(OutOfRange, match=f"pair \\({x}, {y}\\) out of 0..4"):
            table.pair_mask(x, y)
        with pytest.raises(OutOfRange):
            table.pair_set(x, y)
    with pytest.raises(SamePair):
        table.pair_set(3, 3)
    assert table.pair_set(4, 3).to_list() == [2, 3, 4]


def test_pair_rank_round_trip():
    n = 9
    ranks = [pair_rank(n, x, y) for x in range(n) for y in range(x + 1, n)]
    assert ranks == list(range(n * (n - 1) // 2))


def test_build_table_small():
    t = build_table(complete(2), 2)
    assert t.pair_set(0, 1).to_list() == [0, 1]
    assert t.min_pair_size() == 2


def test_a_table_without_pairs_has_no_smallest_pair_set():
    assert build_table(complete(1), 2).min_pair_size() is None


def test_petersen_pair_sizes():
    # brute-force per-pair scan: strongly regular, so every pair set has 6
    t = build_table(petersen(), 2)
    sizes = {len(oracle_pair_set(petersen(), 2, x, y))
             for x in range(10) for y in range(x + 1, 10)}
    assert sizes == {6}
    assert t.min_pair_size() == 6


def test_path6_end_pairs():
    t = build_table(path(6), 2)
    assert t.pair_set(0, 1).to_list() == [0, 1, 2]
    assert 3 in [m.bit_count() for m in t.pair_masks]


def test_dimensionality_paper_values():
    assert adjacency_dimensionality(hypercube(3)) == 4
    assert adjacency_dimensionality(cycle(8)) == 4
    assert adjacency_dimensionality(path(7)) == 3
    assert adjacency_dimensionality(complete_bipartite(3, 4)) == 2
    with pytest.raises(TooSmall):
        dimensionality(build_table(complete(1), 2))


def test_forced_set_values():
    c5 = build_table(cycle(5), 2)
    assert forced_set(c5, 4).to_list() == [0, 1, 2, 3, 4]
    p6 = build_table(path(6), 2)
    assert forced_set(p6, 3).to_list() == [0, 1, 2, 3, 4, 5]
    pet = build_table(petersen(), 2)
    assert forced_set(pet, 2).to_list() == []
    with pytest.raises(
        KExceedsDimensionality,
        match="^no 4-generator exists: the dimensionality bound is 3$",
    ):
        forced_set(p6, 4)
    for k in (0, -1):
        with pytest.raises(KExceedsDimensionality, match=f"^k must be >= 1, got {k}$"):
            forced_set(p6, k)


def test_cone_join_dimensionality_closed_forms():
    assert cone_dimensionality(cycle(7)) == 4
    assert join_dimensionality(complete(3), complete(3)) == 2
    assert cone_dimensionality(path(9)) == 3
    rng = random.Random(17)
    for _ in range(60):
        h = random_graph(rng, rng.randint(2, 7))
        assert cone_dimensionality(h) == adjacency_dimensionality(
            join(complete(1), h)
        )
        g = random_graph(rng, rng.randint(2, 5))
        assert join_dimensionality(g, h) == adjacency_dimensionality(join(g, h))


@given(graphs(min_n=2, max_n=8))
@settings(max_examples=300, deadline=None)
def test_shortcut_matches_bfs_definition(g):
    t = build_table(g, 2)
    for x, y, mask in t.pairs():
        assert set(t.pair_set(x, y)) == oracle_pair_set(g, 2, x, y)
        assert x in t.pair_set(x, y) and y in t.pair_set(x, y)


@given(graphs(min_n=2, max_n=7))
@settings(max_examples=150, deadline=None)
def test_higher_levels_match_definition(g):
    for t in (1, 3, 4):
        table = build_table(g, t)
        for x, y, mask in table.pairs():
            expected = oracle_pair_set(g, t, x, y)
            assert set(table.pair_set(x, y)) == expected
            assert set(distinguishing_set(g, t, x, y)) == expected


def test_generator_survives_level_increase():
    # if S hits every pair set at level t, it still does at level t+1
    rng = random.Random(23)
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 7))
        smask = rng.getrandbits(g.n)
        for t in (2, 3):
            lo = build_table(g, t)
            hi = build_table(g, t + 1)
            if all((smask & m).bit_count() >= 1 for m in lo.pair_masks):
                assert all((smask & m).bit_count() >= 1 for m in hi.pair_masks)


@given(graphs(min_n=2, max_n=8))
@settings(max_examples=200, deadline=None)
def test_complement_has_identical_pair_sets(g):
    assert build_table(g, 2).pair_masks == build_table(complement(g), 2).pair_masks


@given(graphs(min_n=2, max_n=8))
@settings(max_examples=200, deadline=None)
def test_degree_bound(g):
    t = build_table(g, 2)
    for x, y, mask in t.pairs():
        assert mask.bit_count() <= g.degree(x) + g.degree(y) + 2


def test_girth_bound_examples():
    # girth >= 5 with min degree >= 2 pushes the bound to 2*delta
    assert adjacency_dimensionality(petersen()) >= 6
    for n in range(5, 12):
        assert adjacency_dimensionality(cycle(n)) >= 4


def test_infinite_distance_is_sentinel():
    g = disjoint_union(complete(1), complete(1))
    assert bfs_distances(g, 0)[1] is math.inf
    # saturation: the pair is indistinguishable beyond its own members
    t = build_table(g, 5)
    assert t.pair_set(0, 1).to_list() == [0, 1]


def test_levels_beyond_the_order_cost_no_more_than_level_n():
    # no distance reaches n, so every level t >= n is the level-n table;
    # a huge t must not size any per-vertex work by t
    huge = 10**9
    for g in (path(5), disjoint_union(path(3), cycle(4))):
        assert build_table(g, huge).pair_masks == build_table(g, g.n).pair_masks
        for x in range(g.n):
            dist = _hop_distances(g, x)
            for y in range(g.n):
                assert truncated_distance(g, huge, x, y) == min(dist[y], huge)


def test_distinguish_table_survives_pickle_and_deepcopy():
    table = build_table(petersen(), 2)
    for twin in (pickle.loads(pickle.dumps(table)), copy.deepcopy(table)):
        assert twin is not table
        assert twin.graph == table.graph and twin.t == table.t
        assert twin.pair_masks == table.pair_masks
        assert twin.min_pair_size() == table.min_pair_size()


def test_a_pickled_or_copied_table_is_rebuilt_from_its_graph_and_level():
    # t = 24 is the order of fig2: the full metric, read off walks, not rows
    g = fig2_graph()
    for t in (2, 24):
        table = DistinguishTable(g, t)
        for twin in (pickle.loads(pickle.dumps(table)), copy.deepcopy(table)):
            assert twin.graph == g and twin.t == t
            assert twin.pair_masks == table.pair_masks


def test_a_table_is_made_from_its_graph_and_level_alone():
    # the pair sets come from (graph, t); no caller hands in other sets
    with pytest.raises(BadParameter, match="^truncation level must be >= 1, got 0$"):
        DistinguishTable(path(5), 0)
    with pytest.raises(TypeError):
        DistinguishTable(complete(3), 2, [0b110] * 3)
    assert DistinguishTable(complete(3), 2).pair_masks == (0b011, 0b101, 0b110)


def test_a_level_that_is_not_an_integer_is_refused_where_it_enters():
    # no walk has 2.5 layers, so t = 2.5 would read the full metric, and no
    # pair set has 1.5 vertices; a cached level-2 table does not serve 2.0
    p5 = path(5)
    build_table(p5, 2)
    for t in (2.5, 2.0, "2"):
        message = f"^truncation level must be an integer, got {t!r}$"
        for make in (build_table, DistinguishTable):
            with pytest.raises(BadParameter, match=message):
                make(p5, t)
        with pytest.raises(BadParameter, match=message):
            truncated_distance(p5, t, 0, 4)
    table = build_table(cycle(6), 2)
    for k in (1.5, 2.0):
        with pytest.raises(
            KExceedsDimensionality, match=f"^k must be an integer, got {k!r}$"
        ):
            forced_set(table, k)
    # a bool is an integer
    assert build_table(p5, True).pair_masks == build_table(p5, 1).pair_masks
    assert truncated_distance(p5, True, 0, 4) == 1
    assert forced_set(build_table(p5, 2), True) == forced_set(build_table(p5, 2), 1)


def test_numpy_integer_levels_are_taken():
    np = pytest.importorskip("numpy")
    p5, c6 = path(5), build_table(cycle(6), 2)
    assert build_table(p5, np.int64(3)).pair_masks == build_table(p5, 3).pair_masks
    assert truncated_distance(p5, np.int64(3), 0, 4) == 3
    assert forced_set(c6, np.int64(2)) == forced_set(c6, 2)
