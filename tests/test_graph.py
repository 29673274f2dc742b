import copy
import inspect
import math
import pickle
import random
from functools import reduce
from itertools import combinations
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adimlab.bitset import VertexSet
from adimlab.corpus import _classes
from adimlab.errors import BadParameter, OutOfRange, SelfLoop
from adimlab.graph import (
    FALSE_TWIN,
    SINGLETON,
    TRUE_TWIN,
    Graph,
    are_twins,
    bfs_distances,
    bfs_layers,
    complement,
    complete,
    complete_bipartite,
    components,
    cycle,
    diameter,
    disjoint_union,
    empty_graph,
    fan,
    fig1_graph,
    fig2_graph,
    fig5_graph,
    format_edge_list,
    from_edge_list,
    from_graph6,
    from_pair_mask,
    hypercube,
    is_connected,
    is_tree,
    join,
    path,
    petersen,
    read_edge_list,
    to_graph6,
    twin_partition,
    twin_prefix,
    wheel,
)

from conftest import graphs, random_graph


def test_from_edge_list_basic():
    g = from_edge_list(2, [(0, 1)])
    assert g.neighbors(0).to_list() == [1]
    assert empty_graph(3).edge_count() == 0


def test_from_edge_list_dedup_and_errors():
    g = from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1
    with pytest.raises(OutOfRange):
        from_edge_list(3, [(0, 3)])
    with pytest.raises(SelfLoop):
        from_edge_list(3, [(1, 1)])


def test_fig5_degree_profile():
    # hub vertex 0 is adjacent to everything except vertex 3
    g = fig5_graph()
    assert g.n == 9
    assert g.degree(0) == 7
    assert not g.has_edge(0, 3)


def test_generator_shapes():
    assert path(4).degrees() == [1, 2, 2, 1]
    q3 = hypercube(3)
    assert (q3.n, q3.edge_count()) == (8, 12)
    assert all(d == 3 for d in q3.degrees())
    assert complete(5).degrees() == [4] * 5
    assert complete_bipartite(2, 3).degrees() == [3, 3, 2, 2, 2]
    assert petersen().degrees() == [3] * 10
    assert cycle(6).degrees() == [2] * 6


def test_generator_parameter_errors():
    with pytest.raises(BadParameter):
        cycle(2)
    with pytest.raises(BadParameter):
        wheel(2)
    with pytest.raises(BadParameter):
        path(0)


def test_join_is_fan_and_wheel():
    assert join(complete(1), path(3)) == fan(3)
    assert fan(3).max_degree() == 3
    w5 = join(empty_graph(1), cycle(5))
    assert w5 == wheel(5)
    assert w5.degrees()[0] == 5 and all(d == 3 for d in w5.degrees()[1:])


def test_join_degrees_and_diameter():
    rng = random.Random(11)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 6))
        h = random_graph(rng, rng.randint(2, 6))
        gh = join(g, h)
        for v in range(g.n):
            assert gh.degree(v) == g.degree(v) + h.n
        assert diameter(gh) <= 2


def test_complement_involution_and_fixeds():
    assert complement(complete(3)) == empty_graph(3)
    rng = random.Random(5)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 9))
        assert complement(complement(g)) == g


def test_disjoint_union_keeps_components():
    g = disjoint_union(complete(1), complete(1))
    assert bfs_distances(g, 0)[1] == math.inf
    assert diameter(g) == math.inf
    assert not is_connected(g)
    assert components(g) == [0b01, 0b10]
    assert components(complete(1)) == [1]
    assert is_connected(complete(1))
    assert components(path(4)) == [0b1111]
    assert is_connected(path(4))
    two = disjoint_union(path(2), cycle(3))
    assert components(two) == [0b00011, 0b11100]
    assert not is_connected(two)


def test_bfs_distances_path_and_errors():
    assert bfs_distances(path(5), 0) == [0, 1, 2, 3, 4]
    with pytest.raises(OutOfRange):
        bfs_distances(path(5), 5)


def test_bfs_layers_path_components_and_errors():
    assert bfs_layers(path(5), 0) == [1, 2, 4, 8, 16]
    assert bfs_layers(path(5), 2) == [0b00100, 0b01010, 0b10001]
    assert bfs_layers(path(5), 0, 2) == [1, 2]
    assert bfs_layers(path(5), 0, 10**9) == [1, 2, 4, 8, 16]
    two = disjoint_union(path(2), cycle(3))
    for v in range(two.n):
        layers = bfs_layers(two, v)
        assert reduce(or_, layers) == (0b00011 if v < 2 else 0b11100)
        assert all(a & b == 0 for i, a in enumerate(layers) for b in layers[:i])
    with pytest.raises(OutOfRange):
        bfs_layers(path(5), 5)
    with pytest.raises(OutOfRange):
        bfs_layers(path(5), -1)
    # a limit counts layers, so it is at least 1, as a truncation level is
    assert bfs_layers(path(4), 0, 1) == [1]
    for limit in (0, -1):
        with pytest.raises(BadParameter, match=f"got {limit}"):
            bfs_layers(path(4), 0, limit)


def test_bfs_layers_refuses_a_limit_that_is_not_an_integer():
    # no walk has 2.5 layers, so such a limit would never stop one
    for limit in (2.5, 2.0, "2"):
        with pytest.raises(
            BadParameter, match=f"^layer limit must be an integer, got {limit!r}$"
        ):
            bfs_layers(path(5), 0, limit)
    assert bfs_layers(path(5), 0, True) == [1]


def test_bfs_layers_takes_a_numpy_integer_limit():
    np = pytest.importorskip("numpy")
    assert bfs_layers(path(5), 0, np.int64(2)) == [1, 2]


def test_diameter_fixeds():
    assert diameter(petersen()) == 2
    assert diameter(path(6)) == 5
    assert diameter(fig2_graph()) == 5
    assert diameter(complete(1)) == 0


def test_twin_partition_complete():
    part = twin_partition(complete(4))
    assert len(part.classes) == 1
    assert part.kinds == (TRUE_TWIN,)
    assert len(part.classes[0]) == 4


def test_twin_partition_path_singletons():
    part = twin_partition(path(4))
    assert all(kind == SINGLETON for kind in part.kinds)
    assert len(part.classes) == 4


def test_twin_partition_bipartite():
    # brute-force neighborhood comparison fixes the expected classes
    g = complete_bipartite(2, 3)
    expected_pairs = {
        (u, v)
        for u in range(5)
        for v in range(u + 1, 5)
        if g.rows[u] & ~(1 << v) == g.rows[v] & ~(1 << u)
    }
    assert expected_pairs == {(0, 1), (2, 3), (2, 4), (3, 4)}
    part = twin_partition(g)
    sizes = sorted(len(c) for c in part.classes)
    assert sizes == [2, 3]
    assert set(part.kinds) == {FALSE_TWIN}


@given(graphs(max_n=9))
@settings(max_examples=150, deadline=None)
def test_adjacency_symmetric_irreflexive(g):
    for i in range(g.n):
        assert not (g.rows[i] >> i) & 1
        for j in g.neighbors(i):
            assert g.has_edge(j, i)


@given(graphs(min_n=2, max_n=8))
@settings(max_examples=120, deadline=None)
def test_twin_classes_are_neighborhood_equalities(g):
    part = twin_partition(g)
    covered = 0
    for cls, kind in zip(part.classes, part.kinds):
        members = cls.members()
        covered += len(members)
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                assert are_twins(g, u, v)
                if kind == TRUE_TWIN:
                    assert g.closed_row(u) == g.closed_row(v)
                elif kind == FALSE_TWIN:
                    assert g.rows[u] == g.rows[v]
    assert covered == g.n
    # classes are maximal: twins always share one
    home = {v: c for c, cls in enumerate(part.classes) for v in cls}
    for u, v in combinations(range(g.n), 2):
        assert (home[u] == home[v]) == are_twins(g, u, v)
    lowest = [cls.members()[0] for cls in part.classes]
    assert lowest == sorted(lowest)


def test_twin_test_refuses_vertices_out_of_range():
    for u, v in ((3, -1), (-1, 3), (0, 9), (4, 0)):
        with pytest.raises(OutOfRange):
            are_twins(complete(4), u, v)
    with pytest.raises(BadParameter):
        are_twins(complete(4), 2, 2)


def test_twin_prefix_is_every_class_but_its_top_vertex():
    # every labeled graph with n <= 5 and every class with n <= 7
    graphs = [
        from_pair_mask(n, m) for n in range(6) for m in range(1 << math.comb(n, 2))
    ]
    graphs += [g for n in range(6, 8) for _, _, g in _classes(n)]
    for g in graphs:
        expected = 0
        for cls in twin_partition(g).classes:
            if len(cls) > 1:
                expected |= cls.mask ^ 1 << max(cls)
        assert twin_prefix(g) == expected, g
    assert twin_prefix(complete(4)) == 0b0111
    assert twin_prefix(complete_bipartite(2, 3)) == 0b01101
    assert twin_prefix(path(4)) == 0


def test_vertexset_operations():
    a = VertexSet.from_iterable(6, [0, 2, 4])
    b = VertexSet.from_iterable(6, [2, 3])
    assert (a & b).to_list() == [2]
    assert (a | b).to_list() == [0, 2, 3, 4]
    assert (a - b).to_list() == [0, 4]
    assert a.complement().to_list() == [1, 3, 5]
    assert len(a) == 3 and 4 in a and 5 not in a
    with pytest.raises(OutOfRange):
        VertexSet(3, 0b1000)


def test_edge_list_text_round_trip():
    g = fig1_graph(3)
    text = format_edge_list(g)
    assert text.splitlines()[0] == "7 7"
    assert read_edge_list(text) == g


def test_tree_recognition():
    assert is_tree(path(7))
    assert not is_tree(cycle(5))
    assert not is_tree(disjoint_union(path(2), path(2)))


def test_join_equals_the_checked_constructor():
    # join skips the constructor's checks, so compare it with a graph built
    # through them from the same rows
    rng = random.Random(12)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 7))
        h = random_graph(rng, rng.randint(0, 7))
        gh = join(g, h)
        checked = Graph(gh.n, gh.rows)
        assert gh == checked and type(gh.rows) is tuple
        assert gh.edge_count() == g.edge_count() + h.edge_count() + g.n * h.n


def test_complement_and_disjoint_union_equal_the_checked_constructor():
    # both skip the constructor's checks too
    rng = random.Random(13)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 9))
        h = random_graph(rng, rng.randint(0, 9))
        co, union = complement(g), disjoint_union(g, h)
        for built in (co, union):
            checked = Graph(built.n, built.rows)
            assert built == checked and type(built.rows) is tuple
        assert co.edge_count() == g.n * (g.n - 1) // 2 - g.edge_count()
        assert union.edge_count() == g.edge_count() + h.edge_count()


def test_decoders_equal_the_checked_constructor():
    # from_graph6 and from_pair_mask skip the constructor's checks as well
    rng = random.Random(14)
    for _ in range(200):
        n = rng.randint(0, 9)
        pairs = list(combinations(range(n), 2))
        mask = rng.getrandbits(len(pairs))
        edges = [p for bit, p in enumerate(pairs) if (mask >> bit) & 1]
        g = from_pair_mask(n, mask)
        decoded = from_graph6(to_graph6(g))
        for built in (g, decoded):
            checked = Graph(built.n, built.rows)
            assert built == checked == from_edge_list(n, edges)
            assert type(built.rows) is tuple
    for mask in (0, 5):
        with pytest.raises(BadParameter, match="^vertex count must be non-negative$"):
            from_pair_mask(-1, mask)
    with pytest.raises(OutOfRange):
        from_pair_mask(3, 1 << 3)


def test_a_graph_is_its_order_and_rows():
    assert Graph.__slots__ == ("n", "rows")
    assert repr(fan(5)) == repr(join(complete(1), path(5))) == "<Graph n=6 m=9>"
    for fn in (Graph, from_edge_list, from_pair_mask, read_edge_list, from_graph6):
        assert "name" not in inspect.signature(fn).parameters


def test_graph_equality_hash():
    assert path(3) == from_edge_list(3, [(1, 2), (0, 1)])
    assert hash(path(3)) == hash(from_edge_list(3, [(0, 1), (1, 2)]))
    assert path(3) != cycle(3)


def test_immutable_values_survive_pickle_and_deepcopy():
    # __setattr__ refuses the slot state pickle would restore, so these
    # types rebuild through their constructors
    g = path(4)
    s = VertexSet(4, 0b1010)
    parts = twin_partition(complete_bipartite(2, 3))
    for value in (g, s, parts):
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert type(twin) is type(value) and twin is not value
            assert repr(twin) == repr(value)
    for twin in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
        assert twin == g and twin.rows == g.rows
    for twin in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
        assert twin == s and (twin.n, twin.mask) == (4, 0b1010)
