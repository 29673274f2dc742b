import random

import pytest

from adimlab.bitset import VertexSet
from adimlab.errors import BadParameter, LimitRequired
from adimlab.families import (
    enumerate_family,
    family_spec,
    verify_family_theorem,
)
from adimlab.graph import cycle, fig3_graph, path
from adimlab.metric import build_table
from adimlab.solver import is_k_generator, solve_adim

from conftest import random_graph


def test_family_sizes():
    g = fig3_graph()
    basis = VertexSet.from_iterable(9, [1, 2, 3, 4])
    assert family_spec(g, basis).family_size == 1024
    assert family_spec(g, g.vertex_set()).family_size == 1
    assert family_spec(path(4), VertexSet.from_iterable(4, [0, 1])).family_size == 2


def test_full_basis_family_is_graph_itself():
    g = path(4)
    members = list(enumerate_family(g, g.vertex_set()))
    assert members == [g]


def test_members_agree_on_basis_incident_edges():
    g = fig3_graph()
    basis = VertexSet.from_iterable(9, [1, 2, 3, 4])
    seen = set()
    for member in enumerate_family(g, basis, limit=128):
        seen.add(member.rows)
        for v in basis:
            assert member.rows[v] == g.rows[v]
        for v in basis.complement():
            assert member.rows[v] & basis.mask == g.rows[v] & basis.mask
    assert len(seen) == 128  # all distinct


def test_family_count_when_fully_enumerated():
    g = random_graph(random.Random(2), 7)
    basis = VertexSet.from_iterable(7, [0, 1, 2, 3])
    members = list(enumerate_family(g, basis))
    assert len(members) == family_spec(g, basis).family_size == 8


def test_mask_range_sharding():
    g = fig3_graph()
    basis = VertexSet.from_iterable(9, [1, 2, 3, 4])
    full = [m.rows for m in enumerate_family(g, basis)]
    lo = [m.rows for m in enumerate_family(g, basis, from_mask=0, to_mask=512)]
    hi = [m.rows for m in enumerate_family(g, basis, from_mask=512, to_mask=1024)]
    assert lo + hi == full


def test_limit_required_for_huge_families():
    g = path(12)
    with pytest.raises(LimitRequired):
        list(enumerate_family(g, VertexSet.from_iterable(12, [0, 1])))


def test_basis_generates_every_member():
    # the shared-neighborhood theorem, spot-checked beyond the fixtures
    rng = random.Random(44)
    for _ in range(20):
        g = random_graph(rng, rng.randint(4, 7))
        from adimlab.metric import adjacency_dimensionality

        k = rng.randint(1, adjacency_dimensionality(g))
        basis = solve_adim(g, k).witness
        for member in enumerate_family(g, basis, limit=64):
            assert is_k_generator(build_table(member, 2), k, basis)
            assert solve_adim(member, k).dimension <= len(basis)


def test_verify_family_theorem_fig3():
    report = verify_family_theorem(fig3_graph(), 2)
    assert report.family_size == 1024
    assert report.checked == 1024
    assert report.passed
    assert report.basis.to_list() == [1, 2, 3, 4]


def test_verify_family_cycle5_one_member():
    report = verify_family_theorem(cycle(5), 3)
    # the basis misses one vertex, so the family is the graph alone
    assert report.family_size == 1 and report.checked == 1 and report.passed


def test_verify_family_path6_k1():
    report = verify_family_theorem(path(6), 1)
    assert report.passed and report.checked == report.family_size


def test_report_json_shape():
    d = verify_family_theorem(cycle(5), 3).to_json_dict()
    assert set(d) == {
        "k", "basis", "family_size", "checked", "violations", "elapsed",
    }


@pytest.mark.parametrize("limit,from_mask,to_mask", [
    (-1, 0, None), (None, -3, 2), (None, 5, 4), (None, 1024, None),
    (None, 5000, None),
])
def test_bad_member_ranges_raise_bad_parameter(limit, from_mask, to_mask):
    g = fig3_graph()
    with pytest.raises(BadParameter):
        enumerate_family(g, VertexSet.from_iterable(g.n, [1, 2, 3, 4]),
                         limit, from_mask, to_mask)
    with pytest.raises(BadParameter):
        verify_family_theorem(g, 2, limit, from_mask, to_mask)
    # an empty range and a zero limit are in range
    assert verify_family_theorem(g, 2, 0).checked == 0
    assert verify_family_theorem(g, 2, None, 7, 7).checked == 0
