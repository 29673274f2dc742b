"""Exact answers above the brute-force cap, checked against an integer program.

The k-fold version of Chartrand et al.'s metric-dimension program: minimise
the sum of binary x_v subject to, for every pair of vertices, the x_v over
its distinguishing set summing to at least k.  HiGHS solves it through
``scipy.optimize.milp``; without scipy the module is skipped.
"""

import random

import pytest

from adimlab.graph import is_connected
from adimlab.metric import build_table, metric_table
from adimlab.solver import is_k_generator, solve_adim, solve_dim

from conftest import random_graph

np = pytest.importorskip("numpy")
optimize = pytest.importorskip("scipy.optimize")


def milp_minimum(masks, n, k):
    a = np.array([[(m >> v) & 1 for v in range(n)] for m in masks], dtype=float)
    res = optimize.milp(
        np.ones(n),
        constraints=optimize.LinearConstraint(a, lb=k, ub=np.inf),
        integrality=np.ones(n),
        bounds=optimize.Bounds(0, 1),
        options={"mip_rel_gap": 0},
    )
    assert res.status == 0, res.message
    return round(res.fun)


@pytest.mark.parametrize("n", [16, 20, 24, 28])
def test_solves_match_the_integer_program(n):
    rng = random.Random(5000 + n)
    g = random_graph(rng, n)
    while not is_connected(g):
        g = random_graph(rng, n)
    adjacency = build_table(g, 2)
    for k in (1, 2):
        r = solve_adim(g, k)
        assert is_k_generator(adjacency, k, r.witness)
        assert r.dimension == len(r.witness) == milp_minimum(adjacency.pair_masks, n, k)
    metric = metric_table(g)
    r = solve_dim(g, 1)
    assert is_k_generator(metric, 1, r.witness)
    assert r.dimension == len(r.witness) == milp_minimum(metric.pair_masks, n, 1)
