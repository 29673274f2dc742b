"""adimlab: exact k-adjacency and k-metric dimension of finite simple graphs."""

from .bitset import VertexSet
from .graph import (
    Graph,
    TwinPartition,
    bfs_distances,
    bfs_layers,
    complement,
    complete,
    complete_bipartite,
    cycle,
    diameter,
    disjoint_union,
    empty_graph,
    fan,
    fig1_graph,
    fig2_graph,
    fig3_graph,
    fig4_graph,
    fig5_graph,
    from_edge_list,
    from_graph6,
    hypercube,
    is_connected,
    is_tree,
    join,
    path,
    petersen,
    to_graph6,
    twin_partition,
    wheel,
)
from .metric import (
    DistinguishTable,
    adjacency_dimensionality,
    build_table,
    cone_dimensionality,
    dimensionality,
    distinguishing_set,
    forced_set,
    join_dimensionality,
    truncated_distance,
)
from .solver import (
    SolveResult,
    adim_ladder,
    brute_force_adim,
    dim_ladder,
    enumerate_bases,
    greedy_bound,
    is_k_generator,
    solve_adim,
    solve_dim,
)

__version__ = "0.1.0"
