"""adimlab: exact k-adjacency and k-metric dimension of finite simple graphs.

The names below are served from their modules on first use, so importing
one module of the package (``adimlab.corpus``, say) loads that module and
what it imports, not the table and search stack.
"""

from importlib import import_module

_EXPORTS = {
    "bitset": ("VertexSet",),
    "graph": (
        "Graph",
        "TwinPartition",
        "bfs_distances",
        "bfs_layers",
        "complement",
        "complete",
        "complete_bipartite",
        "cycle",
        "diameter",
        "disjoint_union",
        "empty_graph",
        "fan",
        "fig1_graph",
        "fig2_graph",
        "fig3_graph",
        "fig4_graph",
        "fig5_graph",
        "from_edge_list",
        "from_graph6",
        "hypercube",
        "is_connected",
        "is_tree",
        "join",
        "path",
        "petersen",
        "to_graph6",
        "twin_partition",
        "wheel",
    ),
    "metric": (
        "DistinguishTable",
        "adjacency_dimensionality",
        "build_table",
        "cone_dimensionality",
        "dimensionality",
        "distinguishing_set",
        "forced_set",
        "join_dimensionality",
        "truncated_distance",
    ),
    "solver": (
        "SolveResult",
        "adim_ladder",
        "brute_force_adim",
        "dim_ladder",
        "enumerate_bases",
        "greedy_bound",
        "is_k_generator",
        "solve_adim",
        "solve_dim",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
