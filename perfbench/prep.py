"""What the program does before a workload's first op: the part ``setup_s``
times.  The benchmark process and the fresh interpreters that measure
``setup_s`` both call ``program_setup``, so the two cannot drift apart.
This module imports nothing from adimlab at import time."""

from __future__ import annotations


def program_setup(workload: str, lines: list[str]) -> dict:
    """Import adimlab, select the kernel and prepare the workload's program
    objects from its graph6 ``lines``."""
    import adimlab
    from adimlab import graph, kernel, metric, solver

    ctx = {
        "kernel": kernel.implementation_name(),
        "graph": graph,
        "metric": metric,
        "solver": solver,
    }
    if workload == "join-pairs":
        from adimlab import formulas

        graphs = [graph.from_graph6(line) for line in lines]
        ctx["formulas"] = formulas
        ctx["pairs"] = list(zip(graphs[0::2], graphs[1::2]))
    elif workload == "sweep-n6":
        from adimlab import verify

        ctx["verify"] = verify
        ctx["corpus"] = verify.Corpus(2, 6)
    ctx["adimlab"] = adimlab
    return ctx
