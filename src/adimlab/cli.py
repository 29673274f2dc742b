"""Command line entry point.

Subcommands: compute, dim, info, formulas, bases, family, sweep, conjecture.
Graph sources: a generator spec (--graph), a graph6 literal (--g6) or a file
(--file, graph6 one-per-line or the plain "n m / u v" edge list).  Exit codes:
0 success, 1 a sweep/verification found violations, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from . import families as families_mod
from . import formulas as formulas_mod
from . import verify as verify_mod
from .errors import AdimlabError, BadParameter
from .graph import (
    INFINITE,
    Graph,
    complement,
    complete,
    complete_bipartite,
    cycle,
    diameter,
    empty_graph,
    fan,
    fig1_graph,
    fig2_graph,
    fig3_graph,
    fig4_graph,
    fig5_graph,
    from_graph6,
    graph6_records,
    hypercube,
    join,
    path,
    petersen,
    read_ascii,
    read_edge_list,
    to_graph6,
    twin_partition,
    wheel,
)
from .metric import (
    DistinguishTable,
    adjacency_dimensionality,
    build_table,
    dimensionality,
    metric_table,
)
from .solver import enumerate_bases, solve_table

_GENERATORS = {
    "path": (path, 1),
    "cycle": (cycle, 1),
    "complete": (complete, 1),
    "empty": (empty_graph, 1),
    "complete_bipartite": (complete_bipartite, 2),
    "hypercube": (hypercube, 1),
    "petersen": (petersen, 0),
    "fan": (fan, 1),
    "wheel": (wheel, 1),
    "fig1": (fig1_graph, 1),
    "fig2": (fig2_graph, 0),
    "fig3": (fig3_graph, 0),
    "fig4": (fig4_graph, 0),
    "fig5": (fig5_graph, 0),
}

GRAPH_SPEC_HELP = (
    "generator spec: name[:param[,param]] with combinators "
    "join:A+B and complement:SPEC; names: " + ", ".join(sorted(_GENERATORS))
)


def parse_graph_spec(spec: str) -> Graph:
    spec = spec.strip()
    if spec.startswith("join:"):
        rest = spec[len("join:"):]
        left, sep, right = rest.partition("+")
        if not sep:
            raise BadParameter(f"join spec needs two '+'-separated parts: {spec!r}")
        return join(parse_graph_spec(left), parse_graph_spec(right))
    if spec.startswith("complement:"):
        return complement(parse_graph_spec(spec[len("complement:"):]))
    name, _, raw = spec.partition(":")
    if name not in _GENERATORS:
        raise BadParameter(f"unknown generator {name!r}; {GRAPH_SPEC_HELP}")
    fn, arity = _GENERATORS[name]
    params = _int_list(raw, f"{name} parameters")
    if len(params) != arity:
        raise BadParameter(f"{name} takes {arity} parameter(s), got {len(params)}")
    return fn(*params)


def _int_list(raw: str, what: str) -> list[int]:
    try:
        return [int(p) for p in raw.split(",") if p]
    except ValueError:
        raise BadParameter(f"{what} must be integers, got {raw!r}") from None


def load_graph(args) -> Graph:
    if args.graph:
        return parse_graph_spec(args.graph)
    if args.g6 is not None:
        return from_graph6(args.g6)
    text = read_ascii(args.file)
    records = [line.strip() for line in text.splitlines() if line.strip()]
    if records and records[0].split()[0].isdigit():
        return read_edge_list(text)
    if len(records) != 1:
        raise BadParameter(
            f"{args.file} holds {len(records)} graph6 records; "
            "this command takes one graph"
        )
    return next(graph6_records(records))[2]


def parse_k_range(raw: str) -> range:
    """The levels of ``--k``: one level, or lo..hi with lo <= hi.  The range
    stays lazy, so a wide one costs only the levels that are visited."""
    lo, sep, hi = raw.partition("..")
    try:
        ks = range(int(lo), int(hi if sep else lo) + 1)
    except ValueError:
        ks = None
    if not ks:
        raise BadParameter(f"k must be a level or a range lo..hi, lo <= hi: {raw!r}")
    return ks


def _add_source_flags(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", help=GRAPH_SPEC_HELP)
    src.add_argument("--g6", help="graph6 literal")
    src.add_argument("--file", help="path to a graph6 or edge-list file")


_FLAGS = {
    "--format": dict(choices=("table", "json", "csv"), default="table"),
    "--budget": dict(type=int, default=None, help="solver node budget"),
    "--out": dict(help="write the output to this file instead of stdout"),
}


def _add_flags(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument(name, **_FLAGS[name])


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _emit_results(args, results: list[dict], columns: list[str]) -> None:
    if args.format == "json":
        _emit(args, json.dumps(results, indent=2))
    elif args.format == "csv":
        lines = [",".join(columns)]
        for row in results:
            lines.append(",".join(_csv_cell(row.get(c)) for c in columns))
        _emit(args, "\n".join(lines))
    else:
        widths = {
            c: max(len(c), *(len(_csv_cell(r.get(c))) for r in results))
            for c in columns
        }
        header = "  ".join(c.ljust(widths[c]) for c in columns)
        lines = [header, "-" * len(header)]
        for row in results:
            lines.append(
                "  ".join(_csv_cell(row.get(c)).ljust(widths[c]) for c in columns)
            )
        _emit(args, "\n".join(lines))


def _csv_cell(value) -> str:
    if isinstance(value, list):
        return " ".join(map(str, value))
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _solve_levels(args, table: DistinguishTable) -> int:
    rows = [
        solve_table(table, k, args.budget).to_json_dict()
        for k in parse_k_range(args.k)
    ]
    _emit_results(args, rows, ["k", "dimension", "witness", "nodes", "millis"])
    return 0


def cmd_compute(args) -> int:
    return _solve_levels(args, build_table(load_graph(args), args.t))


def cmd_dim(args) -> int:
    return _solve_levels(args, metric_table(load_graph(args)))


def cmd_info(args) -> int:
    g = load_graph(args)
    part = twin_partition(g)
    diam = diameter(g)
    connected = diam != INFINITE
    info = {
        "n": g.n,
        "m": g.edge_count(),
        "graph6": to_graph6(g),
        "degrees": {"min": g.min_degree(), "max": g.max_degree()},
        "connected": connected,
        "diameter": diam if connected else None,
        "dimensionality": adjacency_dimensionality(g) if g.n >= 2 else None,
        "metric_dimensionality": (
            dimensionality(metric_table(g)) if g.n >= 2 and connected else None
        ),
        "twin_classes": [
            {"vertices": cls.to_list(), "kind": kind}
            for cls, kind in zip(part.classes, part.kinds)
        ],
    }
    if args.format == "json":
        _emit(args, json.dumps(info, indent=2))
    else:
        lines = [f"{key}: {value}" for key, value in info.items()]
        _emit(args, "\n".join(lines))
    return 0


def cmd_formulas(args) -> int:
    params = tuple(_int_list(args.params, "--params"))
    rows = []
    for k in parse_k_range(args.k):
        q = formulas_mod.FormulaQuery(args.family, params, k)
        rows.append({"family": args.family, "params": list(params), "k": k,
                     "value": formulas_mod.formula_adim(q)})
    _emit_results(args, rows, ["family", "params", "k", "value"])
    return 0


def cmd_bases(args) -> int:
    g = load_graph(args)
    bases = enumerate_bases(g, args.k, args.limit, args.budget, t=args.t)
    rows = [{"index": i, "basis": b.to_list()} for i, b in enumerate(bases)]
    if args.format == "json":
        _emit(args, json.dumps({"k": args.k, "count": len(bases),
                                "bases": [b.to_list() for b in bases]}, indent=2))
    else:
        _emit_results(args, rows, ["index", "basis"])
    return 0


def cmd_family(args) -> int:
    g = load_graph(args)
    report = families_mod.verify_family_theorem(
        g, args.k, args.limit, args.from_mask, args.to_mask
    )
    _emit(args, json.dumps(report.to_json_dict(), indent=2))
    return 0 if report.passed else 1


def _make_corpus(args) -> verify_mod.Corpus:
    filters = dict(connected=args.connected, min_degree=args.min_degree)
    if not args.g6_file:
        return verify_mod.Corpus(args.min_n, args.max_n, **filters)
    if (args.min_n, args.max_n) != (None, None):
        raise BadParameter(
            "--min-n and --max-n choose the enumeration's orders; "
            "a --g6-file is swept whole"
        )
    return verify_mod.Corpus.from_file(args.g6_file, **filters)


def _run_sweep(args, run) -> int:
    """Emit ``run(corpus, on_violation)``'s report on the flags' corpus,
    writing each violation to ``--violations`` as NDJSON when the sweep
    hands it over.  The file is opened at the first violation, or once the
    report is in: a sweep refused before it checks anything (an unknown
    theorem, an empty corpus, bad levels) leaves it as it was."""
    corpus = _make_corpus(args)
    out = None

    def stream(v):
        nonlocal out
        if out is None:
            out = open(args.violations, "w", encoding="utf-8")
        out.write(json.dumps(v.to_json_dict()) + "\n")
        out.flush()

    try:
        report = run(corpus, on_violation=stream if args.violations else None)
        if args.violations and out is None:
            out = open(args.violations, "w", encoding="utf-8")
    finally:
        if out is not None:
            out.close()
    _emit(args, json.dumps(report.to_json_dict(), indent=2))
    return 0 if report.passed else 1


def cmd_sweep(args) -> int:
    run = partial(verify_mod.sweep_theorem, theorem_id=args.theorem, jobs=args.jobs)
    return _run_sweep(args, run)


def cmd_conjecture(args) -> int:
    ks = parse_k_range(args.k)
    run = partial(verify_mod.check_cone_conjecture, k_range=ks, jobs=args.jobs)
    return _run_sweep(args, run)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="adimlab",
        description="Exact k-adjacency and k-metric dimension computations.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="minimum k-generator at truncation level t")
    _add_source_flags(p)
    p.add_argument("--k", required=True, help="level or range, e.g. 2 or 1..3")
    p.add_argument("--t", type=int, default=2, help="truncation level (default 2)")
    _add_flags(p, "--format", "--budget", "--out")
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("dim", help="minimum k-generator for the full metric")
    _add_source_flags(p)
    p.add_argument("--k", required=True, help="level or range")
    _add_flags(p, "--format", "--budget", "--out")
    p.set_defaults(fn=cmd_dim)

    p = sub.add_parser("info", help="order, size, dimensionality, twin classes")
    _add_source_flags(p)
    p.add_argument("--format", choices=("table", "json"), default="table")
    _add_flags(p, "--out")
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("formulas", help="closed-form values (refuses out of range)")
    p.add_argument("--family", required=True, choices=formulas_mod.FAMILIES)
    p.add_argument("--params", default="", help="comma-separated, e.g. 7 or 2,3")
    p.add_argument("--k", required=True, help="level or range")
    _add_flags(p, "--format", "--out")
    p.set_defaults(fn=cmd_formulas)

    p = sub.add_parser("bases", help="every minimum k-generator")
    _add_source_flags(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--limit", type=int, default=None, help="abort beyond this many")
    _add_flags(p, "--format", "--budget", "--out")
    p.set_defaults(fn=cmd_bases)

    p = sub.add_parser(
        "family", help="verify the shared-generator family of a minimum basis"
    )
    _add_source_flags(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--from-mask", type=int, default=0, dest="from_mask")
    p.add_argument("--to-mask", type=int, default=None, dest="to_mask")
    _add_flags(p, "--out")
    p.set_defaults(fn=cmd_family)

    for name, help_text in (
        ("sweep", "re-check one theorem over a corpus"),
        ("conjecture", "re-check the cone upper bound over a corpus"),
    ):
        p = sub.add_parser(name, help=help_text)
        if name == "sweep":
            p.add_argument("--theorem", required=True)
        else:
            p.add_argument("--k", default="1..4", help="levels, e.g. 1..4")
        p.add_argument("--min-n", type=int, dest="min_n")
        p.add_argument("--max-n", type=int, dest="max_n")
        p.add_argument("--connected", action="store_true")
        p.add_argument("--min-degree", type=int, default=0, dest="min_degree")
        p.add_argument("--g6-file", default=None, dest="g6_file")
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument(
            "--violations", default=None, help="stream violations here as NDJSON"
        )
        _add_flags(p, "--out")
        p.set_defaults(fn=cmd_sweep if name == "sweep" else cmd_conjecture)

    return ap


# the options that take no value; every other option takes one
_SWITCHES = ("--connected", "--help", "-h")


def _join_dash_values(argv: list[str]) -> list[str]:
    """``argv`` with each spaced option value that starts with one '-'
    joined to its option, ``--k -1..2`` read as ``--k=-1..2``.  Left
    spaced, argparse takes such a value for an option of its own, unless
    it is a plain negative number, and refuses the command."""
    out: list[str] = []
    for arg in argv:
        opt = out[-1] if out else ""
        takes_value = (
            opt.startswith("--")
            and "=" not in opt
            and not any(switch.startswith(opt) for switch in _SWITCHES)
        )
        dashed = arg.startswith("-") and not arg.startswith("--")
        if takes_value and dashed and arg not in _SWITCHES:
            out[-1] = f"{opt}={arg}"
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(_join_dash_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.fn(args)
    except (AdimlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # an input too large to hold, such as a graph of 2**40 vertices
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
