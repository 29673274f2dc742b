"""The result and report records keep one contract: field order and
defaults, ``to_json_dict``, no attribute assignment, equality, hash and
repr by field, and a pickle round trip.  ``Corpus`` keeps the same, plus
its positional and keyword constructor and its refusals."""

import pickle

import pytest

from adimlab.bitset import VertexSet
from adimlab.errors import BadParameter
from adimlab.families import FamilyReport, FamilySpec
from adimlab.formulas import ConeBound, CriterionReport, FormulaQuery
from adimlab.graph import path
from adimlab.solver import SolveResult, SolveStats
from adimlab.verify import Corpus, SweepReport, Violation

B = VertexSet(4, 0b0101)
STATS = SolveStats(5, 3, 1.5, 2)
FOUND = [Violation("C~", 1, 3, "> 3")]

# (record, its fields in order, their defaults, its to_json_dict or None)
RECORDS = [
    (
        STATS,
        ("nodes", "greedy_size", "millis", "search_nodes"),
        {"nodes": 0, "greedy_size": 0, "millis": 0.0, "search_nodes": 0},
        None,
    ),
    (
        SolveResult(2, 3, B, STATS),
        ("k", "dimension", "witness", "stats"),
        {"stats": SolveStats()},
        {
            "k": 2, "dimension": 3, "witness": [0, 2], "nodes": 5,
            "search_nodes": 2, "greedy_size": 3, "millis": 1.5,
        },
    ),
    (FormulaQuery("path", (7,), 1), ("family", "params", "k"), {}, None),
    (
        CriterionReport("cone-equality", True, B),
        ("criterion", "holds", "witness"),
        {"witness": None},
        {"criterion": "cone-equality", "holds": True, "witness": [0, 2]},
    ),
    (
        ConeBound(5, True, "universal-vertex"),
        ("bound", "equality", "reason"),
        {"reason": None},
        {"bound": 5, "equality": True, "reason": "universal-vertex"},
    ),
    (
        FamilySpec(path(4), B, B.complement(), 2),
        ("base", "basis", "free_vertices", "family_size"),
        {},
        None,
    ),
    (
        FamilyReport(2, B, 2, 2, [(1, "dimension rose to 4")], 0.25),
        ("k", "basis", "family_size", "checked", "violations", "elapsed"),
        {"checked": 0, "violations": [], "elapsed": 0.0},
        {
            "k": 2,
            "basis": [0, 2],
            "family_size": 2,
            "checked": 2,
            "violations": [{"mask": 1, "reason": "dimension rose to 4"}],
            "elapsed": 0.25,
        },
    ),
    (
        SweepReport("monotony", 74, FOUND, 0.5),
        ("theorem", "checked", "violations", "elapsed"),
        {"checked": 0, "violations": [], "elapsed": 0.0},
        {
            "theorem": "monotony",
            "checked": 74,
            "violations": [
                {"graph6": "C~", "k": 1, "observed": 3, "expected": "> 3"}
            ],
            "elapsed": 0.5,
        },
    ),
]
IDS = [type(record).__name__ for record, *_ in RECORDS]


@pytest.mark.parametrize("record, fields, defaults, json_dict", RECORDS, ids=IDS)
def test_field_order_defaults_and_json(record, fields, defaults, json_dict):
    cls = type(record)
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    assert cls(*(getattr(record, f) for f in fields)) == record
    if json_dict is None:
        assert not hasattr(record, "to_json_dict")
    else:
        assert record.to_json_dict() == json_dict


@pytest.mark.parametrize("record", [r for r, *_ in RECORDS], ids=IDS)
def test_attribute_assignment_is_refused(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record", [r for r, *_ in RECORDS], ids=IDS)
def test_equality_hash_repr_and_pickle_go_by_field(record):
    cls = type(record)
    twin = cls(**{f: getattr(record, f) for f in record._fields})
    assert twin == record
    assert record._replace(**{record._fields[0]: "other"}) != record
    if any(isinstance(value, list) for value in record):
        # a report holds its violation list, so it is unhashable
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(twin) == hash(record)
    shown = ", ".join(f"{f}={getattr(record, f)!r}" for f in record._fields)
    assert repr(record) == f"{cls.__name__}({shown})"
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is cls and back == record


def test_solve_stats_repr():
    assert repr(STATS) == (
        "SolveStats(nodes=5, greedy_size=3, millis=1.5, search_nodes=2)"
    )


def test_corpus_constructor_defaults_and_refusals():
    assert Corpus(2, 6) == Corpus(min_n=2, max_n=6)
    corpus = Corpus(3, 4, None, True, 1)
    assert (
        corpus.min_n,
        corpus.max_n,
        corpus.graph6_lines,
        corpus.connected,
        corpus.min_degree,
    ) == (3, 4, None, True, 1)
    lines = Corpus(graph6_lines=("C~",), connected=True)
    assert (lines.min_n, lines.max_n, lines.graph6_lines) == (None, None, ("C~",))
    default = Corpus()
    assert (default.min_n, default.max_n, default.graph6_lines) == (2, 5, None)
    assert (default.connected, default.min_degree) == (False, 0)
    with pytest.raises(BadParameter) as exc:
        Corpus(4, 3)
    assert str(exc.value) == "orders need 0 <= min_n <= max_n, got 4..3"
    with pytest.raises(BadParameter) as exc:
        Corpus(min_degree=-1)
    assert str(exc.value) == "min_degree must be >= 0, got -1"
    # graph6 lines are swept whole, so orders next to them are refused
    for orders in ((7, 9), (2, None), (None, 5)):
        with pytest.raises(BadParameter, match="swept whole"):
            Corpus(*orders, graph6_lines=("CF",))
    with pytest.raises(BadParameter, match="swept whole"):
        Corpus.from_file(__file__, max_n=6)


def test_a_missing_order_never_contradicts_the_given_one():
    # the default end, 5 or 2, would contradict the given one here
    assert Corpus(min_n=6) == Corpus(6, 6)
    assert Corpus(max_n=1) == Corpus(1, 1)
    assert Corpus(3) == Corpus(3, 5)
    assert Corpus(max_n=4) == Corpus(2, 4)
    for orders, shown in (((None, -1), "-1..-1"), ((-1, None), "-1..5")):
        with pytest.raises(BadParameter, match=f"got {shown}$"):
            Corpus(*orders)


def test_corpus_is_immutable_and_compared_by_field():
    corpus = Corpus(2, 6)
    for name in ("min_n", "max_n", "graph6_lines", "connected", "min_degree"):
        with pytest.raises(AttributeError):
            setattr(corpus, name, getattr(corpus, name))
    with pytest.raises(AttributeError):
        corpus.extra = 1
    assert corpus == Corpus(min_n=2, max_n=6, min_degree=0)
    assert hash(corpus) == hash(Corpus(min_n=2, max_n=6))
    assert corpus != Corpus(2, 6, connected=True)
    assert corpus != (2, 6, None, False, 0)
    assert len({corpus, Corpus(2, 6), Corpus(2, 5)}) == 2
    assert repr(corpus) == (
        "Corpus(min_n=2, max_n=6, graph6_lines=None, connected=False, min_degree=0)"
    )
    for c in (Corpus(2, 4, min_degree=1), Corpus(graph6_lines=("C~", "D~{"))):
        back = pickle.loads(pickle.dumps(c))
        assert type(back) is Corpus and back == c
        assert list(back) == list(c)
