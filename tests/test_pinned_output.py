"""Pinned command-line output: dimensions, witnesses, node counts and basis
lists of a fixed set of ``compute``, ``dim`` and ``bases`` lines.

``pinned_output.json`` maps each line to the exit code, stdout and stderr it
gave when the pins were taken, with every ``millis`` value masked.  A change
that keeps the answers and the search effort prints the same; one that
changes either shows here line by line.  The budgeted lines sit on each side
of a node threshold: the whole solve, the minimum search alone, and the
minimum search plus the lex pass of an enumeration.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

from adimlab.cli import main

GRAPHS = ("fig2", "petersen", "fig3", "cycle:6")

COMMANDS = (
    [f"{cmd} --graph {g} --k 1..3 --format csv"
     for cmd in ("compute", "dim") for g in GRAPHS]
    + [f"bases --graph {g} --k {k}" for g in GRAPHS for k in (1, 2, 3)]
    + [
        "compute --graph petersen --k 1..3 --format json",
        "bases --graph fig3 --k 3 --format json",
        # fig2 at k=1: a cold solve takes 4155 nodes
        "compute --graph fig2 --k 1 --format csv --budget 4155",
        "compute --graph fig2 --k 1 --format csv --budget 4154",
        "compute --graph fig2 --k 1..3 --format csv --budget 4154",
        "dim --graph fig2 --k 1 --format csv --budget 746",
        "dim --graph fig2 --k 1 --format csv --budget 745",
        # fig2 at k=2: the minimum search takes 553 nodes, so 552 stops it
        # and 553 stops the lex pass, which lists the bases in 4258 more
        "bases --graph fig2 --k 2 --budget 4811",
        "bases --graph fig2 --k 2 --budget 4810",
        "bases --graph fig2 --k 2 --budget 553",
        "bases --graph fig2 --k 2 --budget 552",
        # petersen at k=3: 111 nodes of search, 230 of lex pass
        "bases --graph petersen --k 3 --budget 341",
        "bases --graph petersen --k 3 --budget 340",
    ]
)

PINS = json.loads(
    (Path(__file__).with_name("pinned_output.json")).read_text(encoding="utf-8")
)

# the last csv cell of a solve row, and a json "millis" value
_MILLIS = re.compile(r'(?<=,)\d+\.\d+$|(?<="millis": )[\d.]+', re.M)


def masked(text: str) -> str:
    return _MILLIS.sub("*", text)


def test_every_command_is_pinned():
    assert sorted(PINS) == sorted(COMMANDS)


@pytest.mark.parametrize("line", COMMANDS)
def test_a_command_prints_its_pinned_output(line, capsys):
    code = main(shlex.split(line))
    out = capsys.readouterr()
    assert {"exit": code, "stdout": masked(out.out), "stderr": out.err} == PINS[line]
