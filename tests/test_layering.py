"""The package's modules talk to each other through public names only: no
relative import in ``src/adimlab`` takes a ``_private`` name from another
module.  A helper one module needs from another is made public, with a
docstring, or stays where it is used."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import adimlab

SRC = Path(adimlab.__file__).resolve().parent


def _private_imports(source: str) -> list[str]:
    """``module.name`` for each ``_private`` name a relative import takes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            found += [
                f"{node.module or ''}.{alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    return found


def test_the_check_sees_a_private_import():
    source = "from .solver import BUDGET_ENV, _ladder\nfrom . import _kernel\n"
    assert _private_imports(source) == ["solver._ladder", "._kernel"]
    assert _private_imports("from ._x import y\nfrom os import _exit\n") == []


def test_no_module_imports_a_private_name_of_another():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 10
    found = {
        f.name: names
        for f in files
        if (names := _private_imports(f.read_text()))
    }
    assert found == {}


def _package_imports(source: str) -> set[str]:
    """The package modules a module's relative imports name."""
    return {
        node.module or alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    }


CORPUS_ALONE = """
import sys
sys.path.insert(0, sys.argv[1])
import adimlab.corpus
print(*sorted(m for m in sys.modules if m.startswith(("adimlab.", "multiprocessing"))))
"""


def test_the_corpus_stands_below_the_solver_stack():
    # generation needs graphs alone, so a corpus source can be written,
    # run and tested without the table, search or sweep modules
    assert _package_imports((SRC / "corpus.py").read_text()) <= {
        "bitset", "errors", "graph"
    }
    # the package itself serves its re-exported names lazily, so importing
    # it loads none of them
    done = subprocess.run(
        [sys.executable, "-I", "-c", CORPUS_ALONE, str(SRC.parent)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [
        "adimlab.bitset", "adimlab.corpus", "adimlab.errors", "adimlab.graph"
    ]


def test_the_package_serves_every_exported_name():
    # each name is read from its module on first use, once
    for name in adimlab.__all__:
        value = getattr(adimlab, name)
        assert vars(adimlab)[name] is value
        assert value.__module__.startswith("adimlab.")
    assert set(adimlab.__all__) <= set(dir(adimlab))
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        adimlab.nope
