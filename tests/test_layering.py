"""The package's modules talk to each other through public names only: no
relative import in ``src/adimlab`` takes a ``_private`` name from another
module.  A helper one module needs from another is made public, with a
docstring, or stays where it is used."""

import ast
from pathlib import Path

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
