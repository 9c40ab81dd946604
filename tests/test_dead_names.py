"""Guard against dead code: every name defined in ``src/repro`` is used.

Each non-dunder function, method and class that ``src/repro/**/*.py``
defines must be named somewhere else in the project's Python code
(``src/``, ``tests/``, ``benchmarks/``, ``examples/`` or ``perfbench/``).
A name whose every whole-word occurrence is one of its own definitions is
reported: nothing calls it, so it should be deleted (and any helper only it
used re-checked, since deleting one name can orphan another).
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "benchmarks", "examples", "perfbench")
_WORD = re.compile(r"\w+")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreferenced_names():
    """``[(name, "path:line"), ...]`` for every definition nothing names."""
    occurrences = Counter()
    for directory in SEARCHED:
        for path in (ROOT / directory).rglob("*.py"):
            occurrences.update(_WORD.findall(path.read_text(encoding="utf-8")))
    definitions = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, _DEFINITIONS) and not _is_dunder(node.name):
                definitions.setdefault(node.name, []).append(
                    f"{path.relative_to(ROOT)}:{node.lineno}"
                )
    return sorted(
        (name, where)
        for name, sites in definitions.items()
        if occurrences[name] <= len(sites)
        for where in sites
    )


def test_every_defined_name_is_referenced():
    dead = unreferenced_names()
    assert not dead, "names defined in src/repro but used nowhere:\n" + "\n".join(
        f"  {name}  ({where})" for name, where in dead
    )
