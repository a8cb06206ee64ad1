"""Every third-party module ``import repro`` needs is declared.

Walks ``src/repro`` with :mod:`ast` and collects the module-level imports
(statements outside any function body, so class bodies and ``try``/``if``
blocks count).  Each top-level name that is neither standard library nor
``repro`` itself must be a distribution listed in ``pyproject.toml``
``dependencies``.  Imports inside functions or under ``if TYPE_CHECKING:``
never run on ``import repro`` and are exempt; networkx in
``graphs/build.py`` is both.  Offline: nothing is imported or installed.
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"


def _declared() -> set:
    text = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.MULTILINE | re.DOTALL)
    assert block, "pyproject.toml has no [project] dependencies list"
    names = re.findall(r"[\"']\s*([A-Za-z0-9][A-Za-z0-9._-]*)", block.group(1))
    return {name.lower().replace("-", "_") for name in names}


def _type_checking_only(node: ast.AST) -> bool:
    test = getattr(node, "test", None)
    return isinstance(node, ast.If) and (
        (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING")
        or (isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")
    )


def _module_level_imports(tree: ast.AST):
    """Absolute imports that run at import time, with their line numbers."""
    stack = list(ast.iter_child_nodes(tree))
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ) or _type_checking_only(node):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module.split(".")[0], node.lineno
        stack.extend(ast.iter_child_nodes(node))


def third_party_imports() -> dict:
    """``{top-level module: ["path:line", ...]}`` over ``src/repro``."""
    found: dict = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name, line in _module_level_imports(tree):
            if name in sys.stdlib_module_names or name == "repro":
                continue
            found.setdefault(name, []).append(
                f"{path.relative_to(REPO)}:{line}"
            )
    return found


def test_walker_sees_the_known_third_party_imports():
    found = third_party_imports()
    assert "numpy" in found and "scipy" in found
    assert "networkx" not in found  # function-local or TYPE_CHECKING only


def test_module_level_imports_are_declared():
    declared = _declared()
    undeclared = {
        name: sites
        for name, sites in third_party_imports().items()
        if name.lower() not in declared
    }
    assert not undeclared, (
        "module-level third-party imports missing from pyproject.toml "
        f"dependencies: {undeclared}"
    )
