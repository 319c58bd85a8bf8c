"""The line between the production path and the oracles, read from the source.

hensim.validation holds the dense-matrix oracles and the complex averaged X
state that the real-only closed forms are checked against. Only the CLI's
`validate` command reaches it; no other module imports it or numpy.linalg,
and importing the CLI and building its parser leaves it unimported.
"""

import ast
from pathlib import Path

import pytest

from conftest import run_child

SRC = Path(__file__).resolve().parent.parent / "src" / "hensim"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
ORACLE_ONLY = ("XState", "avg_xstate_two", "xstate_diagonal")


def imported_modules(tree):
    """Dotted names of every module an import statement in ``tree`` binds, at any depth."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # a relative import (level > 0) is one within the hensim package
            module = f"hensim.{node.module or ''}".rstrip(".") if node.level else node.module
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def uses_numpy_linalg(tree):
    """Whether ``tree`` imports numpy.linalg or reaches it as an attribute (np.linalg.eigh)."""
    if {"numpy.linalg"} & imported_modules(tree):
        return True
    return any(isinstance(node, ast.Attribute) and node.attr == "linalg"
               and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
               for node in ast.walk(tree))


def defined_names(tree):
    """Names bound at module level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_only_cli_imports_validation():
    importers = {name for name, tree in MODULES.items()
                 if "hensim.validation" in imported_modules(tree)}
    assert importers == {"cli"}


def test_cli_start_leaves_validation_unimported():
    # what every command runs before its own work; validate imports the
    # oracle inside its command function
    code = ("import sys, hensim.cli; hensim.cli.build_parser(); "
            "print('hensim.validation' in sys.modules, 'hensim.ensemble' in sys.modules)")
    proc = run_child(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


@pytest.mark.parametrize("name", sorted(set(MODULES) - {"validation"}))
def test_no_production_module_uses_numpy_linalg(name):
    assert not uses_numpy_linalg(MODULES[name])


@pytest.mark.parametrize("function", ORACLE_ONLY)
def test_oracle_only_functions_live_in_validation(function):
    homes = {name for name, tree in MODULES.items() if function in defined_names(tree)}
    assert homes == {"validation"}
