"""Source hygiene: every module imports only names it uses.

A stdlib ``ast`` check, standing in for a linter's unused-import rule. A name
counts as used when it is read anywhere in the module (as a bare name or the
head of an attribute chain) or re-exported through ``__all__``.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for folder in ("src/edgebudget", "tests", "demos")
    for path in (ROOT / folder).glob("*.py")
)


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with the line that binds it."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return used


def test_the_scan_sees_every_tree():
    assert {path.parent.name for path in MODULES} == {"edgebudget", "tests", "demos"}


def test_the_check_catches_an_unused_import():
    tree = ast.parse("import functools\nfrom x import a, b as c\nprint(a)\n")
    assert set(imported_names(tree)) - used_names(tree) == {"functools", "c"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = imported_names(tree)
    unused = sorted(set(bound) - used_names(tree), key=bound.get)
    assert not unused, [f"{path.name}:{bound[name]}: {name}" for name in unused]
