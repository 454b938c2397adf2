"""Every name a module of the package imports is used in that module.

A stdlib-only stand-in for a linter's unused-import rule: each module under
``src/qnmlab`` is parsed with ``ast``, and an imported name counts as used
when it appears anywhere in the module as a name or as the root of an
attribute chain.  Package ``__init__.py`` files re-export by importing, and
names listed in ``__all__`` are exports, so both are exempt.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qnmlab"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _imported(tree):
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # "import a.b" binds "a"
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source):
    """(name, line) of each imported name the module never uses."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exempt = used | _exported(tree)
    return sorted((name, line) for name, line in _imported(tree).items()
                  if name not in exempt)


def test_checker_flags_unused_and_accepts_used():
    src = ("import os\nimport numpy.linalg\nfrom a import b, c as d, e\n"
           "__all__ = ['e']\nx = numpy.linalg.norm(d)\n")
    assert unused_imports(src) == [("b", 3), ("os", 1)]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
