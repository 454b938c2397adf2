"""Every name a module of the package imports is used in that module, and
every name it exports exists.

A stdlib-only stand-in for a linter's unused-import rule: each module under
``src/qnmlab`` is parsed with ``ast``, and an imported name counts as used
when it appears anywhere in the module as a name or as the root of an
attribute chain.  Package ``__init__.py`` files re-export by importing, and
names listed in ``__all__`` are exports, so both are exempt.

The converse guards deletions: each name in a module's ``__all__`` must be
bound at the module's top level, and each name a package ``__init__.py``
imports from a module of the package must be bound there.

A layering rule keeps solver work out of the command line: ``cli.py``
binds none of the names that assemble a grid or build the oracle's
incident field.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qnmlab"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
ALL_FILES = sorted(SRC.rglob("*.py"))
PACKAGES = sorted(SRC.rglob("__init__.py"))


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


def _defined(tree):
    """Names bound at the top level of a module."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
    return names


def stale_exports(source):
    """Names listed in ``__all__`` that the module does not bind."""
    tree = ast.parse(source)
    return sorted(_exported(tree) - _defined(tree))


def missing_reexports(init_path):
    """(module, name) of each name a package ``__init__.py`` imports from
    one of the package's own modules that the module does not bind."""
    missing = []
    for node in ast.parse(init_path.read_text()).body:
        if not (isinstance(node, ast.ImportFrom) and node.level):
            continue
        base = init_path.parent
        for _ in range(node.level - 1):
            base = base.parent
        target = base.joinpath(*node.module.split("."))
        path = target / "__init__.py" if target.is_dir() \
            else target.with_suffix(".py")
        defined = _defined(ast.parse(path.read_text()))
        missing += [(node.module, a.name) for a in node.names
                    if a.name not in defined]
    return sorted(missing)


def test_export_checkers_flag_missing_names(tmp_path):
    src = ("from a import b\nc: int = 1\nd, (e, f) = 1, (2, 3)\n"
           "def g(): pass\nclass H: pass\n"
           "__all__ = ['b', 'c', 'e', 'g', 'H', 'gone']\n")
    assert stale_exports(src) == ["gone"]
    pkg = tmp_path / "pkg"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "mod.py").write_text("def kept(): pass\n")
    (pkg / "sub" / "__init__.py").write_text(
        "from ..mod import kept, dropped\nfrom .leaf import x\n")
    (pkg / "sub" / "leaf.py").write_text("x = 1\n")
    assert missing_reexports(pkg / "sub" / "__init__.py") == \
        [("mod", "dropped")]


@pytest.mark.parametrize("path", ALL_FILES,
                         ids=[str(p.relative_to(SRC)) for p in ALL_FILES])
def test_no_stale_exports(path):
    assert stale_exports(path.read_text()) == []


@pytest.mark.parametrize("path", PACKAGES,
                         ids=[str(p.relative_to(SRC)) for p in PACKAGES])
def test_reexports_exist(path):
    assert missing_reexports(path) == []


# cli parses, runs the stages and writes files; the oracle's grid, assembly
# and incident field live in qnmlab.solver.oracle
CLI_FORBIDDEN = {"assemble", "green_b_2d", "GridSpec", "oracle_grid",
                 "ORACLE_MARGIN"}


def bound_names(source):
    """Names a module binds: its imports anywhere and its top-level
    definitions and assignments."""
    tree = ast.parse(source)
    return set(_imported(tree)) | _defined(tree)


def test_layering_checker_flags_imports_and_assignments():
    src = ("from .solver import assemble as assemble\n"
           "def f():\n    from .core import GridSpec\n"
           "ORACLE_MARGIN = 1.0\n")
    assert bound_names(src) & CLI_FORBIDDEN == {"assemble", "GridSpec",
                                                "ORACLE_MARGIN"}


def test_cli_assembles_and_factors_nothing():
    assert bound_names((SRC / "cli.py").read_text()) & CLI_FORBIDDEN == set()
