"""Source hygiene: every name a module imports is used in that module,
every private function or method is referenced by some module, every
module parses as the oldest Python that ``pyproject.toml`` supports, no
module calls numpy's ``gradient``: ``kernels.gradient`` is the one
finite-difference stencil, no module but ``equations.py`` names an
equation, and ``cli.py`` reads every residual through a numerics reader.

An AST scan of ``src/symlax/*.py``.  The package ``__init__.py`` is left
out of the import check: its imports are the public re-exports.
"""

import ast
import re
from pathlib import Path

import pytest

from symlax.equations import equation_names

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "symlax"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    """(bound name, line) of every import in the module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    """Names read anywhere in the module, those in string annotations
    included."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(n.id for n in ast.walk(ast.parse(node.value))
                            if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree)
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _private_defs(tree):
    """(name, line) of every private function at module level or method in
    a module-level class; dunder methods are called by the language."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for d in members:
            if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and d.name.startswith("_") \
                    and not (d.name.startswith("__") and d.name.endswith("__")):
                yield d.name, d.lineno


def _references(tree):
    """Names a module reads, as a bare name or as an attribute."""
    names = _used_names(tree)
    names.update(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute))
    return names


def test_no_unreferenced_private_functions():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in SRC.glob("*.py")}
    referenced = set().union(*map(_references, trees.values()))
    unused = [f"{name} ({path}:{line})" for path, tree in sorted(trees.items())
              for name, line in _private_defs(tree) if name not in referenced]
    assert not unused, f"private functions no module references: {unused}"


def _oldest_python():
    """The minimum of ``requires-python`` in ``pyproject.toml``, read with
    a pattern since ``tomllib`` is newer than some supported versions."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    m = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.M)
    assert m, "pyproject.toml states no requires-python minimum"
    return int(m.group(1)), int(m.group(2))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.stem)
def test_sources_parse_on_the_oldest_python(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=_oldest_python())


def _numpy_gradient_calls(tree):
    """Lines of the calls to numpy's ``gradient``, through the module (under
    any alias) or through a name imported from it."""
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names
                           if a.name == "numpy")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            names.update(a.asname or a.name for a in node.names
                         if a.name == "gradient")
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and f.attr == "gradient" \
                and isinstance(f.value, ast.Name) and f.value.id in modules \
                or isinstance(f, ast.Name) and f.id in names:
            yield node.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.stem)
def test_one_finite_difference_stencil(path):
    # every derivative goes through kernels.gradient
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = list(_numpy_gradient_calls(tree))
    assert not lines, f"{path.name} calls numpy's gradient on lines {lines}"


def _docstrings(tree):
    """The docstring nodes of the module and of its classes and functions."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                yield first.value


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "equations.py"],
                         ids=lambda p: p.stem)
def test_only_the_registry_names_an_equation(path):
    # an equation's facts are data on its EquationDef, so no other module
    # compares with, defaults to or branches on an equation's name
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docs = {id(d) for d in _docstrings(tree)}
    names = set(equation_names())
    lines = [n.lineno for n in ast.walk(tree)
             if isinstance(n, ast.Constant) and n.value in names
             and id(n) not in docs]
    assert not lines, f"{path.name} names an equation on lines {lines}"


# the row-block plumbing of a residual, which numerics owns
ROW_BLOCK_NAMES = {"characteristic_rows", "current_divergence", "rule_rows",
                   "reduce_rows"}
ROW_BLOCK_ATTRIBUTES = {"rows", "bind", "reduce_rows"}


def test_cli_reads_residuals_through_numerics():
    # cli binds a run's matrices and margins to numerics' residual readers;
    # it neither builds row closures nor binds grid environments itself
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    imported = [f"{name} (line {line})" for name, line in _imported_names(tree)
                if name in ROW_BLOCK_NAMES]
    read = [f".{n.attr} (line {n.lineno})" for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and n.attr in ROW_BLOCK_ATTRIBUTES]
    assert not imported and not read, \
        f"cli.py handles row blocks itself: {imported + read}"
