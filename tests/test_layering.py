"""Module hygiene of the package, read from its sources with ``ast``: no
module imports a name that it never uses or defines a private name at
module level that it never reads, no private class has a method that no
expression in the package reads, and the front end and the evaluator
import neither the analysis nor the CLI, so that running a program
never loads the analyzer, and the analysis imports neither the parser
nor the printer.  Importing the CLI loads neither
``dataclasses`` nor ``inspect``, which would add to every start-up."""

from __future__ import annotations

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "jeopardy_iaa"
ALL_MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))
MODULES = [module for module in ALL_MODULES if module != "__init__"]

# the layers below the analysis, and what they may not import
LOWER = ("syntax", "parser", "printer", "desugar", "labeler", "evaluator")
UPPER = frozenset({"analysis", "cli"})


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def read_names(tree: ast.Module) -> set[str]:
    """Names that some expression in the module reads; a quoted
    annotation counts as its expression."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            annotation = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            for part in ast.walk(annotation) if annotation else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    quoted = ast.walk(ast.parse(part.value))
                    used.update(n.id for n in quoted if isinstance(n, ast.Name))
    return used


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import, anywhere in the module, that no
    expression reads."""
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = read_names(tree)
    return [name for name in imported if name not in used]


def unused_private_names(tree: ast.Module) -> list[str]:
    """Private functions, classes and assigned names at module level
    that no expression in the module reads; dunder names are not private."""
    defined: list[str] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, ast.Assign):
            defined += [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defined.append(node.target.id)
    used = read_names(tree)
    return [
        name
        for name in defined
        if name.startswith("_") and not name.endswith("__") and name not in used
    ]


def read_attributes(tree: ast.Module) -> set[str]:
    """Attribute names that some expression in the module reads."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store)
    }


def unused_private_methods(tree: ast.Module, read: set[str], inherited=lambda cls, name: False) -> list[str]:
    """``Class.method`` for each method of a private class at module level
    whose name is not in ``read``.  Dunder methods are exempt, and so is a
    method for which ``inherited(class, method)`` holds: an override that
    code outside the package calls."""
    unused: list[str] = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef) or not node.name.startswith("_"):
            continue
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = item.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name not in read and not inherited(node.name, name):
                unused.append(f"{node.name}.{name}")
    return unused


def defined_outside_the_package(module: str):
    """The test whether a class of ``module`` inherits a method name from
    a base class outside the package, such as ``json.JSONEncoder.encode``,
    which ``json.dumps`` calls."""
    def inherited(class_name: str, name: str) -> bool:
        # imported only when asked, since importing __main__ runs the CLI
        namespace = importlib.import_module(f"jeopardy_iaa.{module}")
        bases = getattr(namespace, class_name).__mro__[1:]
        return any(name in vars(base) for base in bases if not base.__module__.startswith("jeopardy_iaa"))

    return inherited


# every name and attribute name that an expression anywhere in the package reads
PACKAGE_READS = set().union(*(read_names(_tree(m)) | read_attributes(_tree(m)) for m in ALL_MODULES))


def imported_modules(tree: ast.Module) -> set[str]:
    """The package's modules that a module imports, at any depth."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("jeopardy_iaa."):
                    found.add(alias.name.split(".")[1])
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1 or node.module == "jeopardy_iaa":
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("jeopardy_iaa."):
                found.add(node.module.split(".")[1])
    return found


def test_the_checks_see_what_they_check():
    source = (
        "import os\nimport json.decoder\nfrom .x import a, b as c\n"
        "from . import analysis\nfrom jeopardy_iaa.cli import main\n"
        "def f(v: 'a') -> None:\n    import jeopardy_iaa.parser\n    main()\n"
    )
    tree = ast.parse(source)
    assert unused_imports(tree) == ["os", "json", "c", "analysis", "jeopardy_iaa"]
    assert imported_modules(tree) == {"x", "analysis", "cli", "parser"}
    source = (
        "__all__ = ['f']\n_read = 1\n_stored = _read\n_typed: int = 3\n"
        "def _helper() -> '_Quoted': pass\nclass _Quoted: pass\nclass _Unused: pass\n"
        "def f(): return _helper()\n"
    )
    assert unused_private_names(ast.parse(source)) == ["_stored", "_typed", "_Unused"]
    source = (
        "class _P:\n    def parse(self): return self.atom()\n    def atom(self): pass\n"
        "    def parse_pattern_atom(self): pass\n    def __repr__(self): pass\n    def encode(self): pass\n"
        "class Public:\n    def unread(self): pass\n"
        "def f(p): p.parse(); p.stored = 1\n"
    )
    tree = ast.parse(source)
    read = read_names(tree) | read_attributes(tree)
    assert "stored" not in read
    assert unused_private_methods(tree, read) == ["_P.parse_pattern_atom", "_P.encode"]
    assert unused_private_methods(tree, read, lambda cls, name: name == "encode") == ["_P.parse_pattern_atom"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports(_tree(module)) == []


@pytest.mark.parametrize("module", ALL_MODULES)
def test_no_unused_private_names(module):
    assert unused_private_names(_tree(module)) == []


@pytest.mark.parametrize("module", ALL_MODULES)
def test_no_unused_private_methods(module):
    tree = _tree(module)
    assert unused_private_methods(tree, PACKAGE_READS, defined_outside_the_package(module)) == []


@pytest.mark.parametrize("module", LOWER)
def test_lower_layers_do_not_import_the_analysis_or_the_cli(module):
    assert imported_modules(_tree(module)) & UPPER == set()


def test_the_analysis_imports_neither_the_parser_nor_the_printer():
    # it works on labeled trees and reports labels, never source text
    assert imported_modules(_tree("analysis")) & {"parser", "printer"} == set()


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -S: no site hooks, so only the package and what it imports count
    probe = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import jeopardy_iaa.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True, timeout=60
    )
    assert result.stdout == "[]\n"
