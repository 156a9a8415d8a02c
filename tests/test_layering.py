"""Module hygiene of the package, read from its sources with ``ast``: no
module imports a name that it never uses or defines a private name at
module level that it never reads, no private class has a method that no
expression in the package reads, no public function or class is read by
the tests alone, and the front end and the evaluator import neither the
analysis nor the CLI, so that running a program never loads the
analyzer, and the analysis imports neither the parser nor the printer.
Importing the CLI loads neither ``dataclasses`` nor ``inspect``, which
would add to every start-up.  The benchmark's modules, read the same
way and left as they are, name only what the package has: the tracer
rebinds names of ``jeopardy_iaa.cli``, and every name they import from
the package resolves."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "jeopardy_iaa"
BENCHMARK = PACKAGE.parent.parent / "perfbench"
ALL_MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))
MODULES = [module for module in ALL_MODULES if module != "__init__"]

# public names that no code outside the tests reads, each with a test file
# that reads it; any other such name is API that nothing needs
TEST_SUPPORT = (("desugar", "assert_core", "test_desugar.py"),)

# the layers below the analysis, and what they may not import
LOWER = ("syntax", "parser", "printer", "desugar", "labeler", "evaluator")
UPPER = frozenset({"analysis", "cli"})


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def benchmark_trees() -> dict[str, ast.Module]:
    """The benchmark's own modules, less its tests, by file name."""
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(BENCHMARK.glob("*.py"))
        if not path.name.startswith("test_")
    }


def read_names(tree: ast.AST) -> set[str]:
    """Names that some expression in the tree reads; a quoted
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


def read_attributes(tree: ast.AST) -> set[str]:
    """Attribute names that some expression in the tree reads."""
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


def unread_public_names(trees: dict[str, ast.Module], elsewhere: set[str]) -> list[str]:
    """``module.name`` for each public function or class at module level
    of ``trees`` that is not in ``elsewhere`` and that no statement of
    ``trees`` reads, other than its own definition."""
    reads = [
        (statement, read_names(statement) | read_attributes(statement))
        for tree in trees.values()
        for statement in tree.body
    ]
    unread: list[str] = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in elsewhere:
                continue
            if not any(node.name in read for statement, read in reads if statement is not node):
                unread.append(f"{module}.{node.name}")
    return unread


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
    trees = {
        "a": ast.parse("def f(): return f()\nclass C: pass\ndef g(): pass\ndef _h(): pass\n"),
        "b": ast.parse("def e(x: 'C'): pass\n"),
    }
    assert unread_public_names(trees, set()) == ["a.f", "a.g", "b.e"]
    assert unread_public_names(trees, {"g", "e"}) == ["a.f"]


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


def test_every_public_name_is_read_outside_the_tests():
    # the package, less the re-exports of __init__, and the benchmark's
    # own modules, less its tests
    trees = {module: _tree(module) for module in MODULES}
    elsewhere: set[str] = set()
    for tree in benchmark_trees().values():
        elsewhere |= read_names(tree) | read_attributes(tree)
    assert unread_public_names(trees, elsewhere) == [f"{m}.{name}" for m, name, _ in TEST_SUPPORT]
    tests = Path(__file__).resolve().parent
    for _, name, test in TEST_SUPPORT:
        assert name in read_names(ast.parse((tests / test).read_text(encoding="utf-8"))), test


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


def test_the_benchmark_tracer_rebinds_names_that_the_cli_has():
    # spans.Tracer.install replaces each key of WRAPPED, and json, on the
    # CLI module, and fails at the first one that the CLI no longer has
    (wrapped,) = [
        node.value
        for node in benchmark_trees()["spans.py"].body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["WRAPPED"]
    ]
    names = [*ast.literal_eval(wrapped), "json"]
    assert "configurations" in names
    cli = importlib.import_module("jeopardy_iaa.cli")
    assert [name for name in names if not hasattr(cli, name)] == []


def test_the_benchmark_imports_only_names_that_the_package_has():
    imported: list[str] = []
    for tree in benchmark_trees().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "jeopardy_iaa":
                imported += [f"{node.module}.{alias.name}" for alias in node.names]
    assert imported

    def resolves(dotted: str) -> bool:
        # a name of the module, or a submodule of a package
        module, name = importlib.import_module(dotted.rsplit(".", 1)[0]), dotted.rsplit(".", 1)[1]
        if hasattr(module, name):
            return True
        return hasattr(module, "__path__") and importlib.util.find_spec(dotted) is not None

    assert [dotted for dotted in imported if not resolves(dotted)] == []
