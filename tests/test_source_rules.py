"""Rules the package's own source code keeps."""
from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fpmfp"


def test_no_assert_statements():
    """``python -O`` strips ``assert``: a check must raise a real error."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert len(list(SRC.glob("*.py"))) > 1
    assert found == []


# Standard modules that take milliseconds to import (``dataclasses`` pulls
# in ``inspect``, ``dis`` and ``ast``; ``logging`` pulls in ``traceback``
# and ``tokenize``), which every CLI run would pay before doing any work,
# and ``enum``, whose members resolve through a Python-level descriptor:
# ``kind == StKind.CALL`` on an ``Enum`` costs several times a comparison
# of plain constants, on every transfer, refine and path-tree step.
SLOW_IMPORTS = {"dataclasses", "enum", "logging"}


def _imports(tree: ast.AST):
    """(line, top-level module name) of each absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            yield node.lineno, name.split(".")[0]


def test_no_slow_stdlib_imports():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{line}: {name}"
                  for line, name in _imports(tree) if name in SLOW_IMPORTS]
    assert len(list(SRC.glob("*.py"))) > 1
    assert found == []


def test_only_the_entry_function_uses_the_collector():
    """``cli.run`` freezes the collector on its way out.  ``cli.main``,
    which tests and library callers run in process, and every other
    function must leave it alone: only ``cli`` imports ``gc``, and
    ``run`` is the only function there that names it."""
    importers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        importers += [path.name for _, name in _imports(tree) if name == "gc"]
    assert importers == ["cli.py"]
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    users = {function.name for function in ast.walk(tree)
             if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
             and (any(isinstance(node, ast.Name) and node.id == "gc"
                      for node in ast.walk(function))
                  or any(name == "gc" for _, name in _imports(function)))}
    assert users == {"run"}


def test_benchmark_imports_resolve():
    """The traced benchmark run imports these layers' functions by name;
    an API it uses must not vanish without this failing."""
    root = SRC.parent.parent
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   [str(root / "perfbench"), str(SRC.parent)]))
    child = subprocess.run([sys.executable, "-c", "import layers"],
                           capture_output=True, text=True, env=env,
                           cwd=root, timeout=120)
    assert child.returncode == 0, child.stderr


# ---------------------------------------------------------------------------
# No public name in ``src/`` exists only for the tests
# ---------------------------------------------------------------------------

ROOT = SRC.parent.parent


def _referenced(tree: ast.AST) -> set[str]:
    """Every name ``tree`` refers to: bare names, attribute names and the
    names an import binds."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _benchmark_imports(tree: ast.AST) -> set[str]:
    """The ``fpmfp`` names a benchmark module imports, directly or as an
    attribute of an ``fpmfp`` module it imports."""
    names: set[str] = set()
    modules: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module.split(".")[0] == "fpmfp"):
            names.update(alias.name for alias in node.names)
            if node.module == "fpmfp":
                modules.update(alias.asname or alias.name
                               for alias in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add(node.attr)
    return names


def _library_use_names(readme: str) -> set[str]:
    """The identifiers in README "Library use": its Python example and its
    code spans."""
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    names = _referenced(ast.parse(example))
    for span in re.findall(r"`([^`\n]+)`", section):
        names.update(re.findall(r"[A-Za-z_]\w*", span))
    return names


def unused_public_names(sources: dict[str, str], benchmark: list[str],
                        readme: str) -> list[str]:
    """``module: name`` for each public top-level def or class in
    ``sources`` (module file name to text) that no other top-level
    statement of ``sources`` refers to, no ``benchmark`` module imports
    and README "Library use" does not name."""
    allowed = _library_use_names(readme)
    for text in benchmark:
        allowed |= _benchmark_imports(ast.parse(text))
    statements = [(name, stmt) for name, text in sorted(sources.items())
                  for stmt in ast.parse(text, name).body]
    refs = [_referenced(stmt) for _, stmt in statements]
    found = []
    for i, (module, stmt) in enumerate(statements):
        if (not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                or stmt.name.startswith("_") or stmt.name in allowed):
            continue
        if not any(stmt.name in names
                   for j, names in enumerate(refs) if j != i):
            found.append(f"{module}: {stmt.name}")
    return found


def _tree_texts():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    benchmark = [path.read_text(encoding="utf-8")
                 for path in sorted((ROOT / "perfbench").glob("*.py"))]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return sources, benchmark, readme


def test_every_public_name_has_a_non_test_reader():
    """A public def or class in ``src/fpmfp`` is read by another part of
    the package, imported by the benchmark (whose imports
    ``test_benchmark_imports_resolve`` pins) or named in README "Library
    use".  A helper only tests call belongs next to those tests."""
    sources, benchmark, readme = _tree_texts()
    assert len(sources) > 1 and benchmark
    assert unused_public_names(sources, benchmark, readme) == []


def test_public_name_rule_catches_a_planted_helper():
    sources, benchmark, readme = _tree_texts()
    sources["progen.py"] += (
        "\n\ndef planted_helper(n):\n"
        "    return planted_helper(n - 1) if n else 0\n")
    assert unused_public_names(sources, benchmark, readme) == [
        "progen.py: planted_helper"]
    # Naming it in the "Library use" prose is enough.
    readme = readme.replace("\n## Library use\n",
                            "\n## Library use\n\n`planted_helper`\n", 1)
    assert unused_public_names(sources, benchmark, readme) == []
