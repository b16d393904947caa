"""Rules the package's own source code keeps."""
from __future__ import annotations

import ast
import os
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
