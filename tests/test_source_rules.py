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
# and ``tokenize``), which every CLI run would pay before doing any work.
SLOW_IMPORTS = {"dataclasses", "logging"}


def test_no_slow_stdlib_imports():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] in SLOW_IMPORTS]
    assert len(list(SRC.glob("*.py"))) > 1
    assert found == []


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
