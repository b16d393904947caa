"""Rules the package's own source code keeps."""
from __future__ import annotations

import ast
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
