"""Golden of each subcommand's start-up cost: the ``fpmfp`` modules one
run loads, and the AST nodes of their source.

Without cached bytecode (the benchmark runs its children with
``PYTHONDONTWRITEBYTECODE=1``) a run compiles every package module it
loads, so the nodes of those modules measure what the package adds to
the run's start-up.  Each entry runs ``cli.main`` on ``fig2.mir`` in a
fresh interpreter and lists the ``fpmfp`` modules loaded after it
returns, ``cli`` and the package root (``__init__``) included, with
the sum of their ``ast.walk`` node counts.  Any change to a module a run
loads shows in its count.

Run this file as a script to rewrite the golden.
"""
from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

import fpmfp

from conftest import fixture_text

GOLDEN = Path(__file__).resolve().parent / "golden" / "startup_cost.json"
PACKAGE = Path(fpmfp.__file__).resolve().parent
PROGRAM = ("--program", "fig2.mir", "--output", "report")
ANALYSES = ("rd", "uninit", "interval")
RUNS = {
    "--help": ("--help",),
    "detect-mips": ("detect-mips", *PROGRAM),
    "detect-mips --dot": ("detect-mips", *PROGRAM, "--dot", "dot"),
    "dump-dot": ("dump-dot", *PROGRAM),
    **{f"analyze --analysis {name}": (
        "analyze", *PROGRAM, "--analysis", name, "--mode", "fpmfp")
       for name in ANALYSES},
    **{f"compare --analysis {name}": ("compare", *PROGRAM, "--analysis", name)
       for name in ANALYSES},
    "compare --analysis rd --format table": (
        "compare", *PROGRAM, "--analysis", "rd", "--format", "table"),
    "oracle-check": ("oracle-check", "--fixtures", ".", "--output", "report"),
}
SCRIPT = (
    "import sys\n"
    "from fpmfp import cli\n"
    "try:\n"
    "    code = cli.main(sys.argv[1:])\n"
    "except SystemExit as exc:\n"
    "    code = exc.code\n"
    "print(code, *[name for name in sys.modules\n"
    "              if name.split('.')[0] == 'fpmfp'])\n"
)


def loaded(cwd: str, argv: tuple[str, ...]) -> list[str]:
    """The sorted stems of the package modules a run of ``argv`` loads."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    child = subprocess.run([sys.executable, "-c", SCRIPT, *argv],
                           capture_output=True, text=True, env=env, cwd=cwd,
                           timeout=120)
    code, *names = child.stdout.splitlines()[-1].split()
    assert code == "0", child.stderr
    return sorted(name.partition(".")[2] or "__init__" for name in names)


@lru_cache(maxsize=None)
def nodes(stem: str) -> int:
    tree = ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))
    return sum(1 for _ in ast.walk(tree))


def costs() -> dict[str, dict]:
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "fig2.mir").write_text(fixture_text("fig2"))
        out = {}
        for name, argv in RUNS.items():
            modules = loaded(tmp, argv)
            out[name] = {"modules": modules,
                         "ast_nodes": sum(map(nodes, modules))}
    return out


def test_startup_costs_match_the_golden():
    assert costs() == json.loads(GOLDEN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(costs(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
