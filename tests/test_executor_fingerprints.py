"""Golden of the concrete executor: one hash per program.

Each entry is the sha256 of ``repr(list(execute_all(program)))``, every
run's traces in the order the executor yields them, or the word ``Explosion``
when the program needs more than ``_RUN_LIMIT`` runs.  ``_RUN_LIMIT`` is
patched to 2,000 so that the corpus runs in a few seconds.  The corpus
is the fixtures, ``generate_program`` seeds 0-19 acyclic and with loops,
and ``generate_multi_program`` seeds 0, 2, 5 and 6.

Run this file as a script to rewrite the golden.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from fpmfp import concrete
from fpmfp.concrete import execute_all
from fpmfp.frontend import parse_program
from fpmfp.oracle import Explosion
from fpmfp.progen import generate_multi_program, generate_program

from conftest import FIXTURES

GOLDEN = (Path(__file__).resolve().parent / "golden"
          / "executor_fingerprints.json")
RUN_LIMIT = 2_000


def sources() -> list[tuple[str, str]]:
    cases = [(f"fixture-{p.stem}", p.read_text(encoding="utf-8"))
             for p in sorted(FIXTURES.glob("*.mir"))]
    for acyclic in (True, False):
        cases += [(f"gen-{seed}-{'acyclic' if acyclic else 'loops'}",
                   generate_program(seed, acyclic=acyclic))
                  for seed in range(20)]
    cases += [(f"multi-{seed}", generate_multi_program(seed))
              for seed in (0, 2, 5, 6)]
    return cases


def fingerprint(source: str) -> str:
    try:
        runs = list(execute_all(parse_program(source)))
    except Explosion:
        return "Explosion"
    return hashlib.sha256(repr(runs).encode("utf-8")).hexdigest()


def fingerprints() -> dict[str, str]:
    return {name: fingerprint(source) for name, source in sources()}


def test_runs_match_the_golden(monkeypatch):
    monkeypatch.setattr(concrete, "_RUN_LIMIT", RUN_LIMIT)
    assert fingerprints() == json.loads(GOLDEN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    concrete._RUN_LIMIT = RUN_LIMIT
    GOLDEN.write_text(json.dumps(fingerprints(), indent=1, sort_keys=True)
                      + "\n", encoding="utf-8")
