"""Golden of segment detection: one hash per ``detect-mips`` report.

Each entry is the sha256 of the JSON report ``fpmfp detect-mips`` writes
for one program, run in process through ``fpmfp.cli.main``.  The corpus
is the fixtures, ``generate_program`` seeds 0-99 acyclic and with loops,
and ``generate_multi_program`` seeds 0-99.

Run this file as a script to rewrite the golden.
"""
from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

from fpmfp.cli import main
from fpmfp.progen import generate_multi_program, generate_program

from conftest import FIXTURES

GOLDEN = Path(__file__).resolve().parent / "golden" / "detect_fingerprints.json"


def corpus() -> list[tuple[str, str]]:
    cases = [(f"fixture-{p.stem}", p.read_text(encoding="utf-8"))
             for p in sorted(FIXTURES.glob("*.mir"))]
    for acyclic in (True, False):
        cases += [(f"gen-{seed}-{'acyclic' if acyclic else 'loops'}",
                   generate_program(seed, acyclic=acyclic))
                  for seed in range(100)]
    cases += [(f"multi-{seed}", generate_multi_program(seed))
              for seed in range(100)]
    return cases


def fingerprints() -> dict[str, str]:
    out: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        program, report = Path(tmp, "p.mir"), Path(tmp, "report.json")
        for name, source in corpus():
            program.write_text(source, encoding="utf-8")
            code = main(["detect-mips", "--program", str(program),
                         "--output", str(report)])
            assert code == 0, name
            out[name] = hashlib.sha256(report.read_bytes()).hexdigest()
    return out


def test_reports_match_the_golden():
    assert fingerprints() == json.loads(GOLDEN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(fingerprints(), indent=1, sort_keys=True)
                      + "\n", encoding="utf-8")
