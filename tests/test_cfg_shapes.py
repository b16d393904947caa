"""Golden of CFG shapes: node and edge numbering, labels, start and exit.

Every layer and report reads the CFG the front end builds, so its shape
is pinned here as one hash per program: sha256 over the program's
``emit_dot_program`` text (every node with its statement, every edge with
its id, endpoints and label) followed by each procedure's name, start id
and exit id.  A program the front end rejects is pinned by its error
text instead.  The programs are the fixtures, ``generate_program`` seeds
0-199 both acyclic and with loops, ``generate_multi_program`` seeds 0-99,
and hand-written cases for the start-node rule and the wiring corners.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from fpmfp.frontend import parse_program
from fpmfp.progen import generate_multi_program, generate_program
from fpmfp.render import emit_dot_program

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden" / "cfg_shapes.json"

EDGE_CASES = {
    "empty-body": "proc main() { }",
    "empty-loop": "proc main() { read x; while (x < 3) { } print x; }",
    "loop-first": "proc main() { while (x < 3) { x = x + 1; } }",
    "nested-loops": ("proc main() { read x; while (x < 9) { while (x > 2) "
                     "{ x = x - 1; } x = x + 2; } }"),
    "exit-then-statement": "proc main() { exit; x = 1; }",
    "exit-in-arm": ("proc main() { read x; if (x > 0) { exit; } else "
                    "{ skip; } print x; }"),
    "exit-last": "proc main() { read x; if (x > 0) { exit; } }",
    "mixed-and-or": ("proc main() { read a; read b; if (a > 1 && b < 2 || "
                     "a == b && b != 0 || a) { print a; } else "
                     "{ print b; } }"),
    "empty-arms": ("proc main() { read s; switch (s) { case 1: { } "
                   "case -2: { s = 1; } default: { } } if (s == 1) { } "
                   "else { } print s; }"),
    "atomic-cond": ("proc main() { read x; while (@atomic_cond x > 1 && "
                    "x < 9) { x = x - 1; } if (@atomic_cond x || x == 3) "
                    "{ print x; } }"),
    "unresolved-call": "proc main() { foo(); }",
    "two-procs": ("global g; extern lib; proc main() { g = 1; p(); lib(); } "
                  "proc p() { if (g > 0) { g = g - 1; p(); } }"),
}


def corpus() -> list[tuple[str, str]]:
    """(name, source) for every program, the same on every run."""
    cases = [(f"fixture-{p.stem}", p.read_text(encoding="utf-8"))
             for p in sorted(FIXTURES.glob("*.mir"))]
    cases += [(f"edge-{name}", source) for name, source in EDGE_CASES.items()]
    for acyclic in (True, False):
        cases += [(f"gen-{seed}-{'acyclic' if acyclic else 'loops'}",
                   generate_program(seed, acyclic=acyclic))
                  for seed in range(200)]
    cases += [(f"multi-{seed}", generate_multi_program(seed))
              for seed in range(100)]
    return cases


def shape(source: str) -> str:
    try:
        program = parse_program(source)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    text = emit_dot_program(program) + "".join(
        f"{p.name} start n{p.cfg.start} exit n{p.cfg.exit}\n"
        for p in program.procedures)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_shapes_match_the_golden():
    got = {name: shape(source) for name, source in corpus()}
    assert got == json.loads(GOLDEN.read_text(encoding="utf-8"))
