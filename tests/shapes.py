"""Program generators shared by the tests and the scaling harness,
``scaling/run.py``.  Nothing here imports pytest, so a plain script can
import this module."""
from __future__ import annotations


def perf_program(modules: int = 100, target_nodes: int = 2000) -> str:
    """One large single-procedure program with many local segments.

    Each module is a fig2-style correlated pair over its own selector, so
    segments never span modules and the tracked-pair population stays
    small at every edge while the universe grows with ``modules``.
    Straight-line filler pads the program to ``target_nodes`` statements.
    """
    lines: list[str] = []
    for i in range(modules):
        sel = f"s{i}"
        var = f"v{i % 8}"
        lines.append(f"read {sel};")
        lines.append(f"if ({sel} == 0) {{ {var} = 1; }} "
                     f"else {{ {var} = 2; }}")
        lines.append(f"if ({var} == 3) {{ print {var}; }}")
    # Each module contributes ~6 nodes once parsed; pad the rest with
    # straight-line assignments.
    filler = 0
    while modules * 6 + filler < target_nodes:
        lines.append(f"f{filler % 16} = {filler % 11};")
        filler += 1
    body = "\n".join("  " + line for line in lines)
    return f"proc main() {{\n{body}\n}}\n"


def diamonds(k: int) -> str:
    """A correlated ``s == 0`` pair with k independent ``c > i`` diamonds
    between them: every walk from one arm of the first test through the
    diamonds to the other arm of the second is a segment."""
    body = ["read s;", "read c;", "if (s == 0) { a = 1; } else { a = 2; }"]
    body += [f"if (c > {i}) {{ y = {i}; }} else {{ skip; }}"
             for i in range(k)]
    body.append("if (s == 0) { print a; } else { print y; }")
    return "proc main() {\n  " + "\n  ".join(body) + "\n}\n"
