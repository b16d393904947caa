"""``fpmfp dump-dot``: emit a program's control-flow graph in DOT form.
"""
from __future__ import annotations

from .cmd_io import _load_program, _write_text


def handle(args) -> int:
    from .render import emit_dot_program

    program = _load_program(args.program)
    _write_text(emit_dot_program(program), args.output)
    return 0
