"""``fpmfp detect-mips``: list a program's minimal infeasible path
segments, and draw them over its CFG with ``--dot``.
"""
from __future__ import annotations

from . import SCHEMA, _info
from .cmd_io import _load_program, _write_json, _write_text


def _overlay_annotations(universe) -> dict[int, str]:
    parts: dict[int, list[str]] = {}
    for mips in universe.all:
        for eid in mips.edges:
            if eid == mips.start:
                role = "start"
            elif eid == mips.end:
                role = "end"
            else:
                role = "inner"
            parts.setdefault(eid, []).append(f"m{mips.id}:{role}")
    return {eid: ",".join(tags) for eid, tags in sorted(parts.items())}


def handle(args) -> int:
    from .mips import detect_mips

    program = _load_program(args.program)
    universe = detect_mips(program)
    _info("detected %d segment(s)", len(universe.all))
    payload = {
        "schema": SCHEMA,
        "mips": [m.to_json() for m in universe.all],
    }
    _write_json(payload, args.output)
    if args.dot is not None:
        from .render import emit_dot_program

        overlay = emit_dot_program(program, _overlay_annotations(universe))
        _write_text(overlay, args.dot)
    return 0
