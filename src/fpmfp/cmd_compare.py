"""``fpmfp compare``: run both modes and report where the feasible-path
solution is strictly more precise, with the client summaries.
"""
from __future__ import annotations

import sys

from . import _ANALYSIS_FOR_FLAG, SCHEMA
from .cmd_io import _load_program, _write_json, _write_text


def handle(args) -> int:
    from .clients import PrecisionViolation, compare_modes
    from .lattice import make_analysis

    program = _load_program(args.program)
    name = _ANALYSIS_FOR_FLAG[args.analysis]
    analysis = make_analysis(name, program)
    try:
        report = compare_modes(program, analysis, args.opts)
    except PrecisionViolation as exc:
        sys.stderr.write(f"fpmfp: precision violation: {exc}\n")
        return 2
    if args.format == "table":
        from .render import client_table, comparison_table

        text = comparison_table(report)
        if report.client is not None:
            text += "\n" + client_table(report.client)
        if not text.endswith("\n"):
            text += "\n"
        _write_text(text, args.output)
        return 0
    payload = {"schema": SCHEMA,
               **report.to_json(timing=not args.no_timing)}
    if report.client is not None:
        payload[report.client.compare_key] = report.client.to_json()
    _write_json(payload, args.output)
    return 0
