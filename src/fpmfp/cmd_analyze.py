"""``fpmfp analyze``: dump one classic or feasible-path solution as
JSON.
"""
from __future__ import annotations

from . import _ANALYSIS_FOR_FLAG, SCHEMA
from .cmd_io import _load_program, _write_json


def _node_records(program, view, ins: dict, outs: dict):
    records = []
    for proc in program.procedures:
        for nid in sorted(proc.cfg.nodes):
            records.append({
                "proc": proc.name,
                "node": nid,
                "in": view(ins[nid]),
                "out": view(outs[nid]),
            })
    return records


def _edge_pair_records(program, view, edge_values):
    from .lifted import sorted_keys

    records = []
    for proc in program.procedures:
        for eid in sorted(proc.cfg.edges):
            pairs = edge_values.get(eid, {})
            records.append({
                "proc": proc.name,
                "edge": f"e{eid}",
                "pairs": [
                    {"mips": sorted(key), "value": view(pairs[key])}
                    for key in sorted_keys(pairs)
                ],
            })
    return records


def handle(args) -> int:
    from .frontend import build_call_graph
    from .lattice import make_analysis
    from .lifted import solve_fpmfp_interprocedural
    from .mfp import solve_mfp
    from .mips import detect_mips

    program = _load_program(args.program)
    analysis = make_analysis(_ANALYSIS_FOR_FLAG[args.analysis], program)
    view = analysis.to_json
    if args.mode == "mfp":
        solution = solve_mfp(program, analysis)
    else:
        call_graph = build_call_graph(program)
        universe = detect_mips(program, call_graph)
        solution = solve_fpmfp_interprocedural(
            program, analysis, universe, args.opts, call_graph=call_graph)
    payload = {
        "schema": SCHEMA,
        "analysis": analysis.name,
        "mode": args.mode,
        "solution": _node_records(
            program, view, solution.folded_in, solution.folded_out),
    }
    if args.mode == "fpmfp":
        payload["opts"] = sorted(args.opts)
        payload["edge_pairs"] = _edge_pair_records(
            program, view, solution.edge_values)
    _write_json(payload, args.output)
    return 0
