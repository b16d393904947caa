"""``fpmfp oracle-check``: the bounded path-enumeration property suite
over a fixture directory and/or generated random programs.

Workers of ``--jobs`` find ``_check_program`` by this module's name.
"""
from __future__ import annotations

import os
from pathlib import Path

from . import SCHEMA, _Failure, _info, _UsageError
from .cmd_io import _read_source, _write_json

_SUITE_ANALYSES = ("rd", "must-defined", "interval")


def _folds_differ(one, other) -> bool:
    """Whether two solutions of one program differ in a folded In, Out or
    edge value: what comparing their ``folded_in``, ``folded_out`` and
    ``folded_edges`` says, with far fewer folds.

    Equal pair maps have equal folds, so an edge or a node's Out is
    folded only where the two pair maps differ, and a node's Out also at
    every call node: each solve's call transfer applies its own summaries
    or callee exits.  Node and edge ids are unique in a program, so
    comparing procedure by procedure is comparing the merged views.
    """
    from .frontend import StKind
    from .lifted import fold

    analysis = one.analysis
    for name, a in one.procs.items():
        b = other.procs[name]
        if a.folded_in != b.folded_in:
            return True
        nodes = a.cfg.nodes
        for n, pairs in a.node_in.items():
            node = nodes[n]
            if pairs == b.node_in[n] and node.statement.kind != StKind.CALL:
                continue
            outs = [fold({key: sol.node_transfer(node, v)
                          for key, v in sol.node_in[n].items()}, analysis)
                    for sol in (a, b)]
            if outs[0] != outs[1]:
                return True
        edges = b.edge_values
        for eid, pairs in a.edge_values.items():
            if (pairs != edges[eid]
                    and fold(pairs, analysis) != fold(edges[eid], analysis)):
                return True
    return False


def _check_program(task: tuple[str, str, int | None, int]
                   ) -> tuple[list[dict], list[dict]]:
    """All property checks for one program; returns its violation
    records and the records of the path-tree checks it skipped.

    What does not depend on the analysis is done once per program: the
    call graph, segment detection, and each procedure's path tree.
    """
    from .frontend import (
        ParseError, UnreachableNode, UnresolvedCall, build_call_graph,
        parse_program)
    from .lattice import make_analysis
    from .lifted import NonTermination, solve_fpmfp_interprocedural
    from .mfp import solve_mfp
    from .mips import detect_mips
    from .oracle import Explosion, path_tree, solution_semantics

    name, source, max_length, edge_cap = task
    # Records per analysis, so the report stays analysis-major although
    # each path tree serves every analysis.
    found: dict[str, list[dict]] = {}
    skipped: dict[str, list[dict]] = {}

    def bad(analysis_name: str, prop: str, where: str, detail: str) -> None:
        found[analysis_name].append({
            "program": name, "analysis": analysis_name,
            "property": prop, "location": where, "detail": detail,
        })

    try:
        program = parse_program(source)
    except (ParseError, UnresolvedCall, UnreachableNode) as exc:
        return [{"program": name, "analysis": "-", "property": "parse",
                 "location": "-", "detail": str(exc)}], []
    call_graph = build_call_graph(program)
    universe = detect_mips(program, call_graph)
    solved = []
    for analysis_name in _SUITE_ANALYSES:
        found[analysis_name], skipped[analysis_name] = [], []
        analysis = make_analysis(analysis_name, program)
        try:
            flat = solve_mfp(program, analysis, call_graph=call_graph)
            lifted = solve_fpmfp_interprocedural(
                program, analysis, universe, call_graph=call_graph)
            plain = solve_fpmfp_interprocedural(
                program, analysis, universe, frozenset(),
                call_graph=call_graph)
        except NonTermination as exc:
            bad(analysis_name, "termination", "-", str(exc))
            continue
        folded_in = lifted.folded_in
        for kind, low, high in (("n", flat.folded_in, folded_in),
                                ("e", flat.folded_edges, lifted.folded_edges)):
            for loc in analysis.unrefined(low, high):
                bad(analysis_name, "mfp-refined-by-fold", f"{kind}{loc}",
                    f"{analysis.format(low[loc])} !<= "
                    f"{analysis.format(high[loc])}")
        if _folds_differ(lifted, plain):
            bad(analysis_name, "optimization-neutrality", "-",
                "folds differ between --opts 1,2,3 and --opts none")
        solved.append((analysis_name, analysis, lifted, folded_in))
    # One tree at a time: each is evaluated for every analysis that
    # solved and dropped before the next is built.
    for proc in program.procedures if solved else ():
        try:
            tree = path_tree(
                proc.cfg, universe, proc.name,
                max_len=max_length, edge_cap=edge_cap)
        except Explosion:
            _info("%s: procedure %s has too many paths; its path-tree "
                  "checks are skipped", name, proc.name)
            tree = None
        for analysis_name, analysis, lifted, folded_in in solved:
            unchecked = []
            if tree is None:
                reason, unchecked = "explosion", ["fold-bounded-by-path-meets"]
            else:
                node_transfer, refine = solution_semantics(lifted, proc)
                oracle = tree.meets(
                    boundary=lifted.boundaries[proc.name],
                    meet=analysis.meet, node_transfer=node_transfer,
                    refine=refine)
                for nid, meets in oracle.node_in.items():
                    if not analysis.leq(folded_in[nid], meets):
                        bad(analysis_name, "fold-bounded-by-path-meets",
                            f"n{nid}",
                            f"{analysis.format(folded_in[nid])} !<= "
                            f"{analysis.format(meets)}")
                reason = "truncated" if oracle.truncated else None
            if analysis.is_distributive and reason is None:
                for nid, meets in oracle.node_in.items():
                    if folded_in[nid] != meets:
                        bad(analysis_name, "distributive-equality",
                            f"n{nid}",
                            f"{analysis.format(folded_in[nid])} != "
                            f"{analysis.format(meets)}")
            elif analysis.is_distributive:
                unchecked.append("distributive-equality")
            skipped[analysis_name] += [
                {"program": name, "procedure": proc.name,
                 "analysis": analysis_name, "property": prop,
                 "reason": reason} for prop in unchecked]
        del tree
    return ([record for records in found.values() for record in records],
            [record for records in skipped.values() for record in records])


def handle(args) -> int:
    sources: list[tuple[str, str]] = []
    if args.fixtures is not None:
        root = Path(args.fixtures)
        if not root.is_dir():
            raise _Failure(f"not a directory: {root}")
        paths = sorted(root.glob("*.mir"))
        if not paths:
            raise _Failure(f"no .mir programs under {root}")
        sources.extend((p.name, _read_source(p)) for p in paths)
    if args.random:
        from . import progen

        sources.extend(
            progen.check_programs(args.seed, args.random, acyclic=False))
    if not sources:
        raise _UsageError("oracle-check needs --fixtures and/or --random N")
    tasks = [(name, text, args.max_length, args.max_loop)
             for name, text in sources]
    # A process pool starts all its workers at once: start no more than
    # there are programs to check and CPUs to check them on.
    workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers) as pool:
            per_program = list(pool.map(_check_program, tasks))
    else:
        per_program = [_check_program(task) for task in tasks]
    violations = [record for group, _ in per_program for record in group]
    _info("checked %d program(s): %d violation(s)",
          len(tasks), len(violations))
    payload = {
        "schema": SCHEMA,
        "programs": len(tasks),
        "analyses": list(_SUITE_ANALYSES),
        "violations": violations,
        "skipped": [record for _, group in per_program for record in group],
    }
    _write_json(payload, args.output)
    return 2 if violations else 0
