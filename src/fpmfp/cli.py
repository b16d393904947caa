"""Command-line front end.

One binary with five subcommands:

* ``detect-mips`` — list the minimal infeasible path segments of a program.
* ``analyze`` — dump a classic or feasible-path solution as JSON.
* ``compare`` — run both modes and report where the feasible-path solution
  is strictly more precise, with client summaries for ``rd``/``uninit``.
* ``oracle-check`` — run the bounded path-enumeration property suite over a
  fixture directory and/or generated random programs.
* ``dump-dot`` — emit the control-flow graph in DOT form.

Exit codes: 0 success, 1 analysis/input error, 2 property violation
(``oracle-check`` discrepancies, ``compare`` precision violations),
64 usage error.  Reports are written atomically and byte-identically for
identical invocations; wall-clock timing is suppressed by ``--no-timing``.
The ``FPMFP_LOG`` environment variable (error, info, debug) controls log
verbosity on stderr.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import json
import logging
import os
import sys
from pathlib import Path

from . import progen
from .clients import PrecisionViolation, compare_modes
from .frontend import MiniIrProgram, ParseError, emit_dot_program, parse_program
from .lattice import make_analysis
from .lifted import (
    ALL_OPTS,
    NonTermination,
    PairBoundError,
    solve_fpmfp_interprocedural,
    sorted_keys,
)
from .mfp import solve_mfp
from .mips import detect_mips
from .oracle import Explosion, mips_free_meets, solution_semantics

SCHEMA = 1
LOG = logging.getLogger("fpmfp")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO,
               "debug": logging.DEBUG}
# CLI analysis names; ``uninit`` is the alarm-facing alias of must-defined.
_ANALYSIS_FOR_FLAG = {"rd": "rd", "uninit": "must-defined",
                      "interval": "interval"}
_SUITE_ANALYSES = ("rd", "must-defined", "interval")


class _UsageError(Exception):
    """Bad flags or environment; exits 64 with help text."""


class _Failure(Exception):
    """Input or analysis error; exits 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(f"{message}\n{self.format_usage()}")


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def _setup_logging() -> None:
    raw = os.environ.get("FPMFP_LOG", "error")
    level = _LOG_LEVELS.get(raw)
    if level is None:
        raise _UsageError(
            f"FPMFP_LOG must be one of error, info, debug (got {raw!r})")
    logging.basicConfig(
        level=level, stream=sys.stderr,
        format="fpmfp: %(levelname)s: %(message)s")
    LOG.setLevel(level)


def _load_program(path: str) -> MiniIrProgram:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _Failure(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        program = parse_program(text)
    except ParseError as exc:
        raise _Failure(f"{path}: {exc}") from exc
    LOG.info("parsed %s: %d procedure(s)", path, len(program.procedures))
    return program


def _recurring(payload) -> set[int]:
    """Ids of the containers that ``payload`` holds more than once."""
    seen: set[int] = set()
    again: set[int] = set()
    stack = [payload]
    while stack:
        obj = stack.pop()
        if isinstance(obj, dict):
            children = obj.values()
        elif isinstance(obj, (list, tuple)):
            children = obj
        else:
            continue
        if id(obj) in seen:
            again.add(id(obj))
            continue
        seen.add(id(obj))
        stack.extend(children)
    return again


def _json_key(key) -> str:
    """A non-string key as ``json.dumps`` writes it: quoted scalar text."""
    if isinstance(key, (int, float)) or key is None:
        return json.dumps(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {type(key).__name__}")


def _json_text(payload) -> str:
    """What ``json.dumps`` writes with ``indent=2`` and ``sort_keys=True``,
    plus a newline.

    The same bytes, but a container the payload holds more than once is
    encoded once per depth and its text reused, so a report whose rows
    share value views costs time in its distinct content, not its length.
    Both caches live for this call only.
    """
    recurring = _recurring(payload)
    texts: dict[tuple[int, int], str] = {}
    strings: dict[str, str] = {}

    def encode(obj, depth: int) -> str:
        if isinstance(obj, str):
            text = strings.get(obj)
            if text is None:
                text = strings[obj] = json.dumps(obj)
            return text
        if obj is None or obj is True or obj is False \
                or isinstance(obj, float):
            return json.dumps(obj)
        if isinstance(obj, int):
            return int.__repr__(obj)
        shared = id(obj) in recurring
        if shared:
            text = texts.get((id(obj), depth))
            if text is not None:
                return text
        inner = "\n" + "  " * (depth + 1)
        if isinstance(obj, (list, tuple)):
            if not obj:
                return "[]"
            text = "".join((
                "[", inner,
                ("," + inner).join([encode(item, depth + 1) for item in obj]),
                "\n", "  " * depth, "]"))
        elif isinstance(obj, dict):
            if not obj:
                return "{}"
            text = "".join((
                "{", inner,
                ("," + inner).join([
                    (encode(key, 0) if isinstance(key, str)
                     else _json_key(key)) + ": " + encode(value, depth + 1)
                    for key, value in sorted(obj.items())]),
                "\n", "  " * depth, "}"))
        else:
            raise TypeError(f"Object of type {type(obj).__name__} "
                            f"is not JSON serializable")
        if shared:
            texts[id(obj), depth] = text
        return text

    return encode(payload, 0) + "\n"


def _write_text(text: str, path: str | None) -> None:
    """Write to stdout, or atomically replace ``path``.

    Destinations that exist but are not regular files (devices, FIFOs)
    are written through directly; replacing them would be destructive.
    """
    if path is None:
        sys.stdout.write(text)
        return
    dest = Path(path)
    if dest.exists() and not dest.is_file():
        dest.write_text(text, encoding="utf-8")
        return
    tmp = dest.with_name(f"{dest.name}.tmp{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, dest)
    LOG.info("wrote %s", dest)


def _parse_opts(text: str) -> frozenset[int]:
    if text == "none":
        return frozenset()
    try:
        opts = frozenset(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--opts takes a comma list from 1,2,3 or 'none' (got {text!r})")
    if not opts or not opts <= {1, 2, 3}:
        raise argparse.ArgumentTypeError(
            f"--opts takes a comma list from 1,2,3 or 'none' (got {text!r})")
    return opts


# ---------------------------------------------------------------------------
# detect-mips
# ---------------------------------------------------------------------------

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


def _cmd_detect_mips(args: argparse.Namespace) -> int:
    program = _load_program(args.program)
    universe = detect_mips(program)
    LOG.info("detected %d segment(s)", len(universe.all))
    payload = {
        "schema": SCHEMA,
        "mips": [m.to_json() for m in universe.all],
    }
    _write_text(_json_text(payload), args.output)
    if args.dot is not None:
        overlay = emit_dot_program(program, _overlay_annotations(universe))
        _write_text(overlay, args.dot)
    return 0


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _node_records(program: MiniIrProgram, view, ins: dict, outs: dict):
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


def _edge_pair_records(program: MiniIrProgram, view, edge_values):
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


def _cmd_analyze(args: argparse.Namespace) -> int:
    program = _load_program(args.program)
    analysis = make_analysis(_ANALYSIS_FOR_FLAG[args.analysis], program)
    view = analysis.json_views()
    if args.mode == "mfp":
        solution = solve_mfp(program, analysis)
        outs = {
            nid: solution.node_transfer(program.node(nid), value)
            for nid, value in solution.node_in.items()
        }
        payload = {
            "schema": SCHEMA,
            "analysis": analysis.name,
            "mode": "mfp",
            "solution": _node_records(
                program, view, solution.node_in, outs),
        }
    else:
        universe = detect_mips(program)
        solution = solve_fpmfp_interprocedural(
            program, analysis, universe, args.opts)
        payload = {
            "schema": SCHEMA,
            "analysis": analysis.name,
            "mode": "fpmfp",
            "opts": sorted(args.opts),
            "solution": _node_records(
                program, view, solution.folded_in, solution.folded_out),
            "edge_pairs": _edge_pair_records(
                program, view, solution.edge_values),
        }
    _write_text(_json_text(payload), args.output)
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _cmd_compare(args: argparse.Namespace) -> int:
    program = _load_program(args.program)
    name = _ANALYSIS_FOR_FLAG[args.analysis]
    analysis = make_analysis(name, program)
    try:
        report = compare_modes(program, analysis, args.opts)
    except PrecisionViolation as exc:
        sys.stderr.write(f"fpmfp: precision violation: {exc}\n")
        return 2
    if args.format == "table":
        text = report.to_table()
        if report.client is not None:
            text += "\n" + report.client.to_table()
        if not text.endswith("\n"):
            text += "\n"
    else:
        payload = {"schema": SCHEMA,
                   **report.to_json(timing=not args.no_timing)}
        if args.analysis == "rd":
            payload["def_use"] = report.client.to_json()
        elif args.analysis == "uninit":
            payload["alarms"] = report.client.to_json()
        text = _json_text(payload)
    _write_text(text, args.output)
    return 0


# ---------------------------------------------------------------------------
# oracle-check
# ---------------------------------------------------------------------------

def _check_program(task: tuple[str, str, int | None, int]) -> list[dict]:
    """All property checks for one program; returns violation records."""
    name, source, max_length, edge_cap = task
    violations: list[dict] = []

    def bad(analysis_name: str, prop: str, where: str, detail: str) -> None:
        violations.append({
            "program": name, "analysis": analysis_name,
            "property": prop, "location": where, "detail": detail,
        })

    try:
        program = parse_program(source)
    except ParseError as exc:
        return [{"program": name, "analysis": "-", "property": "parse",
                 "location": "-", "detail": str(exc)}]
    universe = detect_mips(program)
    for analysis_name in _SUITE_ANALYSES:
        analysis = make_analysis(analysis_name, program)
        try:
            flat = solve_mfp(program, analysis)
            lifted = solve_fpmfp_interprocedural(program, analysis, universe)
            plain = solve_fpmfp_interprocedural(
                program, analysis, universe, frozenset())
        except NonTermination as exc:
            bad(analysis_name, "termination", "-", str(exc))
            continue
        folded_in = lifted.folded_in
        folded_edges = lifted.folded_edges
        for nid, value in flat.node_in.items():
            if not analysis.leq(value, folded_in[nid]):
                bad(analysis_name, "mfp-refined-by-fold", f"n{nid}",
                    f"{analysis.format(value)} !<= "
                    f"{analysis.format(folded_in[nid])}")
        for eid, value in flat.edge_values.items():
            if not analysis.leq(value, folded_edges[eid]):
                bad(analysis_name, "mfp-refined-by-fold", f"e{eid}",
                    f"{analysis.format(value)} !<= "
                    f"{analysis.format(folded_edges[eid])}")
        if (lifted.folded_in != plain.folded_in
                or lifted.folded_out != plain.folded_out
                or lifted.folded_edges != plain.folded_edges):
            bad(analysis_name, "optimization-neutrality", "-",
                "folds differ between --opts 1,2,3 and --opts none")
        for proc in program.procedures:
            node_transfer, refine = solution_semantics(lifted, proc)
            bound = max_length or 2 * len(proc.cfg.edges)
            try:
                oracle = mips_free_meets(
                    proc.cfg, universe, proc.name,
                    boundary=lifted.boundaries[proc.name],
                    top=analysis.top(), meet=analysis.meet,
                    node_transfer=node_transfer, refine=refine,
                    max_len=bound, edge_cap=edge_cap)
            except Explosion:
                continue
            for nid, meets in oracle.node_in.items():
                if not analysis.leq(folded_in[nid], meets):
                    bad(analysis_name, "fold-bounded-by-path-meets",
                        f"n{nid}",
                        f"{analysis.format(folded_in[nid])} !<= "
                        f"{analysis.format(meets)}")
            if analysis.is_distributive and not oracle.truncated:
                for nid, meets in oracle.node_in.items():
                    if folded_in[nid] != meets:
                        bad(analysis_name, "distributive-equality",
                            f"n{nid}",
                            f"{analysis.format(folded_in[nid])} != "
                            f"{analysis.format(meets)}")
    return violations


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    sources: list[tuple[str, str]] = []
    if args.fixtures is not None:
        root = Path(args.fixtures)
        if not root.is_dir():
            raise _Failure(f"not a directory: {root}")
        paths = sorted(root.glob("*.mir"))
        if not paths:
            raise _Failure(f"no .mir programs under {root}")
        sources.extend((p.name, p.read_text(encoding="utf-8"))
                       for p in paths)
    if args.random:
        sources.extend(
            progen.check_programs(args.seed, args.random, acyclic=False))
    if not sources:
        raise _UsageError("oracle-check needs --fixtures and/or --random N")
    tasks = [(name, text, args.max_length, args.max_loop)
             for name, text in sources]
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=args.jobs) as pool:
            per_program = list(pool.map(_check_program, tasks))
    else:
        per_program = [_check_program(task) for task in tasks]
    violations = [record for group in per_program for record in group]
    LOG.info("checked %d program(s): %d violation(s)",
             len(tasks), len(violations))
    payload = {
        "schema": SCHEMA,
        "programs": len(tasks),
        "analyses": list(_SUITE_ANALYSES),
        "violations": violations,
    }
    _write_text(_json_text(payload), args.output)
    return 2 if violations else 0


# ---------------------------------------------------------------------------
# dump-dot
# ---------------------------------------------------------------------------

def _cmd_dump_dot(args: argparse.Namespace) -> int:
    program = _load_program(args.program)
    _write_text(emit_dot_program(program), args.output)
    return 0


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser, *, analysis: bool = False,
                mode: bool = False, opts: bool = False) -> None:
    sub.add_argument("--program", required=True, metavar="FILE",
                     help="MiniIR source file")
    sub.add_argument("--output", metavar="FILE",
                     help="write the report here (atomic); default stdout")
    if analysis:
        sub.add_argument("--analysis", required=True,
                         choices=sorted(_ANALYSIS_FOR_FLAG),
                         help="which registered analysis to run")
    if mode:
        sub.add_argument("--mode", required=True, choices=["mfp", "fpmfp"],
                         help="classic or feasible-path solution")
    if opts:
        sub.add_argument("--opts", type=_parse_opts, default=ALL_OPTS,
                         metavar="1,2,3|none",
                         help="pair normalizations to enable "
                              "(default: 1,2,3)")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="fpmfp",
        description="Feasible-path data-flow analysis over MiniIR programs.")
    commands = parser.add_subparsers(dest="command", required=True,
                                    metavar="COMMAND")

    detect = commands.add_parser(
        "detect-mips", help="list minimal infeasible path segments")
    _add_common(detect)
    detect.add_argument("--dot", metavar="FILE",
                        help="also write a DOT overlay marking segment "
                             "edges")
    detect.set_defaults(handler=_cmd_detect_mips)

    analyze = commands.add_parser(
        "analyze", help="dump one solution as JSON")
    _add_common(analyze, analysis=True, mode=True, opts=True)
    analyze.set_defaults(handler=_cmd_analyze)

    compare = commands.add_parser(
        "compare", help="diff classic vs feasible-path solutions")
    _add_common(compare, analysis=True, opts=True)
    compare.add_argument("--format", choices=["json", "table"],
                         default="json", help="report format")
    compare.add_argument("--no-timing", action="store_true",
                         help="omit wall-clock timings (golden-file "
                              "stability)")
    compare.set_defaults(handler=_cmd_compare)

    oracle = commands.add_parser(
        "oracle-check",
        help="bounded path-enumeration property suite")
    oracle.add_argument("--fixtures", metavar="DIR",
                        help="directory of .mir programs to check")
    oracle.add_argument("--random", type=int, default=0, metavar="N",
                        help="also check N generated programs")
    oracle.add_argument("--seed", type=int, default=0,
                        help="seed for generated programs")
    oracle.add_argument("--max-length", type=int, default=None,
                        metavar="L",
                        help="path length bound (default: 2x edge count)")
    oracle.add_argument("--max-loop", type=int, default=2, metavar="K",
                        help="per-path edge repetition cap (default: 2)")
    oracle.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="check programs in parallel")
    oracle.add_argument("--output", metavar="FILE",
                        help="write the report here (atomic); default "
                             "stdout")
    oracle.set_defaults(handler=_cmd_oracle_check)

    dot = commands.add_parser("dump-dot", help="emit the CFG in DOT form")
    _add_common(dot)
    dot.set_defaults(handler=_cmd_dump_dot)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        _setup_logging()
        args = parser.parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        sys.stderr.write(f"fpmfp: {exc}\n")
        return 64
    except (_Failure, NonTermination, PairBoundError) as exc:
        sys.stderr.write(f"fpmfp: error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
