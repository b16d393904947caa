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

Start-up: at module level this file imports only the standard library and
the package root.  Every function that runs an fpmfp layer imports it at its
own top, so each subcommand loads only the layers it runs (``--help`` loads
none, ``detect-mips`` the frontend and detection).
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys
from pathlib import Path
from typing import NoReturn

from . import EncodedDict, EncodedList, Memo, SolverError

SCHEMA = 1

_LOG_LEVELS = ("error", "info", "debug")
# Whether ``_info`` lines are written: FPMFP_LOG is info or debug.
_log_info = False
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
    global _log_info
    raw = os.environ.get("FPMFP_LOG", "error")
    if raw not in _LOG_LEVELS:
        raise _UsageError(
            f"FPMFP_LOG must be one of error, info, debug (got {raw!r})")
    _log_info = raw != "error"


def _info(fmt: str, *args) -> None:
    """Write ``fpmfp: INFO: <fmt % args>`` to stderr if info is on."""
    if _log_info:
        sys.stderr.write(f"fpmfp: INFO: {fmt % args}\n")


def _read_source(path) -> str:
    """The text of a UTF-8 source file; any failure is a ``_Failure``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _Failure(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise _Failure(f"cannot read {path}: not UTF-8 text "
                       f"(byte {exc.start})") from exc


def _load_program(path: str):
    from .frontend import (
        ParseError, UnreachableNode, UnresolvedCall, parse_program)

    try:
        program = parse_program(_read_source(path))
    except (ParseError, UnresolvedCall, UnreachableNode) as exc:
        raise _Failure(f"{path}: {exc}") from exc
    _info("parsed %s: %d procedure(s)", path, len(program.procedures))
    return program


def _json_key(key) -> str:
    """A non-string key as ``json.dumps`` writes it: quoted scalar text."""
    if isinstance(key, (int, float)) or key is None:
        return json.dumps(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {type(key).__name__}")


def _json_scalar(obj) -> str:
    """A scalar as ``json.dumps`` writes it, tested in ``json``'s order."""
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return json.dumps(obj)
    raise TypeError(f"Object of type {type(obj).__name__} "
                    f"is not JSON serializable")


def _json_text(payload) -> str:
    """What ``json.dumps`` writes with ``indent=2`` and ``sort_keys=True``,
    plus a newline.

    The same bytes, appended as pieces to one flat list and joined once.
    A value view from ``Analysis.json_views`` is not walked: its ``text``
    is spliced in, re-indented once per depth it occurs at, so a report
    whose rows share views costs time in its distinct content.  Objects
    are dispatched on their exact type (``str``, ``int``, a view type,
    ``dict``, ``list``); anything else (bools, None, floats, tuples,
    subclasses) takes ``isinstance`` tests.  A dict item's separator,
    quoted key and ``": "`` are joined once per (key, depth, first item).
    """
    pieces: list[str] = []
    append = pieces.append
    spliced: dict[tuple[int, int], str] = {}
    quoted = Memo(json.dumps)
    levels = Memo(_Level)

    def encode(obj, depth: int) -> None:
        cls = type(obj)
        if cls is str:
            append(quoted[obj])
            return
        if cls is int:
            append(int.__repr__(obj))
            return
        if cls is EncodedDict or cls is EncodedList:
            text = spliced.get((id(obj), depth))
            if text is None:
                text = spliced[id(obj), depth] = obj.text.replace(
                    "\n", "\n" + "  " * depth)
            append(text)
            return
        if cls is not dict and cls is not list:
            if isinstance(obj, (list, tuple)):
                cls = list
            elif isinstance(obj, dict):
                cls = dict
            else:
                append(_json_scalar(obj))
                return
        if not obj:
            append("{}" if cls is dict else "[]")
            return
        level = levels[depth]
        if cls is dict:
            heads = level.first
            for key, value in sorted(obj.items()):
                append(heads.get(key) or level.head(key, heads))
                encode(value, depth + 1)
                heads = level.rest
            append(level.close_dict)
        else:
            sep = level.open_list
            for item in obj:
                append(sep)
                encode(item, depth + 1)
                sep = level.comma
            append(level.close_list)

    encode(payload, 0)
    append("\n")
    return "".join(pieces)


class _Level:
    """The separators of a list or dict at one depth of ``_json_text``,
    and its dict-item heads: ``first`` for the first item, ``rest`` for
    the others."""

    def __init__(self, depth: int) -> None:
        inner = "\n" + "  " * (depth + 1)
        self.open_list = "[" + inner
        self.open_dict = "{" + inner
        self.comma = "," + inner
        self.close_list = "\n" + "  " * depth + "]"
        self.close_dict = "\n" + "  " * depth + "}"
        self.first: dict[str, str] = {}
        self.rest: dict[str, str] = {}

    def head(self, key, heads: dict[str, str]) -> str:
        """The text before ``key``'s value, ``heads`` being ``first`` or
        ``rest``; kept there for a ``str`` key only, because ``1``, ``1.0``
        and ``True`` are one dict key but are written differently."""
        sep = self.open_dict if heads is self.first else self.comma
        if not isinstance(key, str):
            return sep + _json_key(key) + ": "
        text = heads[key] = sep + json.dumps(key) + ": "
        return text


def _write_text(text: str, path: str | None) -> None:
    """Write to stdout, or atomically replace ``path``.

    Destinations that exist but are not regular files (devices, FIFOs)
    are written through directly; replacing them would be destructive.
    """
    if path is None:
        sys.stdout.write(text)
        return
    dest = Path(path)
    try:
        if dest.exists() and not dest.is_file():
            dest.write_text(text, encoding="utf-8")
            return
        tmp = dest.with_name(f"{dest.name}.tmp{os.getpid()}")
        try:
            tmp.write_text(text, encoding="utf-8")
            os.replace(tmp, dest)
        except OSError:
            with contextlib.suppress(OSError):
                tmp.unlink()
            raise
    except OSError as exc:
        raise _Failure(f"cannot write {path}: {exc.strerror or exc}") from exc
    _info("wrote %s", dest)


def _parse_opts(text: str) -> frozenset[int]:
    if text == "none":
        return frozenset()
    try:
        opts = frozenset(int(part) for part in text.split(","))
    except ValueError:
        opts = frozenset()
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
    from .frontend import emit_dot_program
    from .mips import detect_mips

    program = _load_program(args.program)
    universe = detect_mips(program)
    _info("detected %d segment(s)", len(universe.all))
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


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .frontend import build_call_graph
    from .lattice import make_analysis
    from .lifted import solve_fpmfp_interprocedural
    from .mfp import solve_mfp
    from .mips import detect_mips

    program = _load_program(args.program)
    analysis = make_analysis(_ANALYSIS_FOR_FLAG[args.analysis], program)
    view = analysis.json_views()
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
    _write_text(_json_text(payload), args.output)
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _cmd_compare(args: argparse.Namespace) -> int:
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
    """All property checks for one program; returns violation records.

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

    def bad(analysis_name: str, prop: str, where: str, detail: str) -> None:
        found[analysis_name].append({
            "program": name, "analysis": analysis_name,
            "property": prop, "location": where, "detail": detail,
        })

    try:
        program = parse_program(source)
    except (ParseError, UnresolvedCall, UnreachableNode) as exc:
        return [{"program": name, "analysis": "-", "property": "parse",
                 "location": "-", "detail": str(exc)}]
    call_graph = build_call_graph(program)
    universe = detect_mips(program, call_graph)
    solved = []
    for analysis_name in _SUITE_ANALYSES:
        found[analysis_name] = []
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
        folded_edges = lifted.folded_edges
        for nid, value in flat.folded_in.items():
            if not analysis.leq(value, folded_in[nid]):
                bad(analysis_name, "mfp-refined-by-fold", f"n{nid}",
                    f"{analysis.format(value)} !<= "
                    f"{analysis.format(folded_in[nid])}")
        for eid, value in flat.folded_edges.items():
            if not analysis.leq(value, folded_edges[eid]):
                bad(analysis_name, "mfp-refined-by-fold", f"e{eid}",
                    f"{analysis.format(value)} !<= "
                    f"{analysis.format(folded_edges[eid])}")
        if (folded_in != plain.folded_in
                or lifted.folded_out != plain.folded_out
                or folded_edges != plain.folded_edges):
            bad(analysis_name, "optimization-neutrality", "-",
                "folds differ between --opts 1,2,3 and --opts none")
        solved.append((analysis_name, analysis, lifted, folded_in))
    # One tree at a time: each is evaluated for every analysis that
    # solved and dropped before the next is built.
    for proc in program.procedures if solved else ():
        try:
            tree = path_tree(
                proc.cfg, universe, proc.name,
                max_len=max_length or 2 * len(proc.cfg.edges),
                edge_cap=edge_cap)
        except Explosion:
            _info("%s: procedure %s has too many paths; its path-tree "
                  "checks are skipped", name, proc.name)
            continue
        for analysis_name, analysis, lifted, folded_in in solved:
            node_transfer, refine = solution_semantics(lifted, proc)
            oracle = tree.meets(
                boundary=lifted.boundaries[proc.name], meet=analysis.meet,
                node_transfer=node_transfer, refine=refine)
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
        del tree
    return [record for records in found.values() for record in records]


def _cmd_oracle_check(args: argparse.Namespace) -> int:
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
    violations = [record for group in per_program for record in group]
    _info("checked %d program(s): %d violation(s)",
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
    from .frontend import emit_dot_program

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
        sub.add_argument("--opts", type=_parse_opts, default="1,2,3",
                         metavar="1,2,3|none",
                         help="pair normalizations to enable "
                              "(default: 1,2,3)")


def _at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value

    return parse


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
    oracle.add_argument("--random", type=_at_least(0), default=0,
                        metavar="N",
                        help="also check N generated programs")
    oracle.add_argument("--seed", type=int, default=0,
                        help="seed for generated programs")
    oracle.add_argument("--max-length", type=_at_least(1), default=None,
                        metavar="L",
                        help="path length bound (default: 2x edge count)")
    oracle.add_argument("--max-loop", type=_at_least(1), default=2,
                        metavar="K",
                        help="per-path edge repetition cap (default: 2)")
    oracle.add_argument("--jobs", type=_at_least(1), default=1, metavar="N",
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
    except (_Failure, SolverError) as exc:
        sys.stderr.write(f"fpmfp: error: {exc}\n")
        return 1


def run() -> NoReturn:
    """The ``fpmfp`` command (``python -m fpmfp.cli`` and the console
    script): exit with ``main()``'s code.

    Before it exits, and also when ``main()`` raises (``--help`` exits
    through ``SystemExit``), it moves every object to the collector's
    permanent generation, so that interpreter shutdown does not traverse
    the run's objects once more.  ``sys.exit`` still runs atexit
    handlers and flushes the streams.
    """
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
