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

Start-up: this file is only the entry and the argument wiring.  At module
level it imports the standard library modules that parsing needs and the
package root, and nothing else: ``--help`` and usage errors compile this
file and ``fpmfp/__init__.py`` and import no ``json``.  ``main`` imports the
chosen subcommand's module, ``fpmfp.cmd_<subcommand>``, when it dispatches;
that module and ``fpmfp.cmd_io`` (program loading and the report writer)
import the layers the subcommand runs, each at the top of the function that
runs it.  The names both sides need (``SCHEMA``, the analysis flags, the two
error classes, the ``FPMFP_LOG`` switch) live in the package root, so no
module imports ``fpmfp.cli``: under ``python -m fpmfp.cli`` this file runs
as ``__main__``, and such an import would compile it a second time.
"""
from __future__ import annotations

import argparse
import gc
import sys
from typing import NoReturn

from . import (
    _ANALYSIS_FOR_FLAG, SCHEMA, SolverError, _Failure, _setup_logging,
    _UsageError)

__all__ = ["SCHEMA", "main", "run"]


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(f"{message}\n{self.format_usage()}")


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

    analyze = commands.add_parser(
        "analyze", help="dump one solution as JSON")
    _add_common(analyze, analysis=True, mode=True, opts=True)

    compare = commands.add_parser(
        "compare", help="diff classic vs feasible-path solutions")
    _add_common(compare, analysis=True, opts=True)
    compare.add_argument("--format", choices=["json", "table"],
                         default="json", help="report format")
    compare.add_argument("--no-timing", action="store_true",
                         help="omit wall-clock timings (golden-file "
                              "stability)")

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

    dot = commands.add_parser("dump-dot", help="emit the CFG in DOT form")
    _add_common(dot)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        _setup_logging()
        args = parser.parse_args(argv)
        # ``__import__``, unlike ``importlib.import_module``, is timed by
        # ``-X importtime``.
        command = __import__(
            f"{__package__}.cmd_{args.command.replace('-', '_')}",
            fromlist=["handle"])
        return command.handle(args)
    except _UsageError as exc:
        sys.stderr.write(f"fpmfp: {exc}\n")
        return 64
    except (_Failure, SolverError) as exc:
        sys.stderr.write(f"fpmfp: error: {exc}\n")
        return 1


def run() -> NoReturn:
    """The ``fpmfp`` command (``python -m fpmfp.cli`` and the console
    script): exit with ``main()``'s code.

    The cyclic collector is off while ``main()`` runs: lattice values,
    solutions and reports form no reference cycles, so reference counting
    frees all a run drops, and the collector would only rescan the live
    values as the heap grows.  Forked ``--jobs`` workers inherit this.
    ``main()`` itself leaves the collector alone, so a library caller or
    a test that runs it keeps it on.  Before it exits, and also when
    ``main()`` raises (``--help`` exits through ``SystemExit``), it moves
    every object to the collector's permanent generation, so that
    interpreter shutdown does not traverse the run's objects once more.
    ``sys.exit`` still runs atexit handlers and flushes the streams.
    """
    gc.disable()
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
