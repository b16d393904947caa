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

Start-up: this file is only the entry and the argument wiring, read from
one table with no ``argparse``.  At module level it imports ``gc``,
``sys``, ``types``, ``typing`` and the package root, and nothing else:
``--help`` and usage errors compile this file and ``fpmfp/__init__.py``
only, and no run imports ``json``.  ``main`` imports the chosen
subcommand's module, ``fpmfp.cmd_<subcommand>``, when it dispatches, and
hands its ``handle`` a ``types.SimpleNamespace`` of ``command`` and the
flags; that module and
``fpmfp.cmd_io`` (program loading and the report writer) import the
layers the subcommand runs, each at the top of the function that runs
it.  The names both sides need (``SCHEMA``, the analysis flags, the two
error classes, the ``FPMFP_LOG`` switch) live in the package root, so no
module imports ``fpmfp.cli``: under ``python -m fpmfp.cli`` this file
runs as ``__main__``, and such an import would compile it a second time.
"""
from __future__ import annotations

import gc
import sys
from types import SimpleNamespace
from typing import NoReturn

from . import (
    _ANALYSIS_FOR_FLAG, SCHEMA, SolverError, _Failure, _setup_logging,
    _UsageError)

__all__ = ["SCHEMA", "main", "run"]


def _parse_opts(text: str) -> frozenset[int]:
    if text == "none":
        return frozenset()
    try:
        opts = frozenset(int(part) for part in text.split(","))
    except ValueError:
        opts = frozenset()
    if not opts or not opts <= {1, 2, 3}:
        raise ValueError(
            f"--opts takes a comma list from 1,2,3 or 'none' (got {text!r})")
    return opts


def _at_least(minimum: int | None):
    """A converter: an integer no smaller than ``minimum`` (any integer
    for ``None``)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"invalid int value: {text!r}") from None
        if minimum is not None and value < minimum:
            raise ValueError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def _commands() -> dict[str, tuple[str, dict[str, tuple]]]:
    """Each subcommand's help line and flags, in the order help lists them.

    A flag maps ``--name`` to (kind, required, default, metavar, help):
    ``kind`` is the converter of its value, which raises ``ValueError``
    with the message, the list of its choices (shown as the metavar if
    that is ``None``), or ``None`` for a switch, which stores ``True``.
    A string default goes through ``kind`` as a given value does.  The
    parser, the usage lines, ``--help`` and every usage error are built
    from this table.
    """
    output = (str, False, None, "FILE",
              "write the report here (atomic); default stdout")
    program = {"--program": (str, True, None, "FILE", "MiniIR source file"),
               "--output": output}
    analysis = {"--analysis": (sorted(_ANALYSIS_FOR_FLAG), True, None, None,
                               "which registered analysis to run")}
    opts = {"--opts": (_parse_opts, False, "1,2,3", "1,2,3|none",
                       "pair normalizations to enable (default: 1,2,3)")}
    return {
        "detect-mips": ("list minimal infeasible path segments", {
            **program, "--dot": (str, False, None, "FILE", "also write a "
                                 "DOT overlay marking segment edges")}),
        "analyze": ("dump one solution as JSON", {
            **program, **analysis, "--mode": (
                ["mfp", "fpmfp"], True, None, None,
                "classic or feasible-path solution"), **opts}),
        "compare": ("diff classic vs feasible-path solutions", {
            **program, **analysis, **opts,
            "--format": (["json", "table"], False, "json", None,
                         "report format"),
            "--no-timing": (None, False, False, None, "omit wall-clock "
                            "timings (golden-file stability)")}),
        "oracle-check": ("bounded path-enumeration property suite", {
            "--fixtures": (str, False, None, "DIR",
                           "directory of .mir programs to check"),
            "--random": (_at_least(0), False, 0, "N",
                         "also check N generated programs"),
            "--seed": (_at_least(None), False, 0, "SEED",
                       "seed for generated programs"),
            "--max-length": (_at_least(1), False, None, "L",
                             "path length bound (default: 2x edge count)"),
            "--max-loop": (_at_least(1), False, 2, "K",
                           "per-path edge repetition cap (default: 2)"),
            "--jobs": (_at_least(1), False, 1, "N", "check programs in "
                       "parallel"),
            "--output": output}),
        "dump-dot": ("emit the CFG in DOT form", program),
    }


def _shown(flag: str, spec: tuple) -> str:
    """``flag`` and its value's placeholder, as usage and help show it."""
    kind, metavar = spec[0], spec[3]
    return flag if kind is None else (
        f"{flag} {metavar or '{' + ','.join(kind) + '}'}")


def _usage(name: str | None, commands: dict) -> str:
    """The usage line of subcommand ``name``, or of ``fpmfp``."""
    if name is None:
        return "usage: fpmfp [-h] COMMAND ..."
    return " ".join([f"usage: fpmfp {name} [-h]", *(
        _shown(flag, spec) if spec[1] else f"[{_shown(flag, spec)}]"
        for flag, spec in commands[name][1].items())])


def _help(name: str | None, commands: dict) -> str:
    """The ``--help`` text of subcommand ``name``, or of ``fpmfp``."""
    if name is None:
        about = "Feasible-path data-flow analysis over MiniIR programs."
        rows = [(command, line) for command, (line, _) in commands.items()]
    else:
        about, flags = commands[name]
        rows = [(_shown(flag, spec), spec[4]) for flag, spec in flags.items()]
    rows.insert(0, ("-h, --help", "show this help message and exit"))
    width = max(len(left) for left, _ in rows)
    return f"{_usage(name, commands)}\n\n{about}\n\n" + "".join(
        f"  {left.ljust(width)}  {line}\n" for left, line in rows)


def _parse(argv: list[str]) -> SimpleNamespace:
    """``argv`` read against ``_commands()`` by argparse's rules, with its
    messages: a long flag may be any unique prefix of itself and take its
    value as ``--flag=value``; the last of a repeated flag wins; ``-h``
    and ``--help`` print help and exit 0 where they come; after the first
    ``--`` every argument is a value, and a value no flag takes is an
    unrecognized argument.  A bad ``argv`` raises ``_UsageError``."""
    commands = _commands()
    helps = ("-h", "--help")
    name, flags, extras, given = None, {}, [], {}

    def fail(message: str, top: bool = False) -> NoReturn:
        usage = _usage(None if top else name, commands)
        raise _UsageError(f"{message}\n{usage}")

    def classify(arg: str):
        """``None`` for a value, else (the flag, ``None`` if unknown; the
        text given with it after ``=`` or attached to ``-h``, or ``None``).
        An argument that starts with ``-`` is a flag unless it is ``-``,
        ``--``, a negative number or holds a space."""
        if arg[:1] != "-" or arg in ("-", "--"):
            return None
        names = helps + tuple(flags)
        head, eq, text = arg.partition("=")
        if arg[1] == "-":
            found = [head] if head in names else [
                flag for flag in names if flag.startswith(head)]
            text = text if eq else None
        else:
            found = ["-h"] if arg[1] == "h" else []
            text = text if eq and head == "-h" else arg[2:] or None
        if len(found) > 1:
            fail(f"ambiguous option: {arg} could match {', '.join(found)}")
        number = arg[1:].removesuffix("\n")
        if found or not (" " in arg or number.replace(".", "", 1).isdecimal()
                         and not number.endswith(".")):
            return (found or [None])[0], text
        return None

    def switch(flag: str, text: str | None) -> None:
        """Print help and exit, or check that a switch got no value."""
        if flag == "-h" and text:
            text = text.lstrip("h") or None  # -hh is -h -h
        if text is not None:
            fail(f"argument {'-h/--help' if flag in helps else flag}: "
                 f"ignored explicit argument {text!r}")
        if flag in helps:
            sys.stdout.write(_help(name, commands))
            raise SystemExit(0)

    def value(flag: str, text: str):
        kind = flags[flag][0]
        if type(kind) is not list:
            try:
                return kind(text)
            except ValueError as exc:
                fail(f"argument {flag}: {exc}")
        if text not in kind:
            fail(f"argument {flag}: invalid choice: {text!r} (choose from "
                 f"{', '.join(map(repr, kind))})")
        return text

    at = 0
    while at < len(argv) and (option := classify(argv[at])):
        if option[0] is None:
            extras.append(argv[at])
        else:
            switch(*option)
        at += 1
    if argv[at:] in ([], ["--"]):
        fail("the following arguments are required: COMMAND")
    name, args = argv[at], argv[at + 1:]
    if name not in commands:
        fail(f"argument COMMAND: invalid choice: {name!r} (choose from "
             f"{', '.join(map(repr, commands))})", top=True)
    flags = commands[name][1]
    # ``--`` and what follows it are no flags, and no flag takes ``--``.
    cut = args.index("--") if "--" in args else len(args)
    kinds = [classify(arg) for arg in args[:cut]]
    kinds += [(None, None)] + [None] * len(args[cut + 1:])
    at = 0
    while at < len(args):
        flag, text = kinds[at] or (None, None)
        at += 1
        if flag is None:
            extras.append(args[at - 1])
        elif flag in helps or flags[flag][0] is None:
            switch(flag, text)
            given[flag] = True
        else:
            if text is None:
                if at == len(args) or kinds[at] is not None:
                    fail(f"argument {flag}: expected one argument")
                text = args[at]
                at += 1
            given[flag] = value(flag, text)
    missing = [flag for flag, spec in flags.items()
               if spec[1] and flag not in given]
    if missing:
        fail(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        fail(f"unrecognized arguments: {' '.join(extras)}", top=True)
    for flag, (_, _, default, _, _) in flags.items():
        if flag not in given:
            given[flag] = (value(flag, default) if type(default) is str
                           else default)
    return SimpleNamespace(command=name, **{
        flag[2:].replace("-", "_"): got for flag, got in given.items()})


def main(argv: list[str] | None = None) -> int:
    try:
        _setup_logging()
        args = _parse(sys.argv[1:] if argv is None else argv)
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
