"""Command-line tests: flags, exit codes, golden outputs, determinism."""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import re
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fpmfp
from fpmfp import (
    cli, clients, cmd_io, cmd_oracle_check, frontend, lifted, mfp, mips,
    oracle, progen)
from fpmfp.cli import main
from fpmfp.frontend import MAX_NESTING, MAX_OPERANDS
from fpmfp.interval import IntervalAnalysis
from fpmfp.jsontext import scalar_text
from fpmfp.lattice import BitvectorAnalysis, make_analysis
from fpmfp.mips import INF

from conftest import (
    FIXTURES,
    corpus_programs,
    fixture_program,
    fixture_text,
    json_text,
    perf_program,
    perfbench_workloads,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def fix(name: str) -> str:
    return str(FIXTURES / f"{name}.mir")


def golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_TRICKY_CHARS = st.sampled_from(
    ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "☃",
     "\U0001f600"])
_TEXT = st.text(st.characters() | _TRICKY_CHARS, max_size=8)
_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
            | _TEXT)


def _containers(children):
    """The containers a report holds: lists, and dicts with str keys."""
    return (st.lists(children, max_size=4)
            | st.dictionaries(_TEXT, children, max_size=4))


_VALUES = st.recursive(_SCALARS, _containers, max_leaves=25)


@st.composite
def _sharing_payloads(draw):
    """A random payload holding one list or dict object several times."""
    shared = draw(_VALUES.filter(lambda v: isinstance(v, (list, dict))))
    rest = draw(st.lists(_VALUES, max_size=3))
    same_depth = [shared, *rest, shared]
    two_depths = {"a": shared, "b": [shared, {"c": shared}], "d": rest}
    return draw(st.sampled_from(
        [same_depth, two_depths, {"x": same_depth, "y": two_depths}]))


@st.composite
def _mutated_sources(draw):
    """A generated program with one token dropped, one line duplicated or
    two lines swapped."""
    seed = draw(st.integers(min_value=0, max_value=500))
    text = progen.generate_program(seed, acyclic=draw(st.booleans()))
    mutation = draw(st.sampled_from(["drop-token", "duplicate", "swap"]))
    if mutation == "drop-token":
        tokens = list(re.finditer(r"\w+|\S", text))
        tok = tokens[draw(st.integers(0, len(tokens) - 1))]
        return text[:tok.start()] + text[tok.end():]
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    if mutation == "duplicate":
        lines.insert(i, lines[i])
    else:
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines) + "\n"


class TestJsonWriter:
    """``cmd_io._stream_json`` streams exactly what ``json.dumps`` would
    write."""

    @staticmethod
    def expected(payload) -> str:
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @settings(max_examples=200, deadline=None)
    @given(_VALUES)
    def test_matches_json_dumps(self, payload):
        assert json_text(payload) == self.expected(payload)

    @settings(max_examples=100, deadline=None)
    @given(_sharing_payloads())
    def test_shared_containers_match_json_dumps(self, payload):
        assert json_text(payload) == self.expected(payload)

    def test_special_floats_and_empty_containers(self):
        payload = {"f": [float("inf"), -float("inf"), float("nan"), -0.0],
                   "e": [[], {}, [[]]], "s": "\"\\\x01\u00e9"}
        assert json_text(payload) == self.expected(payload)

    def test_rejects_what_reports_never_hold(self):
        # ``json.dumps`` writes all but the set; no report holds any.
        class Rows(list):
            pass

        for payload in ({1: "a"}, {"a": {2: 3}}, [(1, 2)], {"a": Rows()},
                        {"a": {1, 2}}):
            with pytest.raises(TypeError):
                json_text(payload)

    def test_key_type_checked_when_its_head_is_joined(self):
        # A ``str`` subclass key raises where its head is joined first,
        # and reuses the head of an equal key written before it at the
        # same depth and position.
        class Key(str):
            pass

        with pytest.raises(TypeError):
            json_text([{Key("a"): 1}])
        payload = [{"a": 1}, {Key("a"): 2}]
        assert json_text(payload) == json.dumps(
            payload, indent=2, sort_keys=True) + "\n"

    @staticmethod
    def views() -> list:
        """Pre-encoded value views of every analysis on a program with a
        global."""
        program = fixture_program("fig7.mir")
        out = []
        for name, values in (
                ("rd", [0, 0b101, -1]), ("must-defined", [0, 0b11, -1]),
                ("interval", [{}, {"l": (-INF, 3), "a": (0, 0)}])):
            analysis = make_analysis(name, program)
            view = analysis.to_json
            out += [view(v & analysis.full_mask) if isinstance(v, int)
                    else view(v) for v in values]
        return out

    def test_view_at_two_depths(self):
        for view in self.views():
            payload = {"a": view, "b": [{"c": view}, view], "d": [[[view]]]}
            assert json_text(payload) == self.expected(payload)

    def test_view_inside_a_repeated_plain_container(self):
        for view in self.views():
            shared = {"x": [view, 1], "y": view, "z": True}
            payload = [shared, {"w": shared}, shared, [view]]
            assert json_text(payload) == self.expected(payload)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_views_mixed_into_plain_payloads(self, data):
        leaves = _SCALARS | st.sampled_from(self.views())
        payload = data.draw(st.recursive(leaves, _containers,
                                         max_leaves=25))
        assert json_text(payload) == self.expected(payload)


class TestScalarText:
    """``jsontext.scalar_text``, the text of every scalar in a report, is
    ``json.dumps`` of that scalar."""

    @staticmethod
    def mismatches(values) -> list:
        return [value for value in values
                if scalar_text(value) != json.dumps(value)]

    def test_ascii(self):
        chars = [chr(code) for code in range(0x80)]
        assert self.mismatches(
            ["", "".join(chars), *chars, *(f"a{c}b" for c in chars)]) == []

    def test_beyond_ascii(self):
        assert self.mismatches([
            "\u00e9", "caf\u00e9 \u4e2d\u6587", "\u0080\u07ff\u0800",
            "\ufeff\uffff", "\U0001f600", "x\U00010000y\U0010ffff",
            "\ud800", "a\udfffb", "\udbff\udc00", "\ud83d\U0001f600",
        ]) == []

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_any_text(self, text):
        assert scalar_text(text) == json.dumps(text)

    def test_numbers_and_constants(self):
        assert self.mismatches([
            0.0, -0.0, 1e-7, 1e300, 1.5, -2.25, float("inf"), -float("inf"),
            float("nan"), 0, -1, 2 ** 64, -(10 ** 40), True, False, None,
        ]) == []

    def test_other_types_raise(self):
        class Name(str):
            pass

        for value in ((1,), [1], {"a": 1}, Name("a"), b"a"):
            with pytest.raises(TypeError):
                scalar_text(value)


class TestReportPayloads:
    """Every JSON report's bytes equal ``json.dumps`` of its payload."""

    @pytest.fixture(scope="class")
    def program(self, tmp_path_factory) -> str:
        path = tmp_path_factory.mktemp("perf") / "perf.mir"
        path.write_text(perf_program(50, 200), encoding="utf-8")
        return str(path)

    @pytest.fixture
    def written(self, monkeypatch) -> list:
        """(payload, text) of each report the JSON writer streams."""
        written = []
        stream = cmd_io._stream_json

        def spy(payload, write):
            chunks = []

            def tee(chunk: str) -> None:
                chunks.append(chunk)
                write(chunk)

            stream(payload, tee)
            written.append((payload, "".join(chunks)))

        monkeypatch.setattr(cmd_io, "_stream_json", spy)
        return written

    @staticmethod
    def check(written, out: str) -> None:
        [(payload, text)] = written
        assert out == text
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("argv", [
        ("analyze", "--mode", "mfp"), ("analyze", "--mode", "fpmfp"),
        ("compare", "--no-timing"),
    ], ids=" ".join)
    @pytest.mark.parametrize("flag", ["rd", "uninit", "interval"])
    def test_full_report(self, capsys, written, program, argv, flag):
        code, out, _ = run(capsys, *argv, "--analysis", flag,
                           "--program", program)
        assert code == 0
        self.check(written, out)

    def test_detect_mips_report(self, capsys, written, program):
        code, out, _ = run(capsys, "detect-mips", "--program", program)
        assert code == 0
        self.check(written, out)

    def test_oracle_check_report(self, capsys, written, tmp_path):
        # The broken program gives the report a violation record.
        for name in ("fig2", "fig7"):
            (tmp_path / f"{name}.mir").write_text(fixture_text(name))
        (tmp_path / "broken.mir").write_text("proc main() {")
        code, out, _ = run(capsys, "oracle-check", "--fixtures",
                           str(tmp_path), "--random", "2")
        assert code == 2
        self.check(written, out)

    def test_streaming_holds_a_fraction_of_the_report(
            self, monkeypatch, tmp_path, program):
        """Streaming the ``compare --analysis rd`` report allocates under
        a third of its bytes at peak, and no ``write`` gets more than a
        chunk, one spliced view and the separators around it."""
        stream = cmd_io._stream_json
        payloads = []
        monkeypatch.setattr(cmd_io, "_stream_json",
                            lambda payload, write: payloads.append(payload))
        assert main(["compare", "--analysis", "rd", "--no-timing",
                     "--program", program,
                     "--output", str(tmp_path / "report.json")]) == 0
        [payload] = payloads
        sizes = []
        tracemalloc.start()
        try:
            stream(payload, lambda chunk: sizes.append(len(chunk)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        report = sum(sizes)
        assert report > 2_000_000
        assert peak < report / 3
        assert max(sizes) <= cmd_io._CHUNK + self.longest_view(payload) + 64

    @staticmethod
    def longest_view(payload) -> int:
        """The length of the longest view text as spliced into
        ``payload``'s report."""
        longest = 0
        stack = [(payload, 0)]
        while stack:
            obj, depth = stack.pop()
            if isinstance(obj, (fpmfp.EncodedList, fpmfp.EncodedDict)):
                longest = max(longest, len(obj.text.replace(
                    "\n", "\n" + "  " * depth)))
            elif isinstance(obj, (dict, list)):
                items = obj.values() if isinstance(obj, dict) else obj
                stack += [(item, depth + 1) for item in items]
        return longest


class TestEntryPoint:
    """``python -m fpmfp.cli`` exits through ``cli.run``: with the code,
    stdout and stderr bytes of an in-process ``main()``."""

    @pytest.mark.parametrize("expected, argv", [
        (0, ("detect-mips", "--program", "fig2.mir")),
        (0, ("--help",)),
        (1, ("detect-mips", "--program", "missing.mir")),
        (2, ("oracle-check", "--fixtures", ".")),
        (64, ("frobnicate",)),
    ], ids=["ok", "help", "failure", "violation", "usage"])
    def test_exit_path(self, capsys, monkeypatch, tmp_path, expected, argv):
        (tmp_path / "fig2.mir").write_text(fixture_text("fig2"))
        (tmp_path / "broken.mir").write_text("proc oops(")
        # One help width for both, whatever terminal runs the tests.
        monkeypatch.setenv("COLUMNS", "80")
        env = dict(os.environ, PYTHONPATH=str(
            Path(fpmfp.__file__).resolve().parent.parent))
        child = subprocess.run([sys.executable, "-m", "fpmfp.cli", *argv],
                               capture_output=True, env=env, cwd=tmp_path,
                               timeout=120)
        monkeypatch.chdir(tmp_path)
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (child.returncode, child.stdout, child.stderr) == (
            expected, captured.out.encode(), captured.err.encode())

    @pytest.mark.parametrize("argv", [
        ("analyze", "--program", "fig2.mir", "--analysis", "interval",
         "--mode", "fpmfp"),
        ("compare", "--program", "large.mir", "--analysis", "rd"),
        ("dump-dot", "--program", "fig2.mir"),
    ], ids=["json-in-one-chunk", "json-in-many-chunks", "text"])
    def test_stdout_without_a_reader(self, tmp_path, argv):
        """A report written to a pipe whose reader has closed is one error
        line and exit 1: no traceback, and no error from the flush at
        interpreter exit."""
        (tmp_path / "fig2.mir").write_text(fixture_text("fig2"))
        (tmp_path / "large.mir").write_text(perf_program(20, 400))
        env = dict(os.environ, PYTHONPATH=str(
            Path(fpmfp.__file__).resolve().parent.parent))
        reader, writer = os.pipe()
        os.close(reader)
        try:
            child = subprocess.run(
                [sys.executable, "-m", "fpmfp.cli", *argv], stdout=writer,
                stderr=subprocess.PIPE, env=env, cwd=tmp_path, timeout=120)
        finally:
            os.close(writer)
        assert (child.returncode, child.stderr) == (
            1, b"fpmfp: error: cannot write <stdout>: Broken pipe\n")

    def test_main_leaves_the_collector_alone(self, capsys):
        before = gc.get_freeze_count()
        enabled = gc.isenabled()
        code, _, _ = run(capsys, "analyze", "--program", fix("fig2"),
                         "--analysis", "interval", "--mode", "fpmfp")
        assert code == 0
        assert gc.get_freeze_count() == before
        assert gc.isenabled() == enabled

    @pytest.mark.parametrize("exit_code", [0, 3])
    def test_run_freezes_then_exits(self, monkeypatch, exit_code):
        collecting = []

        def fake_main():
            collecting.append(gc.isenabled())
            if exit_code == 0:
                raise SystemExit(0)  # how --help leaves main()
            return exit_code

        monkeypatch.setattr(cli, "main", fake_main)
        gc.unfreeze()
        try:
            with pytest.raises(SystemExit) as exc:
                cli.run()
            assert exc.value.code == exit_code
            assert gc.get_freeze_count() > 0
            assert collecting == [False]
        finally:
            gc.unfreeze()
            gc.enable()


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        code, _, err = run(capsys)
        assert code == 64
        assert "usage" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 64
        assert "usage" in err

    def test_bad_analysis_choice(self, capsys):
        code, _, err = run(capsys, "analyze", "--program", fix("fig2"),
                           "--analysis", "bogus", "--mode", "mfp")
        assert code == 64
        assert "invalid choice" in err

    def test_bad_opts_number(self, capsys):
        code, _, err = run(capsys, "analyze", "--program", fix("fig2"),
                           "--analysis", "rd", "--mode", "fpmfp",
                           "--opts", "9")
        assert code == 64
        assert "--opts" in err

    def test_bad_opts_text(self, capsys):
        code, _, err = run(capsys, "analyze", "--program", fix("fig2"),
                           "--analysis", "rd", "--mode", "fpmfp",
                           "--opts", "first")
        assert code == 64

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "analyze", "--analysis", "rd",
                           "--mode", "mfp")
        assert code == 64
        assert "--program" in err

    def test_invalid_log_env(self, capsys, monkeypatch):
        monkeypatch.setenv("FPMFP_LOG", "chatty")
        code, _, err = run(capsys, "detect-mips", "--program", fix("fig2"))
        assert code == 64
        assert "FPMFP_LOG" in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "detect-mips" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ("--help",), ("-h",), ("--he",), ("compare", "-h"),
        ("oracle-check", "--max-le", "3", "--h"),
        ("analyze", "--program", "p.mir", "-hh"),
    ])
    def test_help_lists_every_flag(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out = capsys.readouterr().out
        assert exc.value.code == 0
        name = argv[0] if argv[0] in cli._commands() else None
        assert out.startswith(cli._usage(name, cli._commands()) + "\n\n")
        listed = (cli._commands()[name][1] if name else cli._commands())
        assert all(f"\n  {entry}" in out for entry in listed)


# ---------------------------------------------------------------------------
# The command line parses as it did under argparse
# ---------------------------------------------------------------------------

class _Rejected(Exception):
    pass


class _ReferenceParser(argparse.ArgumentParser):
    def error(self, message):
        raise _Rejected(message)


def _reference_opts(text: str) -> frozenset[int]:
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


def _reference_at_least(minimum: int):
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


def _reference_parser() -> _ReferenceParser:
    """The argparse parser the CLI used before its flag table, help texts
    aside."""
    parser = _ReferenceParser(prog="fpmfp")
    commands = parser.add_subparsers(dest="command", required=True,
                                     metavar="COMMAND")

    def common(sub, *, analysis=False, mode=False, opts=False):
        sub.add_argument("--program", required=True, metavar="FILE")
        sub.add_argument("--output", metavar="FILE")
        if analysis:
            sub.add_argument("--analysis", required=True,
                             choices=sorted(fpmfp._ANALYSIS_FOR_FLAG))
        if mode:
            sub.add_argument("--mode", required=True,
                             choices=["mfp", "fpmfp"])
        if opts:
            sub.add_argument("--opts", type=_reference_opts,
                             default="1,2,3", metavar="1,2,3|none")

    detect = commands.add_parser("detect-mips")
    common(detect)
    detect.add_argument("--dot", metavar="FILE")
    common(commands.add_parser("analyze"), analysis=True, mode=True,
           opts=True)
    compare = commands.add_parser("compare")
    common(compare, analysis=True, opts=True)
    compare.add_argument("--format", choices=["json", "table"],
                         default="json")
    compare.add_argument("--no-timing", action="store_true")
    oracle_check = commands.add_parser("oracle-check")
    oracle_check.add_argument("--fixtures", metavar="DIR")
    oracle_check.add_argument("--random", type=_reference_at_least(0),
                              default=0, metavar="N")
    oracle_check.add_argument("--seed", type=int, default=0)
    oracle_check.add_argument("--max-length", type=_reference_at_least(1),
                              default=None, metavar="L")
    oracle_check.add_argument("--max-loop", type=_reference_at_least(1),
                              default=2, metavar="K")
    oracle_check.add_argument("--jobs", type=_reference_at_least(1),
                              default=1, metavar="N")
    oracle_check.add_argument("--output", metavar="FILE")
    common(commands.add_parser("dump-dot"))
    return parser


# A valid value per flag, and values each flag rejects.
_GOOD = {"--program": ["p.mir", "-", "a b.mir", "-5"], "--output": ["r"],
         "--dot": ["d.dot"], "--fixtures": ["fixtures"],
         "--analysis": ["rd", "uninit", "interval"],
         "--mode": ["mfp", "fpmfp"], "--format": ["json", "table"],
         "--opts": ["1,2,3", "none", "2", "3,1", " 1"],
         "--random": ["0", "7"], "--seed": ["-3", "12", "-0"],
         "--max-length": ["1", "30"], "--max-loop": ["2"], "--jobs": ["1"]}
_BAD = {"--analysis": ["bogus", "RD"], "--mode": ["both"],
        "--format": ["xml"], "--opts": ["9", "1,4", "", "first"],
        "--random": ["-1", "x"], "--seed": ["1.5", "s"],
        "--max-length": ["0", "L"], "--max-loop": ["-2"], "--jobs": ["0"]}


def _spellings(flag: str, flags) -> list[str]:
    """``flag`` and each of its prefixes no other flag (or ``--help``)
    shares."""
    others = [other for other in [*flags, "--help"] if other != flag]
    return [flag[:end] for end in range(3, len(flag) + 1)
            if not any(other.startswith(flag[:end]) for other in others)]


def _argv_corpus(seed: int, count: int):
    """``count`` seeded argv: every required flag and some optional ones
    in random spellings, repeats, and in about half of them one fault."""
    rng = random.Random(seed)
    table = cli._commands()
    faults = ["unknown-flag", "bad-value", "no-value", "drop-token",
              "no-command", "unknown-command", "ambiguous", "extra",
              "dashes"]
    for _ in range(count):
        name = rng.choice(list(table))
        flags = table[name][1]
        chosen = [flag for flag, spec in flags.items()
                  if spec[1] or rng.random() < 0.5]
        chosen += rng.sample(list(flags), rng.randint(0, 2))  # repeats
        rng.shuffle(chosen)
        argv = [name]
        for flag in chosen:
            spelled = rng.choice(_spellings(flag, flags))
            if flags[flag][0] is None:
                argv.append(spelled)
            elif rng.random() < 0.3:
                argv.append(f"{spelled}={rng.choice(_GOOD[flag])}")
            else:
                argv += [spelled, rng.choice(_GOOD[flag])]
        fault = rng.choice(faults) if rng.random() < 0.5 else None
        at = rng.randint(1, len(argv))
        if fault == "unknown-flag":
            argv.insert(at, rng.choice(["--bogus", "-x", "--no-such=1"]))
        elif fault == "bad-value" and set(_BAD) & set(flags):
            flag = rng.choice(sorted(set(_BAD) & set(flags)))
            argv[at:at] = [flag, rng.choice(_BAD[flag])]
        elif fault == "no-value":
            argv.append(rng.choice([f for f in flags if flags[f][0]]))
        elif fault == "drop-token" and len(argv) > 1:
            del argv[rng.randrange(1, len(argv))]
        elif fault == "no-command":
            del argv[0]
        elif fault == "unknown-command":
            argv[0] = rng.choice(["frobnicate", "detect", "Compare"])
        elif fault == "ambiguous" and name in ("compare", "oracle-check"):
            argv.insert(at, "--o" if name == "compare" else "--max")
        elif fault == "extra":
            argv.insert(at, rng.choice(["stray", "-7", "-"]))
        elif fault == "dashes":
            argv.insert(at, "--")
        yield argv


def _reference(argv: list[str]):
    """("ok", vars), ("exit", code) or ("usage", first stderr line)."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return "ok", vars(_REFERENCE.parse_args(argv))
    except _Rejected as exc:
        return "usage", f"fpmfp: {exc}".split("\n")[0]
    except SystemExit as exc:
        return "exit", exc.code


def _ours(argv: list[str]):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return "ok", vars(cli._parse(list(argv)))
    except SystemExit as exc:
        return "exit", exc.code
    except fpmfp._UsageError:
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(list(argv))
        assert code == 64
        return "usage", stderr.getvalue().split("\n")[0]


_REFERENCE = _reference_parser()


class TestArgvParity:
    """Every argv reads as the argparse parser read it: the same values,
    or exit 64 with the same first line."""

    ACCEPTED = [
        ["analyze", "--program=p.mir", "--analysis=uninit", "--mode=mfp"],
        ["analyze", "--prog", "p.mir", "--an", "rd", "--mo", "fpmfp",
         "--op", "none"],
        ["compare", "--program", "a", "--program", "b", "--analysis", "rd",
         "--analysis", "interval", "--no-timing", "--no-timing",
         "--format", "json", "--format=table"],
        ["compare", "--program", "-", "--analysis", "rd", "--opts", "3,1"],
        ["oracle-check", "--seed", "-4", "--seed=-5", "--rand", "0",
         "--max-le", "1", "--max-lo=9", "--j", "3", "--f", "dir"],
        ["oracle-check", "--seed", "-0"],
        ["detect-mips", "--program", "a b", "--dot=", "--out", "-1.5"],
        ["dump-dot", "--program", "-.5", "--output=--program"],
    ]
    REJECTED = [
        [], ["--"], ["frobnicate"], ["--bogus"], ["-x", "detect-mips"],
        ["analyze", "--analysis", "rd", "--mode", "mfp"],
        ["analyze", "--program", "p", "--analysis", "bogus", "--mode", "mfp"],
        ["oracle-check", "--seed", "x"],
        ["oracle-check", "--max-length", "0"],
        ["oracle-check", "--random=-1"],
        ["oracle-check", "--jobs", "0", "--max-loop", "0"],
        ["detect-mips", "--program", "p", "--bogus"],
        ["detect-mips", "--program", "p", "stray", "--dot=x", "more"],
        ["detect-mips", "--program"],
        ["detect-mips", "--program", "--output", "r"],
        ["detect-mips", "--program", "--", "p"],
        ["detect-mips", "--program", "p", "--", "--dot", "d"],
        ["analyze", "--program", "p", "--analysis", "rd", "--mode", "mfp",
         "--opts", "9"],
        ["compare", "--o", "r", "--program", "p", "--analysis", "rd"],
        ["compare", "--program", "p", "--analysis", "rd", "--no-timing=1"],
        ["oracle-check", "--max", "3"],
        ["oracle-check", "--h=x"], ["oracle-check", "-hx"], ["-h="],
        ["--bogus", "dump-dot", "--program", "p", "extra"],
    ]

    @pytest.mark.parametrize("argv", ACCEPTED, ids=lambda a: " ".join(a))
    def test_accepted(self, argv):
        outcome = _reference(argv)
        assert outcome[0] == "ok"
        assert _ours(argv) == outcome

    @pytest.mark.parametrize("argv", REJECTED, ids=lambda a: " ".join(a))
    def test_rejected(self, argv):
        outcome = _reference(argv)
        assert outcome[0] == "usage"
        assert _ours(argv) == outcome

    def test_first_line_of_a_bound(self, capsys):
        code, _, err = run(capsys, "oracle-check", "--max-len=0")
        assert code == 64
        assert err.split("\n")[0] == (
            "fpmfp: argument --max-length: must be at least 1, got 0")

    def test_seeded_corpus(self):
        outcomes = {"ok": 0, "usage": 0, "exit": 0}
        for argv in _argv_corpus(seed=30, count=400):
            outcome = _reference(argv)
            assert _ours(argv) == outcome, argv
            outcomes[outcome[0]] += 1
        assert outcomes["ok"] >= 100 and outcomes["usage"] >= 100

    def test_dashes_as_an_attached_value(self):
        # argparse drops ``--`` from ``--flag=--`` and stores an empty
        # list, unconverted; the table parser takes ``--`` as the value.
        assert vars(_REFERENCE.parse_args(["dump-dot", "--program=--"]))[
            "program"] == []
        assert cli._parse(["dump-dot", "--program=--"]).program == "--"
        assert _ours(["oracle-check", "--jobs=--"]) == (
            "usage", "fpmfp: argument --jobs: invalid int value: '--'")


class TestInputErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "--program", "/no/such.mir",
                           "--analysis", "rd", "--mode", "mfp")
        assert code == 1
        assert "cannot read" in err

    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.mir"
        bad.write_text("proc main( {")
        code, _, err = run(capsys, "detect-mips", "--program", str(bad))
        assert code == 1
        assert "bad.mir" in err

    @pytest.mark.parametrize("error", [
        lifted.PairBoundError, lifted.NonTermination,
    ], ids=lambda e: e.__name__)
    @pytest.mark.parametrize("command", [
        ("analyze", "--mode", "mfp"), ("analyze", "--mode", "fpmfp"),
        ("compare",),
    ], ids=lambda c: "-".join(c[::2]))
    def test_solver_errors_exit_one(self, capsys, monkeypatch, command,
                                    error):
        def fail(*args, **kwargs):
            raise error("solver gave up")

        monkeypatch.setattr(lifted, "_fixpoint", fail)
        code, out, err = run(capsys, *command, "--program", fix("fig2"),
                             "--analysis", "rd")
        assert code == 1
        assert out == ""
        assert err == "fpmfp: error: solver gave up\n"

    def test_oracle_explosion_is_not_a_solver_error(self, monkeypatch):
        # oracle-check catches Explosion per procedure; anywhere else it
        # is a fault and must not turn into an ordinary exit 1.
        def fail(*args, **kwargs):
            raise oracle.Explosion("path tree too large")

        monkeypatch.setattr(lifted, "_fixpoint", fail)
        with pytest.raises(oracle.Explosion):
            main(["analyze", "--program", fix("fig2"), "--analysis", "rd",
                  "--mode", "fpmfp"])

    @pytest.mark.parametrize("command", [
        ("detect-mips",), ("compare", "--analysis", "rd"),
    ], ids=lambda c: c[0])
    def test_deep_nesting_is_an_error_not_a_traceback(self, capsys, tmp_path,
                                                      command):
        deep = tmp_path / "deep.mir"
        deep.write_text("proc main() {\n  read x;\n"
                        + "".join(f"if (x > {i}) {{\n" for i in range(600))
                        + "print x;\n" + "}\n" * 601)
        code, out, err = run(capsys, *command, "--program", str(deep))
        assert code == 1
        assert out == ""
        assert err.startswith("fpmfp: error: ")
        assert "nested deeper than" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("op", ["&&", "||"])
    @pytest.mark.parametrize("command", [
        ("detect-mips",), ("compare", "--analysis", "rd"),
    ], ids=lambda c: c[0])
    def test_long_condition_is_an_error_not_a_traceback(
            self, capsys, tmp_path, command, op):
        long = tmp_path / "long.mir"
        long.write_text("proc main() { read x; if ("
                        + f" {op} ".join(["x > 1"] * 3000)
                        + ") { print x; } }\n")
        code, out, err = run(capsys, *command, "--program", str(long))
        assert code == 1
        assert out == ""
        assert err.startswith("fpmfp: error: ")
        assert err.count("\n") == 1
        assert "operands" in err
        assert "Traceback" not in err

    @settings(max_examples=50, deadline=None)
    @given(_mutated_sources())
    def test_mutated_programs_exit_cleanly(self, source):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mutated.mir"
            path.write_text(source, encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(["detect-mips", "--program", str(path)])
        assert code in (0, 1, 2, 64), err.getvalue()
        if code != 0:
            assert err.getvalue().startswith("fpmfp: ")
            assert out.getvalue() == ""

    @pytest.mark.parametrize("source, message", [
        ("proc main() { foo(); }", "call to undefined procedure 'foo'"),
        ("proc main() { exit; x = 1; }", "node n2 is unreachable"),
        ("extern f; proc f() { skip; } proc main() { f(); }",
         "procedure 'f' is both defined and declared extern "
         "(line 1, col 16)"),
    ], ids=["unresolved-call", "unreachable-statement", "defined-extern"])
    @pytest.mark.parametrize("command", [
        ("detect-mips",), ("analyze", "--analysis", "rd", "--mode", "mfp"),
        ("compare", "--analysis", "interval"), ("dump-dot",),
    ], ids=lambda c: c[0])
    def test_rejected_program_is_an_error_not_a_traceback(
            self, capsys, tmp_path, command, source, message):
        path = tmp_path / "bad.mir"
        path.write_text(source + "\n")
        err = self.fails_cleanly(capsys, tmp_path, *command,
                                 "--program", str(path))
        assert err == f"fpmfp: error: {path}: {message}\n"

    @staticmethod
    def fails_cleanly(capsys, tmp_path, *argv: str) -> str:
        """Run ``argv``: exit 1 with one ``fpmfp: error:`` line, nothing on
        stdout and no temporary file left; returns the message."""
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("fpmfp: error: ")
        assert err.count("\n") == 1
        assert not list(tmp_path.rglob("*.tmp*"))
        return err

    def test_non_utf8_program(self, capsys, tmp_path):
        bad = tmp_path / "latin1.mir"
        bad.write_bytes(b"proc main() { x = 1; } # caf\xe9\n")
        err = self.fails_cleanly(capsys, tmp_path, "detect-mips",
                                 "--program", str(bad))
        assert err == (f"fpmfp: error: cannot read {bad}: not UTF-8 text "
                       f"(byte 28)\n")

    def test_non_utf8_fixture(self, capsys, tmp_path):
        (tmp_path / "ok.mir").write_text("proc main() { x = 1; }\n")
        (tmp_path / "bad.mir").write_bytes(b"\xff\xfe")
        err = self.fails_cleanly(capsys, tmp_path, "oracle-check",
                                 "--fixtures", str(tmp_path))
        assert f"cannot read {tmp_path / 'bad.mir'}: not UTF-8 text" in err

    def test_output_is_a_directory(self, capsys, tmp_path):
        err = self.fails_cleanly(capsys, tmp_path, "detect-mips",
                                 "--program", fix("fig2"),
                                 "--output", str(tmp_path))
        assert err == (f"fpmfp: error: cannot write {tmp_path}: "
                       f"Is a directory\n")

    def test_output_in_a_missing_directory(self, capsys, tmp_path):
        dest = tmp_path / "no" / "report.json"
        err = self.fails_cleanly(capsys, tmp_path, "detect-mips",
                                 "--program", fix("fig2"),
                                 "--output", str(dest))
        assert err == (f"fpmfp: error: cannot write {dest}: "
                       f"No such file or directory\n")

    def test_failed_replace_removes_the_temporary_file(
            self, capsys, monkeypatch, tmp_path):
        def refuse(src, dst):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(cmd_io.os, "replace", refuse)
        dest = tmp_path / "report.json"
        err = self.fails_cleanly(capsys, tmp_path, "detect-mips",
                                 "--program", fix("fig2"),
                                 "--output", str(dest))
        assert err == (f"fpmfp: error: cannot write {dest}: "
                       f"Permission denied\n")
        assert not dest.exists()

    def test_failed_report_leaves_the_destination_intact(
            self, capsys, tmp_path):
        """An error while a report streams removes the temporary file,
        whatever the error, and leaves the old report as it was."""
        dest = tmp_path / "report.json"
        code, _, _ = run(capsys, "detect-mips", "--program", fix("fig12"),
                         "--output", str(dest))
        assert code == 0
        before = dest.read_bytes()
        # The 100 kB of rows before the set fill several chunks.
        payload = {"rows": ["x" * 1000] * 100, "z": {1, 2}}
        with pytest.raises(TypeError):
            cmd_io._write_json(payload, str(dest))
        assert dest.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp*"))

    def test_special_file_destinations_are_written_through(
            self, capsys, tmp_path):
        # A FIFO (or device) target must not be replaced by a regular file.
        fifo = tmp_path / "sink"
        os.mkfifo(fifo)
        reader = threading.Thread(
            target=lambda: fifo.read_bytes(), daemon=True)
        reader.start()
        code, _, _ = run(capsys, "detect-mips", "--program", fix("fig2"),
                         "--output", str(fifo))
        reader.join(timeout=5)
        assert code == 0
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert not list(tmp_path.glob("*.tmp*"))


class TestDetectMips:
    def test_fig12_matches_golden(self, capsys):
        code, out, _ = run(capsys, "detect-mips", "--program", fix("fig12"))
        assert code == 0
        assert out == golden("detect_mips_fig12.json")

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        dest = tmp_path / "report.json"
        code, out, _ = run(capsys, "detect-mips", "--program", fix("fig12"),
                           "--output", str(dest))
        assert code == 0
        assert out == ""
        assert dest.read_text() == golden("detect_mips_fig12.json")
        assert not list(tmp_path.glob("*.tmp*"))

    def test_segment_free_program(self, capsys):
        code, out, _ = run(capsys, "detect-mips", "--program",
                           fix("straight"))
        assert code == 0
        data = json.loads(out)
        assert data == {"schema": 1, "mips": []}

    def test_dot_overlay_marks_roles(self, capsys, tmp_path):
        dest = tmp_path / "overlay.dot"
        code, _, _ = run(capsys, "detect-mips", "--program", fix("fig12"),
                         "--dot", str(dest))
        assert code == 0
        text = dest.read_text()
        assert 'label="e3: false, m1:start"' in text
        assert 'label="e8: true, m1:end"' in text
        assert 'label="e6: m1:inner"' in text


class TestAnalyze:
    def test_fig2_fpmfp_matches_golden(self, capsys):
        code, out, _ = run(capsys, "analyze", "--program", fix("fig2"),
                           "--analysis", "interval", "--mode", "fpmfp")
        assert code == 0
        assert out == golden("analyze_fig2_interval_fpmfp.json")

    @pytest.mark.parametrize("name,flag", [
        ("summary_block", "rd"), ("summary_block", "interval"),
        ("loop", "interval"),
    ])
    def test_mfp_matches_golden(self, capsys, name, flag):
        code, out, _ = run(capsys, "analyze", "--program", fix(name),
                           "--analysis", flag, "--mode", "mfp")
        assert code == 0
        assert out == golden(f"analyze_{name}_{flag}_mfp.json")

    def test_fig12_rd_fpmfp_matches_golden(self, capsys):
        code, out, _ = run(capsys, "analyze", "--program", fix("fig12"),
                           "--analysis", "rd", "--mode", "fpmfp")
        assert code == 0
        assert out == golden("analyze_fig12_rd_fpmfp.json")

    def test_fig2_interval_mfp(self, capsys):
        code, out, _ = run(capsys, "analyze", "--program", fix("fig2"),
                           "--analysis", "interval", "--mode", "mfp")
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == 1
        assert data["mode"] == "mfp"
        assert "edge_pairs" not in data
        assert "opts" not in data
        n6 = [r for r in data["solution"] if r["node"] == 6][0]
        assert n6 == {"proc": "f", "node": 6,
                      "in": {"a": [0, 5], "x": [5, 5]},
                      "out": {"a": [0, 5], "x": [5, 5]}}

    def test_rd_solution_encoding(self, capsys):
        code, out, _ = run(capsys, "analyze", "--program",
                           fix("sphinx_like"), "--analysis", "rd",
                           "--mode", "mfp")
        assert code == 0
        data = json.loads(out)
        n6 = [r for r in data["solution"] if r["node"] == 6][0]
        assert n6["in"] == [["x", 1], ["c", 2], ["x", 4]]

    def test_uninit_alias_reports_canonical_name(self, capsys):
        code, out, _ = run(capsys, "analyze", "--program",
                           fix("nlkain_like"), "--analysis", "uninit",
                           "--mode", "fpmfp")
        assert code == 0
        data = json.loads(out)
        assert data["analysis"] == "must-defined"
        n6 = [r for r in data["solution"] if r["node"] == 6][0]
        assert n6["in"] == ["c", "x"]

    def test_opts_do_not_change_the_folds(self, capsys):
        _, full, _ = run(capsys, "analyze", "--program", fix("fig8"),
                         "--analysis", "interval", "--mode", "fpmfp")
        _, none, _ = run(capsys, "analyze", "--program", fix("fig8"),
                         "--analysis", "interval", "--mode", "fpmfp",
                         "--opts", "none")
        full_data, none_data = json.loads(full), json.loads(none)
        assert full_data["opts"] == [1, 2, 3]
        assert none_data["opts"] == []
        assert full_data["solution"] == none_data["solution"]

    def test_deterministic_bytes(self, capsys):
        _, first, _ = run(capsys, "analyze", "--program", fix("fig8"),
                          "--analysis", "interval", "--mode", "fpmfp")
        _, second, _ = run(capsys, "analyze", "--program", fix("fig8"),
                           "--analysis", "interval", "--mode", "fpmfp")
        assert first == second


class TestCompare:
    def test_nlkain_uninit_table_matches_golden(self, capsys):
        code, out, _ = run(capsys, "compare", "--program",
                           fix("nlkain_like"), "--analysis", "uninit",
                           "--format", "table", "--no-timing")
        assert code == 0
        assert out == golden("compare_nlkain_uninit.txt")

    def test_sphinx_rd_table_matches_golden(self, capsys):
        code, out, _ = run(capsys, "compare", "--program",
                           fix("sphinx_like"), "--analysis", "rd",
                           "--format", "table", "--no-timing")
        assert code == 0
        assert out == golden("compare_sphinx_rd.txt")

    @pytest.mark.parametrize("name,flag", [
        ("summary_block", "rd"), ("loop", "interval"),
    ])
    def test_json_matches_golden(self, capsys, name, flag):
        code, out, _ = run(capsys, "compare", "--program", fix(name),
                           "--analysis", flag, "--no-timing")
        assert code == 0
        assert out == golden(f"compare_{name}_{flag}.json")

    def test_sphinx_rd_json_attaches_def_use(self, capsys):
        code, out, _ = run(capsys, "compare", "--program",
                           fix("sphinx_like"), "--analysis", "rd",
                           "--no-timing")
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == 1
        assert data["def_use"]["totals"] == {"mfp": 6, "fpmfp": 5}
        assert data["def_use"]["removed"] == [[4, 6, "x"]]
        assert data["def_use"]["reduction_percent"] == 16.67
        assert "times" not in data

    def test_interval_json_has_no_client_section(self, capsys):
        code, out, _ = run(capsys, "compare", "--program", fix("fig2"),
                           "--analysis", "interval", "--no-timing")
        assert code == 0
        data = json.loads(out)
        assert "def_use" not in data and "alarms" not in data
        assert 6 in data["strict_nodes"]

    def test_timing_present_by_default(self, capsys):
        code, out, _ = run(capsys, "compare", "--program", fix("fig2"),
                           "--analysis", "interval")
        assert code == 0
        data = json.loads(out)
        assert set(data["times"]) == {"mfp", "fpmfp"}

    def test_no_timing_is_byte_deterministic(self, capsys):
        args = ("compare", "--program", fix("fig4"), "--analysis",
                "interval", "--no-timing")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_segment_free_program(self, capsys):
        code, out, _ = run(capsys, "compare", "--program", fix("straight"),
                           "--analysis", "rd", "--no-timing")
        assert code == 0
        data = json.loads(out)
        assert data["segments"] == 0
        assert data["strict_nodes"] == []

    @pytest.mark.parametrize("flag", ["rd", "uninit", "interval"])
    def test_detects_and_solves_each_mode_once(self, capsys, monkeypatch,
                                               flag):
        calls = []

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        # The CLI's handlers import these names from their home modules
        # when they run; ``clients`` binds its own copies at import.
        for module, names in ((clients, ("detect_mips", "solve_mfp",
                                         "solve_fpmfp_interprocedural")),
                              (mips, ("detect_mips",)),
                              (mfp, ("solve_mfp",)),
                              (lifted, ("solve_fpmfp_interprocedural",))):
            for name in names:
                counted(module, name)
        code, _, _ = run(capsys, "compare", "--program", fix("sphinx_like"),
                         "--analysis", flag, "--no-timing")
        assert code == 0
        assert sorted(calls) == ["detect_mips", "solve_fpmfp_interprocedural",
                                 "solve_mfp"]


class TestOracleCheck:
    def test_fixture_directory_passes(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--fixtures",
                           str(FIXTURES))
        assert code == 0
        data = json.loads(out)
        assert data["programs"] == len(list(FIXTURES.glob("*.mir")))
        assert data["violations"] == []

    def test_random_programs_pass_and_are_deterministic(self, capsys):
        args = ("oracle-check", "--random", "6", "--seed", "11")
        code, first, _ = run(capsys, *args)
        assert code == 0
        code, second, _ = run(capsys, *args)
        assert code == 0
        assert first == second
        assert json.loads(first)["programs"] == 6

    def test_jobs_do_not_change_the_report(self, capsys):
        _, serial, _ = run(capsys, "oracle-check", "--fixtures",
                           str(FIXTURES))
        _, parallel, _ = run(capsys, "oracle-check", "--fixtures",
                             str(FIXTURES), "--jobs", "4")
        assert serial == parallel

    def test_jobs_under_the_entry_write_the_same_bytes(self, tmp_path):
        """Under ``python -m fpmfp.cli`` the entry is ``__main__``; each
        worker finds the suite by the name of the module that defines it.
        """
        env = dict(os.environ, PYTHONPATH=str(
            Path(fpmfp.__file__).resolve().parent.parent))
        reports = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}.json"
            child = subprocess.run(
                [sys.executable, "-m", "fpmfp.cli", "oracle-check",
                 "--fixtures", str(FIXTURES), "--jobs", jobs,
                 "--output", str(out)],
                capture_output=True, text=True, env=env, timeout=300)
            assert (child.returncode, child.stderr) == (0, "")
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("programs, jobs, cpus, started", [
        (1, 5000, 8, []), (3, 5000, 8, [3]), (3, 2, 8, [2]),
        (3, 5000, 2, [2]), (3, 5000, None, []),
    ])
    def test_jobs_start_no_more_workers_than_programs_or_cpus(
            self, capsys, monkeypatch, tmp_path, programs, jobs, cpus,
            started):
        import concurrent.futures

        pools = []

        class RecordingPool:
            """Records ``max_workers`` and checks in this process."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        monkeypatch.setattr(cmd_oracle_check.os, "cpu_count", lambda: cpus)
        for name in ("fig2", "fig3", "loop")[:programs]:
            (tmp_path / f"{name}.mir").write_text(fixture_text(name))
        code, serial, _ = run(capsys, "oracle-check", "--fixtures",
                              str(tmp_path))
        assert (code, pools) == (0, [])
        code, out, _ = run(capsys, "oracle-check", "--fixtures",
                           str(tmp_path), "--jobs", str(jobs))
        assert (code, out, pools) == (0, serial, started)

    def test_requires_some_input(self, capsys):
        code, _, err = run(capsys, "oracle-check")
        assert code == 64
        assert "--fixtures" in err

    def test_missing_directory(self, capsys):
        code, _, err = run(capsys, "oracle-check", "--fixtures",
                           "/no/such/dir")
        assert code == 1

    @pytest.mark.parametrize("flag, value", [
        ("--max-length", "0"), ("--max-length", "-1"), ("--max-loop", "0"),
        ("--max-loop", "-1"), ("--jobs", "0"), ("--jobs", "-2"),
        ("--random", "-3"),
    ])
    def test_bounds_that_empty_the_suite_are_usage_errors(
            self, capsys, flag, value):
        code, out, err = run(capsys, "oracle-check", "--fixtures",
                             str(FIXTURES), flag, value)
        assert code == 64
        assert out == ""
        assert err.startswith(f"fpmfp: argument {flag}: must be at least ")

    def test_rejected_programs_report_parse_violations(self, capsys,
                                                       tmp_path):
        (tmp_path / "call.mir").write_text("proc main() { foo(); }\n")
        (tmp_path / "dead.mir").write_text("proc main() { exit; x = 1; }\n")
        code, out, _ = run(capsys, "oracle-check", "--fixtures",
                           str(tmp_path))
        assert code == 2
        assert [(v["program"], v["property"], v["detail"])
                for v in json.loads(out)["violations"]] == [
            ("call.mir", "parse", "call to undefined procedure 'foo'"),
            ("dead.mir", "parse", "node n2 is unreachable"),
        ]

    def test_unparsable_fixture_reports_violation(self, capsys, tmp_path):
        (tmp_path / "ok.mir").write_text(
            "proc main() { x = 1; print x; }\n")
        (tmp_path / "broken.mir").write_text("proc oops(")
        code, out, _ = run(capsys, "oracle-check", "--fixtures",
                           str(tmp_path))
        assert code == 2
        data = json.loads(out)
        assert data["violations"][0]["program"] == "broken.mir"
        assert data["violations"][0]["property"] == "parse"


class TestSkippedChecks:
    """The report names every path-tree check it did not make, analysis
    by analysis within each program, as ``violations`` are ordered."""

    @staticmethod
    def skipped(capsys, tmp_path, *names: str, bound=()) -> list[tuple]:
        for name in names:
            (tmp_path / f"{name}.mir").write_text(fixture_text(name))
        code, out, _ = run(capsys, "oracle-check", "--fixtures",
                           str(tmp_path), *bound)
        data = json.loads(out)
        assert (code, data["violations"]) == (0, [])
        assert all(sorted(record) == ["analysis", "procedure", "program",
                                      "property", "reason"]
                   for record in data["skipped"])
        return [(r["program"], r["analysis"], r["procedure"],
                 r["property"], r["reason"]) for r in data["skipped"]]

    def test_a_truncated_tree_skips_distributive_equality(self, capsys,
                                                           tmp_path):
        # fig2's branches put no path to the exit within 3 edges; the
        # interval analysis is not distributive and checks no equality.
        assert self.skipped(capsys, tmp_path, "fig2",
                            bound=("--max-length", "3")) == [
            ("fig2.mir", name, "f", "distributive-equality", "truncated")
            for name in ("rd", "must-defined")]
        assert self.skipped(capsys, tmp_path, "fig2") == []

    def test_an_exploding_tree_skips_every_check(self, capsys, monkeypatch,
                                                 tmp_path):
        monkeypatch.setattr(oracle, "EXPANSION_LIMIT", 1)
        tree_checks = {"rd": ["fold-bounded-by-path-meets",
                              "distributive-equality"],
                       "must-defined": ["fold-bounded-by-path-meets",
                                        "distributive-equality"],
                       "interval": ["fold-bounded-by-path-meets"]}
        assert self.skipped(capsys, tmp_path, "fig2", "fig7") == [
            (program, name, proc, prop, "explosion")
            for program, procs in (("fig2.mir", ["f"]),
                                   ("fig7.mir", ["p", "q"]))
            for name, props in tree_checks.items()
            for proc in procs for prop in props]


class TestSharedWork:
    """Work that does not depend on the analysis is done once per
    program."""

    @pytest.fixture
    def call_graphs(self, monkeypatch):
        from fpmfp.frontend import CallGraph

        built = []
        real = CallGraph.__init__

        def counted(self, program):
            built.append(program)
            real(self, program)

        monkeypatch.setattr(CallGraph, "__init__", counted)
        return built

    @pytest.fixture
    def walks(self, monkeypatch):
        """Records the procedure of each tree built and of each tree
        evaluated, and the trees alive when a tree is built; a tree of a
        procedure in ``explode`` raises ``Explosion`` instead."""
        record = {"built": [], "evaluated": [], "alive": [], "explode": ()}
        real_tree = oracle.path_tree
        real_meets = oracle.PathTree.meets
        alive = weakref.WeakSet()

        class Tree(oracle.PathTree):
            pass

        class Token:
            pass

        def tree(cfg, universe, proc_name, **kwargs):
            record["built"].append(proc_name)
            record["alive"].append(len(alive))
            if proc_name in record["explode"]:
                raise oracle.Explosion(f"path tree of {proc_name} exploded")
            built = Tree(*real_tree(cfg, universe, proc_name, **kwargs))
            built.proc = proc_name
            # A tuple takes no weak reference; the token it holds does.
            built.token = Token()
            alive.add(built.token)
            return built

        def meets(self, **kwargs):
            record["evaluated"].append(self.proc)
            return real_meets(self, **kwargs)

        monkeypatch.setattr(oracle, "path_tree", tree)
        monkeypatch.setattr(Tree, "meets", meets)
        return record

    @staticmethod
    def check_fig7():
        return cmd_oracle_check._check_program(
            ("fig7", fixture_text("fig7"), None, 2))

    def test_oracle_check_builds_one_call_graph_and_one_tree_per_procedure(
            self, call_graphs, walks):
        assert self.check_fig7() == ([], [])
        assert len(call_graphs) == 1
        assert walks["built"] == ["p", "q"]
        assert walks["evaluated"] == 3 * ["p"] + 3 * ["q"]
        # Each tree is dropped before the next one is built.
        assert walks["alive"] == [0, 0]

    def test_an_exploding_tree_is_skipped_for_every_analysis(
            self, monkeypatch, walks):
        # With every leq false, each analysis gets a
        # fold-bounded-by-path-meets record at every node its walks reach.
        for cls in (BitvectorAnalysis, IntervalAnalysis):
            monkeypatch.setattr(cls, "leq", lambda self, a, b: False)

        def reached():
            out = {}
            violations, skipped = self.check_fig7()
            for v in violations:
                if v["property"] == "fold-bounded-by-path-meets":
                    out.setdefault(v["analysis"], set()).add(v["location"])
            return out, [(v["analysis"], v["procedure"], v["property"],
                          v["reason"]) for v in skipped]

        everywhere, none_skipped = reached()
        walks["explode"] = ("q",)
        without_q, skipped = reached()
        assert none_skipped == []
        assert skipped == [
            (name, "q", prop, "explosion")
            for name in cmd_oracle_check._SUITE_ANALYSES
            for prop in ("fold-bounded-by-path-meets",
                         "distributive-equality")
            if name != "interval" or prop != "distributive-equality"]
        assert walks["built"] == 2 * ["p", "q"]
        assert walks["evaluated"] == 3 * ["p"] + 3 * ["q"] + 3 * ["p"]
        in_q = {f"n{nid}" for nid in fixture_program("fig7").by_name["q"]
                .cfg.nodes}
        assert set(everywhere) == set(cmd_oracle_check._SUITE_ANALYSES)
        for analysis_name, locations in everywhere.items():
            assert locations & in_q
            assert without_q[analysis_name] == locations - in_q

    def test_a_skipped_tree_is_logged(self, capsys, monkeypatch, tmp_path,
                                      walks):
        (tmp_path / "fig7.mir").write_text(fixture_text("fig7"))
        walks["explode"] = ("q",)
        reports = {}
        for level in ("error", "info"):
            monkeypatch.setenv("FPMFP_LOG", level)
            code, reports[level], err = run(
                capsys, "oracle-check", "--fixtures", str(tmp_path))
            assert code == 0
        assert reports["info"] == reports["error"]
        assert err == (
            "fpmfp: INFO: fig7.mir: procedure q has too many paths; its "
            "path-tree checks are skipped\n"
            "fpmfp: INFO: checked 1 program(s): 0 violation(s)\n")

    def test_no_tree_when_no_analysis_solves(self, monkeypatch, walks):
        def diverge(*args, **kwargs):
            raise lifted.NonTermination("step budget exceeded")

        monkeypatch.setattr(lifted, "solve_fpmfp_interprocedural", diverge)
        violations, skipped = self.check_fig7()
        assert [(v["analysis"], v["property"]) for v in violations] == [
            (name, "termination")
            for name in cmd_oracle_check._SUITE_ANALYSES]
        assert skipped == []
        assert walks["built"] == []

    def test_oracle_check_builds_one_cfg_plan_per_procedure(
            self, monkeypatch):
        # Every round, summary fixpoint and solve of the nine solves reads
        # the plan its procedure's CFG built on first use.
        built = []
        real = frontend.CfgPlan

        def counted(order, outs):
            built.append(sorted(outs))
            return real(order, outs)

        monkeypatch.setattr(frontend, "CfgPlan", counted)
        source = perfbench_workloads().call_chain(1, 40).source
        assert cmd_oracle_check._check_program(
            ("chain", source, None, 2)) == ([], [])
        program = frontend.parse_program(source)
        assert len(program.procedures) == 41
        assert sorted(built) == sorted(sorted(proc.cfg.nodes)
                                       for proc in program.procedures)

    @pytest.mark.parametrize("command", [
        ("compare", "--analysis", "rd"),
        ("compare", "--analysis", "interval"),
        ("analyze", "--analysis", "rd", "--mode", "fpmfp"),
        ("analyze", "--analysis", "interval", "--mode", "mfp"),
    ], ids="-".join)
    def test_one_call_graph_per_command(self, capsys, call_graphs, command):
        code, _, _ = run(capsys, *command, "--program", fix("fig7"))
        assert code == 0
        assert len(call_graphs) == 1


class TestOracleCheckFaults:
    """One planted fault per property of ``oracle-check``, each pinned to
    the exact records the report names.  Work the checks share between
    analyses or procedures must not drop one of them."""

    PROGRAMS = ("fig2", "fig7", "loop")

    @pytest.fixture
    def programs(self, tmp_path):
        for name in self.PROGRAMS:
            (tmp_path / f"{name}.mir").write_text(fixture_text(name))
        return str(tmp_path)

    @staticmethod
    def records(capsys, programs):
        code, out, err = run(capsys, "oracle-check", "--fixtures", programs)
        violations = json.loads(out)["violations"]
        assert code == (2 if violations else 0)
        assert err == ""
        return [(v["program"], v["analysis"], v["property"], v["location"],
                 v["detail"]) for v in violations]

    @staticmethod
    def exit_edges(cfg):
        return {edge.id for edge in cfg.into[cfg.exit]}

    def test_without_a_fault_nothing_is_reported(self, capsys, programs):
        assert self.records(capsys, programs) == []

    def test_termination(self, capsys, monkeypatch, programs):
        # A budget of one solve per procedure: fig7's interval solve needs
        # a third solve once q's exit reaches p.
        monkeypatch.setattr(lifted, "MAX_SOLVES", 1)
        assert self.records(capsys, programs) == [
            ("fig7.mir", "interval", "termination", "-",
             "interprocedural solving exceeded 2 procedure solves"),
        ]

    def test_mfp_refined_by_fold(self, capsys, monkeypatch, programs):
        # MFP's value at the last node and on the last edge of each
        # program rises to top under reaching definitions.
        real = mfp.solve_mfp

        def solve(program, analysis, **kwargs):
            solution = real(program, analysis, **kwargs)
            if analysis.name == "rd":
                top = analysis.top()
                # The merged views are rebuilt on every read: corrupt the
                # per-procedure map that holds the largest id.
                procs = solution.procs.values()
                for view in ("folded_in", "folded_edges"):
                    last = max(i for p in procs for i in getattr(p, view))
                    owner = next(p for p in procs if last in getattr(p, view))
                    getattr(owner, view)[last] = top
            return solution

        monkeypatch.setattr(mfp, "solve_mfp", solve)
        assert self.records(capsys, programs) == [
            ("fig2.mir", "rd", "mfp-refined-by-fold", "n7",
             "{} !<= a@n1, a@n3"),
            ("fig2.mir", "rd", "mfp-refined-by-fold", "e8", "{} !<= a@n3"),
            ("fig7.mir", "rd", "mfp-refined-by-fold", "n10", "{} !<= l@n9"),
            ("fig7.mir", "rd", "mfp-refined-by-fold", "e9", "{} !<= l@n9"),
            ("loop.mir", "rd", "mfp-refined-by-fold", "n5", "{} !<= x@n3"),
            ("loop.mir", "rd", "mfp-refined-by-fold", "e5", "{} !<= x@n3"),
        ]

    def test_optimization_neutrality(self, capsys, monkeypatch, programs):
        # Without normalizations, must-defined's fold at the entry's exit
        # node drops to no variable defined, on fig7 only.
        real = lifted.solve_fpmfp_interprocedural

        def solve(program, analysis, universe, opts=lifted.ALL_OPTS,
                  **kwargs):
            solution = real(program, analysis, universe, opts, **kwargs)
            if (not opts and analysis.name == "must-defined"
                    and "q" in program.by_name):
                entry = program.by_name[program.entry].cfg
                solution.procs[program.entry].folded_in[entry.exit] = 0
            return solution

        monkeypatch.setattr(lifted, "solve_fpmfp_interprocedural", solve)
        assert self.records(capsys, programs) == [
            ("fig7.mir", "must-defined", "optimization-neutrality", "-",
             "folds differ between --opts 1,2,3 and --opts none"),
        ]

    @staticmethod
    def neutrality_records(records):
        return [r for r in records if r[2] == "optimization-neutrality"]

    def test_neutrality_at_call_nodes_alone(self, capsys, monkeypatch,
                                            programs):
        # After the all-opts rd solve, q's gen mask gains every global
        # definition in the transfer the solution's Outs are folded with.
        # The pair maps of both solves stay equal everywhere, and only
        # the Out of fig7's call node differs.
        real = lifted.solve_fpmfp_interprocedural

        def solve(program, analysis, universe, opts=lifted.ALL_OPTS,
                  **kwargs):
            solution = real(program, analysis, universe, opts, **kwargs)
            if opts and analysis.name == "rd" and "q" in program.by_name:
                transfer = solution.node_transfer
                gens = analysis.globals_mask

                def faulty(node, value):
                    out = transfer(node, value)
                    if node.statement.callee == "q":
                        out |= gens
                    return out

                for sol in solution.procs.values():
                    sol.node_transfer = faulty
            return solution

        monkeypatch.setattr(lifted, "solve_fpmfp_interprocedural", solve)
        assert self.records(capsys, programs) == [
            ("fig7.mir", "rd", "optimization-neutrality", "-",
             "folds differ between --opts 1,2,3 and --opts none"),
        ]

    def test_neutrality_of_a_normalized_pair(self, capsys, monkeypatch,
                                             programs):
        # In every all-opts rd value solve, normalization changes the
        # value of one pair, the last in key order, on the first edge it
        # leaves pairs on.
        real = lifted._Flow.normalize
        faulted = {}

        def normalize(self, eid, pairs):
            pairs = real(self, eid, pairs)
            if (self.merge_ends and type(self.top) is int and self.top == 0
                    and pairs and faulted.setdefault(self, eid) == eid):
                key = lifted.sorted_keys(pairs)[-1]
                pairs = {**pairs, key: pairs[key] ^ 1}
            return pairs

        monkeypatch.setattr(lifted._Flow, "normalize", normalize)
        assert self.neutrality_records(self.records(capsys, programs)) == [
            ("fig2.mir", "rd", "optimization-neutrality", "-",
             "folds differ between --opts 1,2,3 and --opts none"),
        ]

    def fault_on_exit_edges(self, monkeypatch, analysis_name, change):
        """The path oracle's refine applies ``change`` on every edge into
        an exit node, for one analysis."""
        real = oracle.solution_semantics

        def semantics(solution, proc):
            node_transfer, refine = real(solution, proc)
            if solution.analysis.name != analysis_name:
                return node_transfer, refine
            into_exit = self.exit_edges(proc.cfg)

            def faulty(edge, value):
                value = refine(edge, value)
                return change(value) if edge.id in into_exit else value
            return node_transfer, faulty

        monkeypatch.setattr(oracle, "solution_semantics", semantics)

    def test_distributive_equality_on_a_path_of_max_length(
            self, monkeypatch):
        # The one path has exactly --max-length 3 edges and ends at the
        # exit, so the walk is whole and equality is checked.
        self.fault_on_exit_edges(monkeypatch, "rd", lambda value: 0)
        task = ("three", "proc main() { a = 1; b = 2; c = 3; }", 3, 2)
        assert cmd_oracle_check._check_program(task) == ([{
            "program": "three", "analysis": "rd",
            "property": "distributive-equality", "location": "n4",
            "detail": "a@n1, b@n2, c@n3 != {}"}], [])

    def test_fold_bounded_by_path_meets(self, capsys, monkeypatch,
                                        programs):
        # Interval is not distributive, so widening every variable on the
        # way to an exit trips the bound and nothing else (loop's walk is
        # cut off before it reaches the exit).
        self.fault_on_exit_edges(
            monkeypatch, "interval",
            lambda value: {var: (-INF, INF) for var in value})
        assert self.records(capsys, programs) == [
            ("fig2.mir", "interval", "fold-bounded-by-path-meets", "n7",
             "a: [0, 5], x: [-inf, +inf] !<= a: [-inf, +inf], "
             "x: [-inf, +inf]"),
            ("fig7.mir", "interval", "fold-bounded-by-path-meets", "n7",
             "a: [0, 0], l: [0, 0] !<= a: [-inf, +inf], l: [-inf, +inf]"),
            ("fig7.mir", "interval", "fold-bounded-by-path-meets", "n10",
             "l: [0, 0] !<= l: [-inf, +inf]"),
        ]

    def test_distributive_equality(self, capsys, monkeypatch, programs):
        # Dropping every reaching definition on the way to an exit keeps
        # the fold below the meets but breaks equality on the acyclic
        # programs; loop's walk is truncated, so it is not compared.
        self.fault_on_exit_edges(monkeypatch, "rd", lambda value: 0)
        assert self.records(capsys, programs) == [
            ("fig2.mir", "rd", "distributive-equality", "n7",
             "a@n1, a@n3 != {}"),
            ("fig7.mir", "rd", "distributive-equality", "n7",
             "a@n2, l@n9 != {}"),
            ("fig7.mir", "rd", "distributive-equality", "n10",
             "l@n9 != {}"),
        ]


def merged_folds_differ(one, other) -> bool:
    """The optimization-neutrality test as it compared two whole
    solutions: their merged folded In, Out and edge views."""
    return (one.folded_in != other.folded_in
            or one.folded_out != other.folded_out
            or one.folded_edges != other.folded_edges)


class TestNeutralityShortcut:
    def test_agrees_with_comparing_the_merged_folds(self):
        """Over the fixtures and the generated corpus, folding only at
        call nodes and where pair maps differ says what comparing the
        merged folds says: of FPMFP with and without normalizations,
        which agree, and of each of them and MFP, which often do not."""
        differ = 0
        for _, program in corpus_programs():
            call_graph = frontend.build_call_graph(program)
            universe = mips.detect_mips(program, call_graph)
            for name in cmd_oracle_check._SUITE_ANALYSES:
                analysis = make_analysis(name, program)
                try:
                    solutions = [
                        lifted.solve_fpmfp_interprocedural(
                            program, analysis, universe, opts,
                            call_graph=call_graph)
                        for opts in (lifted.ALL_OPTS, frozenset())]
                except lifted.NonTermination:
                    continue
                solutions.append(
                    mfp.solve_mfp(program, analysis, call_graph=call_graph))
                for one, other in ((0, 1), (0, 2), (1, 2)):
                    one, other = solutions[one], solutions[other]
                    got = cmd_oracle_check._folds_differ(one, other)
                    assert got == merged_folds_differ(one, other)
                    differ += got
        assert differ > 1000


class TestDumpDot:
    def test_fig3_matches_golden(self, capsys):
        code, out, _ = run(capsys, "dump-dot", "--program", fix("fig3"))
        assert code == 0
        assert out == golden("fig3.dot")

    def test_one_cluster_per_procedure(self, capsys):
        code, out, _ = run(capsys, "dump-dot", "--program", fix("fig7"))
        assert code == 0
        assert "subgraph cluster_0" in out
        assert "subgraph cluster_1" in out


class TestDeepInputs:
    """Inputs at the front end's bounds, and a call chain longer than the
    recursion limit, run in a fresh interpreter, whose stack starts as
    shallow as a user's, and exit 0."""

    @staticmethod
    def nested(op: str, head: str) -> str:
        """A ``MAX_OPERANDS``-operand condition in an ``if`` inside the
        procedure body and ``MAX_NESTING - 2`` nested ``head`` blocks, so
        the ``if``'s own block is ``MAX_NESTING`` levels deep."""
        cond = f" {op} ".join(f"x > {i}" for i in range(MAX_OPERANDS))
        levels = MAX_NESTING - 2
        return ("proc main() { read x; " + f"{head} (x > 0) {{ " * levels
                + f"if ({cond}) {{ print x; }} " + "} " * levels + "}")

    @staticmethod
    def chain(length: int) -> str:
        return "\n".join(
            f"proc p{i}() {{ x = {i}; p{i + 1}(); }}" for i in range(length - 1)
        ) + f"\nproc p{length - 1}() {{ x = 0; }}\n"

    def run_child(self, tmp_path, source: str, *argv: str) -> None:
        (tmp_path / "deep.mir").write_text(source)
        env = dict(os.environ, PYTHONPATH=str(
            Path(fpmfp.__file__).resolve().parent.parent))
        child = subprocess.run(
            [sys.executable, "-m", "fpmfp.cli", *argv, "--program",
             "deep.mir", "--output", "report"],
            capture_output=True, text=True, env=env, cwd=tmp_path,
            timeout=300)
        assert child.returncode == 0, child.stderr[-2000:]

    @pytest.mark.parametrize("op, head", [("&&", "if"), ("||", "while")])
    @pytest.mark.parametrize("argv", [
        ("dump-dot",), ("compare", "--analysis", "interval"),
    ], ids=" ".join)
    def test_deepest_condition(self, tmp_path, op, head, argv):
        self.run_child(tmp_path, self.nested(op, head), *argv)

    @pytest.mark.parametrize("argv", [
        ("detect-mips",), ("compare", "--analysis", "rd"),
        ("compare", "--analysis", "interval"),
    ], ids=" ".join)
    def test_long_call_chain(self, tmp_path, argv):
        self.run_child(tmp_path, self.chain(1200), *argv)


class TestStartup:
    """Each subcommand loads only the modules it runs.

    Every case runs ``cli.main`` in a fresh interpreter and lists the
    ``fpmfp`` modules, and which of the slow-to-import standard modules
    in ``HEAVY``, are loaded after it returns.  The script imports
    ``json`` only after it has looked.
    """

    HEAVY = ["argparse", "concurrent.futures", "dataclasses", "gettext",
             "inspect", "json", "locale", "logging"]
    SCRIPT = (
        "import sys\n"
        "from fpmfp import cli\n"
        "try:\n"
        "    code = cli.main(sys.argv[2:])\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "found = [code, sorted(\n"
        "    name.split('.', 1)[1] for name in sys.modules\n"
        "    if name.startswith('fpmfp.')),\n"
        "    [name for name in sys.argv[1].split(',')\n"
        "     if name in sys.modules]]\n"
        "import json\n"
        "print(json.dumps(found))\n"
    )
    PACKAGE = Path(fpmfp.__file__).resolve().parent
    # What every run that writes JSON, or solves, loads: the front end,
    # detection and the scalar text of the JSON writer and value views.
    FRONT = ["frontend", "jsontext", "mips"]
    SOLVE = sorted(FRONT + ["lattice", "lifted", "mfp"])
    # Everything but the clients, the concrete executor, the renderer and
    # the other subcommands: a new module must be placed here.
    ORACLE = sorted({path.stem for path in PACKAGE.glob("*.py")}
                    - {"__init__", "clients", "concrete", "cmd_analyze",
                       "cmd_compare", "cmd_detect_mips", "cmd_dump_dot",
                       "render"})

    def loaded(self, tmp_path, *argv: str):
        """The exit code, the fpmfp modules and the ``HEAVY`` modules
        loaded."""
        env = dict(os.environ, PYTHONPATH=str(self.PACKAGE.parent))
        child = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, ",".join(self.HEAVY),
             *argv], capture_output=True, text=True, env=env, cwd=tmp_path,
            timeout=120)
        code, modules, heavy = json.loads(child.stdout.splitlines()[-1])
        return code, modules, heavy

    @pytest.mark.parametrize("argv, code", [
        (("--help",), 0), ((), 64), (("compare", "-h"), 0),
        (("analyze", "--mode", "both"), 64)],
        ids=["help", "usage", "command-help", "command-usage"])
    def test_the_entry_alone(self, tmp_path, argv, code):
        """``--help`` and a usage error compile ``cli.py`` and the
        package root, and import no ``json``."""
        assert self.loaded(tmp_path, *argv) == (code, ["cli"], [])

    @pytest.mark.parametrize("argv, expected", [
        (("detect-mips",), ["cmd_detect_mips"] + FRONT),
        (("dump-dot",), ["cmd_dump_dot", "frontend", "render"]),
        (("analyze", "--analysis", "rd", "--mode", "mfp"),
         ["cmd_analyze"] + SOLVE),
        (("analyze", "--analysis", "interval", "--mode", "fpmfp"),
         ["cmd_analyze", "interval"] + SOLVE),
        (("compare", "--analysis", "uninit"),
         ["clients", "cmd_compare"] + SOLVE),
        (("detect-mips", "--dot", "dot"),
         ["cmd_detect_mips", "render"] + FRONT),
        (("compare", "--analysis", "rd"), ["clients", "cmd_compare"] + SOLVE),
        (("compare", "--analysis", "interval"),
         ["clients", "cmd_compare", "interval"] + SOLVE),
        (("compare", "--analysis", "uninit", "--format", "table"),
         ["clients", "cmd_compare", "render"]
         + [stem for stem in SOLVE if stem != "jsontext"]),
    ], ids=lambda v: "-".join(v) if isinstance(v, tuple) else None)
    def test_program_commands(self, tmp_path, argv, expected):
        """A bit-vector run loads neither the interval domain nor the
        renderer, only the DOT and table outputs load the renderer, a
        table builds no value views and so loads no ``jsontext``, and no
        run imports ``json``."""
        argv += ("--program", fix("fig2"), "--output", "report")
        assert self.loaded(tmp_path, *argv) == (
            0, sorted(["cli", "cmd_io"] + expected), [])

    def test_oracle_check(self, tmp_path):
        assert {"progen", "cmd_io", "cmd_oracle_check",
                "interval"} <= set(self.ORACLE)
        (tmp_path / "fig2.mir").write_text(fixture_text("fig2"))
        assert self.loaded(tmp_path, "oracle-check", "--fixtures", ".",
                           "--random", "1", "--output", "report") == (
            0, self.ORACLE, [])

    def test_only_jobs_load_the_process_pool(self, tmp_path):
        """The pool, and the logging it imports and the locale its
        ``subprocess`` imports, load only when two programs can be
        checked on two CPUs."""
        for name in ("fig2", "fig3"):
            (tmp_path / f"{name}.mir").write_text(fixture_text(name))
        code, modules, heavy = self.loaded(
            tmp_path, "oracle-check", "--fixtures", ".", "--jobs", "2",
            "--output", "report")
        assert code == 0
        assert ("concurrent.futures" in heavy) == ((os.cpu_count() or 1) > 1)
        assert not {"argparse", "gettext"} & set(heavy)
        assert "progen" not in modules

    @pytest.mark.parametrize("argv", [
        ("--help",),
        ("detect-mips", "--program", "fig2.mir", "--dot", "dot",
         "--output", "report"),
        ("dump-dot", "--program", "fig2.mir", "--output", "report"),
        ("analyze", "--program", "fig2.mir", "--analysis", "interval",
         "--mode", "fpmfp", "--output", "report"),
        ("compare", "--program", "fig2.mir", "--analysis", "rd",
         "--output", "report"),
        ("oracle-check", "--fixtures", ".", "--output", "report"),
    ], ids=lambda argv: argv[0].lstrip("-"))
    def test_the_entry_is_compiled_once(self, tmp_path, argv):
        """Under ``python -m fpmfp.cli`` the entry runs as ``__main__``;
        a module that imported ``fpmfp.cli`` would compile it again.
        ``-X importtime`` names every module the run imports."""
        (tmp_path / "fig2.mir").write_text(fixture_text("fig2"))
        env = dict(os.environ, PYTHONPATH=str(self.PACKAGE.parent))
        child = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "fpmfp.cli", *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path,
            timeout=120)
        assert child.returncode == 0, child.stderr
        imported = [line.rsplit("|", 1)[1].strip()
                    for line in child.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "fpmfp" in imported
        assert "fpmfp.cli" not in imported
        commands = [name for name in imported
                    if name.startswith("fpmfp.cmd_")
                    and name != "fpmfp.cmd_io"]
        assert commands == ([] if argv == ("--help",) else
                            [f"fpmfp.cmd_{argv[0].replace('-', '_')}"])


class TestLogging:
    """``FPMFP_LOG`` lines on stderr, byte for byte, from a fresh
    interpreter with the fixture and report in its working directory."""

    PROGRESS = {
        "detect-mips": ("fpmfp: INFO: parsed fig2.mir: 1 procedure(s)\n"
                        "fpmfp: INFO: detected 1 segment(s)\n"
                        "fpmfp: INFO: wrote report\n"),
        "compare": ("fpmfp: INFO: parsed fig2.mir: 1 procedure(s)\n"
                    "fpmfp: INFO: wrote report\n"),
        "oracle-check": ("fpmfp: INFO: checked 1 program(s): 0 "
                         "violation(s)\n"
                         "fpmfp: INFO: wrote report\n"),
    }
    ARGV = {
        "detect-mips": ("--program", "fig2.mir"),
        "compare": ("--program", "fig2.mir", "--analysis", "rd",
                    "--no-timing"),
        "oracle-check": ("--fixtures", "."),
    }

    @pytest.mark.parametrize("command", sorted(PROGRESS))
    @pytest.mark.parametrize("level", ["error", "info", "debug"])
    def test_stderr_lines(self, tmp_path, command, level):
        (tmp_path / "fig2.mir").write_text(fixture_text("fig2"))
        env = dict(os.environ, FPMFP_LOG=level,
                   PYTHONPATH=str(Path(fpmfp.__file__).resolve().parent
                                  .parent))
        child = subprocess.run(
            [sys.executable, "-m", "fpmfp.cli", command,
             *self.ARGV[command], "--output", "report"],
            capture_output=True, text=True, env=env, cwd=tmp_path,
            timeout=120)
        assert child.returncode == 0
        assert child.stdout == ""
        assert child.stderr == ("" if level == "error"
                                else self.PROGRESS[command])

    def test_default_level_is_quiet(self, capsys, monkeypatch):
        monkeypatch.delenv("FPMFP_LOG", raising=False)
        code, _, err = run(capsys, "detect-mips", "--program", fix("fig2"))
        assert (code, err) == (0, "")

    def test_unknown_level_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("FPMFP_LOG", "chatty")
        code, out, err = run(capsys, "detect-mips", "--program",
                             fix("fig2"))
        assert (code, out) == (64, "")
        assert err == ("fpmfp: FPMFP_LOG must be one of error, info, debug "
                       "(got 'chatty')\n")
