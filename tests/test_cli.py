"""Command-line tests: flags, exit codes, golden outputs, determinism."""
from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import re
import stat
import subprocess
import sys
import tempfile
import threading
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fpmfp
from fpmfp import cli, clients, frontend, lifted, mfp, mips, oracle, progen
from fpmfp.cli import main
from fpmfp.frontend import MAX_NESTING, MAX_OPERANDS
from fpmfp.lattice import (
    INF, BitvectorAnalysis, IntervalAnalysis, make_analysis)

from conftest import (
    FIXTURES,
    fixture_program,
    fixture_text,
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
    return (st.lists(children, max_size=4)
            | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(_TEXT, children, max_size=4)
            | st.dictionaries(st.integers(), children, max_size=3))


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
    """``cli._json_text`` writes exactly what ``json.dumps`` would."""

    @staticmethod
    def expected(payload) -> str:
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @settings(max_examples=200, deadline=None)
    @given(_VALUES)
    def test_matches_json_dumps(self, payload):
        assert cli._json_text(payload) == self.expected(payload)

    @settings(max_examples=100, deadline=None)
    @given(_sharing_payloads())
    def test_shared_containers_match_json_dumps(self, payload):
        assert cli._json_text(payload) == self.expected(payload)

    def test_special_floats_and_empty_containers(self):
        payload = {"f": [float("inf"), -float("inf"), float("nan"), -0.0],
                   "e": [[], {}, ()], "t": (1, (2,)), "s": "\"\\\x01\u00e9"}
        assert cli._json_text(payload) == self.expected(payload)

    def test_rejects_what_json_rejects(self):
        with pytest.raises(TypeError):
            cli._json_text({"a": {1, 2}})
        with pytest.raises(TypeError):
            cli._json_text({(1, 2): 3})

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
            view = analysis.json_views()
            out += [view(v & analysis.full_mask) if isinstance(v, int)
                    else view(v) for v in values]
        return out

    def test_view_at_two_depths(self):
        for view in self.views():
            payload = {"a": view, "b": [{"c": view}, view], "d": [[[view]]]}
            assert cli._json_text(payload) == self.expected(payload)

    def test_view_inside_a_repeated_plain_container(self):
        for view in self.views():
            shared = {"x": [view, 1], "y": view, "z": True}
            payload = [shared, {"w": shared}, shared, [view]]
            assert cli._json_text(payload) == self.expected(payload)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_views_mixed_into_plain_payloads(self, data):
        leaves = _SCALARS | st.sampled_from(self.views())
        payload = data.draw(st.recursive(leaves, _containers,
                                         max_leaves=25))
        assert cli._json_text(payload) == self.expected(payload)


class TestReportPayloads:
    """Every JSON report's bytes equal ``json.dumps`` of its payload."""

    @pytest.fixture(scope="class")
    def program(self, tmp_path_factory) -> str:
        path = tmp_path_factory.mktemp("perf") / "perf.mir"
        path.write_text(perf_program(50, 200), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("argv", [
        ("analyze", "--mode", "mfp"), ("analyze", "--mode", "fpmfp"),
        ("compare", "--no-timing"),
    ], ids=" ".join)
    @pytest.mark.parametrize("flag", ["rd", "uninit", "interval"])
    def test_full_report(self, capsys, monkeypatch, program, argv, flag):
        written = []
        write = cli._json_text

        def spy(payload):
            text = write(payload)
            written.append((payload, text))
            return text

        monkeypatch.setattr(cli, "_json_text", spy)
        code, out, _ = run(capsys, *argv, "--analysis", flag,
                           "--program", program)
        assert code == 0
        [(payload, text)] = written
        assert out == text
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"


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

    def test_main_leaves_the_collector_alone(self, capsys):
        before = gc.get_freeze_count()
        code, _, _ = run(capsys, "analyze", "--program", fix("fig2"),
                         "--analysis", "interval", "--mode", "fpmfp")
        assert code == 0
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("exit_code", [0, 3])
    def test_run_freezes_then_exits(self, monkeypatch, exit_code):
        def fake_main():
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
        finally:
            gc.unfreeze()


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
        def fail(cfg, **kwargs):
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
        def fail(cfg, **kwargs):
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
    ], ids=["unresolved-call", "unreachable-statement"])
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

        monkeypatch.setattr(cli.os, "replace", refuse)
        dest = tmp_path / "report.json"
        err = self.fails_cleanly(capsys, tmp_path, "detect-mips",
                                 "--program", fix("fig2"),
                                 "--output", str(dest))
        assert err == (f"fpmfp: error: cannot write {dest}: "
                       f"Permission denied\n")
        assert not dest.exists()

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
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
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
        return cli._check_program(("fig7", fixture_text("fig7"), None, 2))

    def test_oracle_check_builds_one_call_graph_and_one_tree_per_procedure(
            self, call_graphs, walks):
        assert self.check_fig7() == []
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
            for v in self.check_fig7():
                if v["property"] == "fold-bounded-by-path-meets":
                    out.setdefault(v["analysis"], set()).add(v["location"])
            return out

        everywhere = reached()
        walks["explode"] = ("q",)
        without_q = reached()
        assert walks["built"] == 2 * ["p", "q"]
        assert walks["evaluated"] == 3 * ["p"] + 3 * ["q"] + 3 * ["p"]
        in_q = {f"n{nid}" for nid in fixture_program("fig7").by_name["q"]
                .cfg.nodes}
        assert set(everywhere) == set(cli._SUITE_ANALYSES)
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
        assert [(v["analysis"], v["property"]) for v in self.check_fig7()] \
            == [(name, "termination") for name in cli._SUITE_ANALYSES]
        assert walks["built"] == []

    def test_oracle_check_builds_one_cfg_plan_per_procedure(
            self, monkeypatch):
        # Every round, summary fixpoint and solve of the nine solves reads
        # the plan its procedure's CFG built on first use.
        built = []
        real = frontend.CfgPlan

        def counted(heap, outs):
            built.append(sorted(outs))
            return real(heap, outs)

        monkeypatch.setattr(frontend, "CfgPlan", counted)
        source = perfbench_workloads().call_chain(1, 40).source
        assert cli._check_program(("chain", source, None, 2)) == []
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
        return {edge.id for edge in cfg.in_edges(cfg.exit)}

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
    """Each subcommand loads only the layers it runs.

    Every case runs ``cli.main`` in a fresh interpreter and lists the
    ``fpmfp`` modules, and which of the slow-to-import standard modules
    in ``HEAVY``, are loaded after it returns.
    """

    HEAVY = ["concurrent.futures", "dataclasses", "inspect", "logging"]
    SCRIPT = (
        "import json, sys\n"
        "from fpmfp import cli\n"
        "try:\n"
        "    code = cli.main(sys.argv[2:])\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(json.dumps([code, sorted(\n"
        "    name.split('.', 1)[1] for name in sys.modules\n"
        "    if name.startswith('fpmfp.')),\n"
        "    [name for name in json.loads(sys.argv[1])\n"
        "     if name in sys.modules]]))\n"
    )
    PACKAGE = Path(fpmfp.__file__).resolve().parent
    FRONT = ["cli", "frontend", "mips"]
    SOLVE = sorted(FRONT + ["lattice", "lifted", "mfp"])
    # Everything but the clients: a new module must be placed here.
    ORACLE = sorted({path.stem for path in PACKAGE.glob("*.py")}
                    - {"__init__", "clients"})

    def loaded(self, tmp_path, *argv: str) -> tuple[list[str], list[str]]:
        """The fpmfp modules and the ``HEAVY`` modules loaded."""
        env = dict(os.environ, PYTHONPATH=str(self.PACKAGE.parent))
        child = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, json.dumps(self.HEAVY),
             *argv], capture_output=True, text=True, env=env, cwd=tmp_path,
            timeout=120)
        code, modules, heavy = json.loads(child.stdout.splitlines()[-1])
        assert code in (0, None), child.stderr
        return modules, heavy

    @pytest.mark.parametrize("argv, expected", [
        (("--help",), ["cli"]),
        (("detect-mips",), FRONT),
        (("dump-dot",), ["cli", "frontend"]),
        (("analyze", "--analysis", "rd", "--mode", "mfp"), SOLVE),
        (("analyze", "--analysis", "interval", "--mode", "fpmfp"), SOLVE),
        (("compare", "--analysis", "uninit"), sorted(SOLVE + ["clients"])),
    ], ids=lambda v: "-".join(v) if isinstance(v, tuple) else None)
    def test_program_commands(self, tmp_path, argv, expected):
        if argv != ("--help",):
            argv += ("--program", fix("fig2"), "--output", "report")
        assert self.loaded(tmp_path, *argv) == (expected, [])

    def test_oracle_check(self, tmp_path):
        assert "progen" in self.ORACLE
        (tmp_path / "fig2.mir").write_text(fixture_text("fig2"))
        assert self.loaded(tmp_path, "oracle-check", "--fixtures", ".",
                           "--random", "1", "--output", "report") == (
            self.ORACLE, [])

    def test_only_jobs_load_the_process_pool(self, tmp_path):
        """The pool, and the logging it imports, load only when two
        programs can be checked on two CPUs."""
        for name in ("fig2", "fig3"):
            (tmp_path / f"{name}.mir").write_text(fixture_text(name))
        modules, heavy = self.loaded(
            tmp_path, "oracle-check", "--fixtures", ".", "--jobs", "2",
            "--output", "report")
        assert ("concurrent.futures" in heavy) == ((os.cpu_count() or 1) > 1)
        assert "progen" not in modules


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
