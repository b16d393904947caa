"""Command-line tests: flags, exit codes, golden outputs, determinism."""
from __future__ import annotations

import contextlib
import io
import json
import logging
import os
import re
import stat
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpmfp import cli, clients, lifted, progen
from fpmfp.cli import main

from conftest import FIXTURES

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
        def fail(flow, edge, source, value):
            raise error("solver gave up")

        monkeypatch.setattr(lifted._Flow, "edge_flow", fail)
        code, out, err = run(capsys, *command, "--program", fix("fig2"),
                             "--analysis", "rd")
        assert code == 1
        assert out == ""
        assert err == "fpmfp: error: solver gave up\n"

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

        for module in (clients, cli):
            for name in ("detect_mips", "solve_mfp",
                         "solve_fpmfp_interprocedural"):
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

    def test_requires_some_input(self, capsys):
        code, _, err = run(capsys, "oracle-check")
        assert code == 64
        assert "--fixtures" in err

    def test_missing_directory(self, capsys):
        code, _, err = run(capsys, "oracle-check", "--fixtures",
                           "/no/such/dir")
        assert code == 1

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


class TestLogging:
    def test_info_level_logs_progress(self, capsys, monkeypatch, caplog):
        monkeypatch.setenv("FPMFP_LOG", "info")
        with caplog.at_level(logging.INFO, logger="fpmfp"):
            code, _, _ = run(capsys, "detect-mips", "--program",
                             fix("fig2"))
        assert code == 0
        assert any("segment" in rec.message for rec in caplog.records)

    def test_default_level_is_quiet(self, capsys, caplog):
        with caplog.at_level(logging.INFO, logger="fpmfp"):
            run(capsys, "detect-mips", "--program", fix("fig2"))
        # Level resets to "error" when the variable is unset.
        assert all(rec.levelno >= logging.ERROR for rec in caplog.records)
