"""Client report tests: def-use pairs, uninit alarms, mode comparison."""
from __future__ import annotations

import pytest

from fpmfp.clients import (
    Alarm,
    DefUse,
    DefUseReport,
    PrecisionViolation,
    UninitReport,
    compare_modes,
    def_use_pairs,
    def_use_report,
    uninit_alarms,
    uninit_report,
)
from fpmfp.frontend import parse_program
from fpmfp.lattice import make_analysis
from fpmfp.lifted import solve_fpmfp_interprocedural
from fpmfp.mfp import solve_mfp
from fpmfp.mips import MipsUniverse, detect_mips
from fpmfp.render import client_table, comparison_table

from conftest import fixture_program


def both_modes(name: str, analysis_name: str):
    program = fixture_program(name)
    analysis = make_analysis(analysis_name, program)
    flat = solve_mfp(program, analysis)
    universe = detect_mips(program)
    lifted = solve_fpmfp_interprocedural(program, analysis, universe)
    return program, flat, lifted


class TestDefUsePairs:
    def test_infeasible_pair_removed(self):
        program, flat, lifted = both_modes("sphinx_like", "rd")
        report = def_use_report(program, flat, lifted)
        assert report.totals == {"mfp": 6, "fpmfp": 5}
        assert report.removed == (DefUse(4, 6, "x"),)
        assert report.reduction == pytest.approx(100.0 / 6)

    def test_pairs_listing_is_deterministic(self):
        program, flat, lifted = both_modes("sphinx_like", "rd")
        assert def_use_pairs(program, flat) == (
            DefUse(2, 3, "c"),
            DefUse(2, 5, "c"),
            DefUse(1, 6, "x"),
            DefUse(4, 6, "x"),
            DefUse(1, 7, "x"),
            DefUse(4, 7, "x"),
        )

    def test_straight_line_single_pair(self):
        program = parse_program("proc main() { x = 1; print x; }")
        analysis = make_analysis("rd", program)
        flat = solve_mfp(program, analysis)
        lifted = solve_fpmfp_interprocedural(
            program, analysis, detect_mips(program))
        report = def_use_report(program, flat, lifted)
        assert report.mfp == report.fpmfp == (DefUse(1, 2, "x"),)
        assert report.reduction == 0.0

    def test_use_with_no_reaching_def(self):
        # z is never defined: no pair anywhere, but the uninit report
        # carries the alarm in both modes.
        program, flat, lifted = both_modes("stripcc_like", "rd")
        pairs = def_use_pairs(program, flat)
        assert all(p.var != "z" for p in pairs)
        program, flat, lifted = both_modes("stripcc_like", "must-defined")
        alarms = uninit_report(program, flat, lifted)
        assert Alarm(6, "z") in alarms.mfp
        assert Alarm(6, "z") in alarms.fpmfp

    def test_wrong_analysis_is_rejected(self):
        program, flat, _ = both_modes("sphinx_like", "must-defined")
        with pytest.raises(ValueError, match="rd"):
            def_use_pairs(program, flat)

    def test_json_shape(self):
        program, flat, lifted = both_modes("sphinx_like", "rd")
        payload = def_use_report(program, flat, lifted).to_json()
        assert payload["totals"] == {"mfp": 6, "fpmfp": 5}
        assert payload["removed"] == [[4, 6, "x"]]
        assert payload["reduction_percent"] == 16.67


class TestUninitAlarms:
    def test_correlated_alarm_fully_removed(self):
        program, flat, lifted = both_modes("nlkain_like", "must-defined")
        report = uninit_report(program, flat, lifted)
        assert report.mfp == (Alarm(6, "x"),)
        assert report.fpmfp == ()
        assert report.reduction == 100.0

    def test_genuine_alarm_survives(self):
        program, flat, lifted = both_modes("stripcc_like", "must-defined")
        report = uninit_report(program, flat, lifted)
        assert report.mfp == (Alarm(5, "y"), Alarm(6, "z"))
        assert report.fpmfp == (Alarm(6, "z"),)
        assert report.removed == (Alarm(5, "y"),)
        assert report.reduction == 50.0

    def test_fully_initialized_program(self):
        program, flat, lifted = both_modes("straight", "must-defined")
        report = uninit_report(program, flat, lifted)
        assert report.mfp == report.fpmfp == ()
        assert report.reduction is None
        assert report.to_json()["reduction_percent"] is None
        assert "reduction=-" in client_table(report)

    def test_wrong_analysis_is_rejected(self):
        program, flat, _ = both_modes("nlkain_like", "rd")
        with pytest.raises(ValueError, match="must-defined"):
            uninit_alarms(program, flat)


class TestReportInvariants:
    def test_extra_fpmfp_pair_is_a_violation(self):
        with pytest.raises(PrecisionViolation):
            DefUseReport(mfp=(), fpmfp=(DefUse(1, 2, "x"),))

    def test_extra_fpmfp_alarm_is_a_violation(self):
        with pytest.raises(PrecisionViolation):
            UninitReport(mfp=(), fpmfp=(Alarm(2, "x"),))

    @pytest.mark.parametrize("name", [
        "fig2", "fig4", "sphinx_like", "nlkain_like", "stripcc_like",
    ])
    def test_subset_invariants_on_fixtures(self, name):
        program, flat, lifted = both_modes(name, "rd")
        report = def_use_report(program, flat, lifted)
        assert set(report.fpmfp) <= set(report.mfp)
        program, flat, lifted = both_modes(name, "must-defined")
        alarms = uninit_report(program, flat, lifted)
        assert set(alarms.fpmfp) <= set(alarms.mfp)


def compare(name: str, analysis_name: str):
    program = fixture_program(name)
    return compare_modes(program, make_analysis(analysis_name, program))


class TestCompareModes:
    def test_diamond_strict_at_the_join_use(self):
        report = compare("fig2", "interval")
        assert 6 in report.strict_nodes
        assert report.node_rows[6].mfp == {"a": (0, 5), "x": (5, 5)}
        assert report.node_rows[6].fpmfp == {"a": (5, 5), "x": (5, 5)}

    def test_double_switch_strict_edges(self):
        report = compare("fig4", "interval")
        # The assert arms are strictly sharper; their fall-through edges
        # (6, 9) inherit the improvement, every other edge is unchanged.
        assert report.strict_edges == (5, 6, 8, 9)
        assert report.edge_rows[5].fpmfp["l"] == (2, 2)
        assert report.edge_rows[8].fpmfp["l"] == (2, 2)
        assert not report.edge_rows[4].strict
        assert not report.edge_rows[7].strict

    def test_segment_free_program_identical(self):
        report = compare("call_a", "interval")
        assert report.segment_count == 0
        assert report.strict_nodes == ()
        assert report.strict_edges == ()

    def test_given_universe_is_solved_over(self):
        program = fixture_program("fig2")
        analysis = make_analysis("rd", program)
        detected = compare_modes(program, analysis)
        given = compare_modes(program, analysis,
                              universe=detect_mips(program))
        assert given.node_rows == detected.node_rows
        empty = compare_modes(program, analysis,
                              universe=MipsUniverse(program, []))
        assert empty.segment_count == 0
        assert empty.strict_nodes == empty.strict_edges == ()

    def test_times_and_stats_are_populated(self):
        report = compare("fig8", "interval")
        assert report.times["mfp"] >= 0.0
        assert report.times["fpmfp"] >= 0.0
        assert report.stats.max_pairs >= 2
        assert report.stats.blocked > 0

    def test_json_is_timing_free_on_request(self):
        report = compare("fig2", "interval")
        assert "times" in report.to_json()
        assert "times" not in report.to_json(timing=False)

    def test_table_marks_strict_rows(self):
        report = compare("fig2", "interval")
        assert "n6 *" in comparison_table(report)

    def test_refinement_check_rejects_bad_values(self):
        from fpmfp.clients import _mode_rows
        program = fixture_program("fig2")
        analysis = make_analysis("interval", program)
        with pytest.raises(PrecisionViolation):
            _mode_rows(
                analysis,
                {1: {"a": (0, 5)}},
                {1: {"a": (9, 9)}},
                "node")
