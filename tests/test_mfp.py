"""MFP solver tests: frozen fixture values, summaries, fixpoint invariants."""
from __future__ import annotations

import pytest

from fpmfp import interval
from fpmfp.frontend import StKind, build_call_graph, parse_program
from fpmfp.lattice import make_analysis
from fpmfp.lifted import NonTermination
from fpmfp.mfp import compute_summaries, solve_mfp
from fpmfp.mips import INF

from conftest import fixture_program


def solved(name: str, analysis_name: str):
    program = fixture_program(name)
    analysis = make_analysis(analysis_name, program)
    return analysis, solve_mfp(program, analysis)


class TestIntervalFixtures:
    def test_two_diamonds_join_loses_correlation(self):
        an, sol = solved("fig2.mir", "interval")
        assert sol.folded_in[6] == {"a": (0, 5), "x": (5, 5)}
        assert sol.folded_edges[3] == {"a": (0, 0), "x": (-INF, -1)}
        assert sol.folded_edges[5]["a"] == (0, 5)
        assert sol.folded_edges[8]["a"] == (0, 5)

    def test_branch_refinement_both_arms(self):
        an, sol = solved("fig3.mir", "interval")
        assert sol.folded_edges[3] == {"a": (0, 0), "z": (-INF, 0)}
        assert sol.folded_edges[4] == {"z": (1, INF)}

    def test_double_switch(self):
        an, sol = solved("fig4.mir", "interval")
        assert sol.folded_edges[4]["l"] == (0, 0)
        assert sol.folded_edges[5]["l"] == (0, 2)
        assert sol.folded_edges[7]["l"] == (0, 2)
        assert sol.folded_edges[8]["l"] == (0, 2)
        assert sol.folded_edges[5]["c"] == (1, 1)

    def test_call_substitutes_callee_exit(self):
        an, sol = solved("fig7.mir", "interval")
        assert sol.folded_edges[3]["l"] == (2, 2)
        assert sol.folded_edges[4]["l"] == (0, 0)  # q sets l = 0
        assert sol.folded_edges[8]["l"] == (2, 2)  # q entered with l = 2
        assert sol.folded_edges[9]["l"] == (0, 0)

    def test_loop_widens_then_refines_exit(self):
        an, sol = solved("loop.mir", "interval")
        assert sol.folded_in[2] == {"x": (0, INF)}
        assert sol.folded_in[4] == {"x": (10, INF)}

    def test_unassigned_condition_variable_is_nondeterministic(self):
        an, sol = solved("fig12.mir", "interval")
        # t never appears: both arms stay reachable with full information.
        assert sol.folded_edges[3] == {"a": (0, 0)}
        assert sol.folded_in[3] == {"a": (0, 0)}
        assert sol.folded_in[5] == {"a": (-INF, INF), "b": (3, 3)}

    def test_straight_line(self):
        an, sol = solved("straight.mir", "interval")
        assert sol.folded_in[3] == {"x": (1, 1), "y": (3, 3)}


class TestBitvectorFixtures:
    def test_rd_both_defs_reach_second_branch(self):
        an, sol = solved("fig2.mir", "rd")
        assert an.decode(sol.folded_in[6]) == [("a", 1), ("a", 3)]
        assert an.decode(sol.folded_edges[3]) == [("a", 1)]
        assert an.decode(sol.folded_edges[4]) == [("a", 3)]

    def test_must_defined_after_join(self):
        an, sol = solved("fig2.mir", "must-defined")
        assert an.decode(sol.folded_in[4]) == ["a", "x"]
        assert an.decode(sol.folded_in[2]) == ["a", "x"]

    def test_must_defined_partial_assignment(self):
        an, sol = solved("fig3.mir", "must-defined")
        # a is only assigned on the true arm.
        assert an.decode(sol.folded_in[4]) == ["z"]
        assert an.decode(sol.folded_edges[3]) == ["a", "z"]

    def test_rd_read_is_definition(self):
        an, sol = solved("fig12.mir", "rd")
        assert an.decode(sol.folded_in[6]) == [("a", 1), ("b", 3), ("a", 4)]


class TestSummaries:
    def test_rd_summary_includes_conditional_def(self):
        program = fixture_program("summary_block.mir")
        an = make_analysis("rd", program)
        sol = solve_mfp(program, an)
        summaries = compute_summaries(program, an, build_call_graph(program))
        assert an.decode(summaries.gsum["helper"]) == [("g", 11)]
        assert summaries.ksum["helper"] == 0
        assert an.decode(sol.folded_in[3]) == [("g", 1), ("g", 11)]

    def test_must_defined_summary_requires_all_paths(self):
        program = fixture_program("summary_block.mir")
        an = make_analysis("must-defined", program)
        sol = solve_mfp(program, an)
        summaries = compute_summaries(program, an, build_call_graph(program))
        assert summaries.gsum["helper"] == 0  # g = 5 is conditional
        assert an.decode(sol.folded_in[3]) == ["g"]

    def test_kill_requires_all_paths(self):
        program = parse_program(
            "global g;\n"
            "proc main() { g = 1; clobber(); print g; }\n"
            "proc clobber() { g = 0; }\n"
        )
        an = make_analysis("rd", program)
        sol = solve_mfp(program, an)
        summaries = compute_summaries(program, an, build_call_graph(program))
        # clobber assigns g on every path: the caller's def is killed.
        assert an.decode(summaries.ksum["clobber"]) == [("g", 1), ("g", 5)]
        assert an.decode(sol.folded_in[3]) == [("g", 5)]

    def test_recursive_summary_converges(self):
        program = parse_program(
            "global g;\n"
            "proc main() { spin(); print g; }\n"
            "proc spin() { if (g > 0) { g = g - 1; spin(); } }\n"
        )
        an = make_analysis("rd", program)
        summaries = compute_summaries(program, an, build_call_graph(program))
        gsum = an.decode(summaries.gsum["spin"])
        assert gsum == [("g", 5)]
        assert summaries.ksum["spin"] == 0  # empty body path kills nothing

    def test_extern_call_is_identity_for_sets(self):
        program = parse_program(
            "global g; extern lib;\n"
            "proc main() { g = 1; lib(); print g; }\n"
        )
        an = make_analysis("rd", program)
        sol = solve_mfp(program, an)
        assert an.decode(sol.folded_in[3]) == [("g", 1)]

    def test_extern_call_havocs_global_intervals(self):
        program = parse_program(
            "global g; extern lib;\n"
            "proc main() { g = 1; lib(); print g; }\n"
        )
        an = make_analysis("interval", program)
        sol = solve_mfp(program, an)
        assert sol.folded_in[3]["g"] == (-INF, INF)


class TestCallTwins:
    """A summarized call and its hand-inlined twin agree at aligned nodes."""

    @pytest.mark.parametrize("analysis_name", ["interval", "must-defined"])
    def test_exact_agreement(self, analysis_name):
        aa, sa = solved("call_a.mir", analysis_name)
        ab, sb = solved("call_b.mir", analysis_name)
        assert sa.folded_in[5] == sb.folded_in[5]  # print g in both

    def test_rd_agreement_modulo_def_site(self):
        ra, sa = solved("call_a.mir", "rd")
        rb, sb = solved("call_b.mir", "rd")
        at_a = {(v, "body" if n == 7 else n)
                for v, n in ra.decode(sa.folded_in[5])}
        at_b = {(v, "body" if n == 4 else n)
                for v, n in rb.decode(sb.folded_in[5])}
        assert at_a == at_b == {("g", 1), ("c", 2), ("g", "body")}


class TestCalleeBoundaries:
    def test_callee_boundary_from_call_sites(self):
        an, sol = solved("fig7.mir", "interval")
        assert sol.boundaries["q"] == {"l": (2, 2)}

    def test_unreachable_proc_gets_standalone_boundary(self):
        program = parse_program(
            "proc main() { x = 1; print x; }\n"
            "proc island(k) { print k; }\n"
        )
        an = make_analysis("interval", program)
        sol = solve_mfp(program, an)
        assert sol.boundaries["island"] == {"k": (-INF, INF)}


class TestFixpointInvariants:
    NAMES = [
        "fig2.mir", "fig3.mir", "fig4.mir", "fig7.mir", "fig8.mir",
        "fig10.mir", "fig11.mir", "fig12.mir", "loop.mir", "straight.mir",
        "summary_block.mir", "call_a.mir", "call_b.mir",
    ]

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("analysis_name", ["rd", "must-defined", "interval"])
    def test_solution_is_a_fixpoint(self, name, analysis_name, monkeypatch):
        # Keep the solver's widening state, to replay its back-edge widening.
        states = []

        class RecordedWidening(interval.WideningState):
            def __init__(self) -> None:
                super().__init__()
                states.append(self)

        monkeypatch.setattr(interval, "WideningState", RecordedWidening)
        program = fixture_program(name)
        analysis = make_analysis(analysis_name, program)
        sol = solve_mfp(program, analysis)
        node_in, edge_values = sol.folded_in, sol.folded_edges
        # Only the interval analysis widens, and only it builds a state.
        assert len(states) == (analysis.kind == "interval")
        widening = states[0] if states else None
        for proc in program.procedures:
            cfg = proc.cfg
            for nid in sorted(cfg.nodes):
                ins = cfg.into[nid]
                if not ins:
                    assert node_in[nid] == sol.boundaries[proc.name]
                    continue
                met = analysis.top()
                for e in ins:
                    met = analysis.meet(met, edge_values[e.id])
                assert node_in[nid] == met
            back = cfg.back
            for eid in sorted(cfg.edges):
                e = cfg.edges[eid]
                node = cfg.nodes[e.source]
                expect = analysis.refine(
                    e, node, sol.node_transfer(node, node_in[e.source]))
                if widening is not None and eid in back:
                    expect = widening.apply(eid, expect)
                assert edge_values[eid] == expect

    @pytest.mark.parametrize("name", NAMES)
    def test_interval_values_never_empty(self, name):
        program = fixture_program(name)
        analysis = make_analysis("interval", program)
        sol = solve_mfp(program, analysis)
        for value in [*sol.folded_in.values(), *sol.folded_edges.values()]:
            for lo, hi in value.values():
                assert lo <= hi


class TestNonTermination:
    def test_unbounded_loop_without_widening(self, monkeypatch):
        monkeypatch.setattr(interval, "WIDEN_THRESHOLD", INF)
        program = parse_program(
            "proc main() { x = 0; while (x >= 0) { x = x + 1; } print x; }"
        )
        analysis = make_analysis("interval", program)
        with pytest.raises(NonTermination):
            solve_mfp(program, analysis)

    def test_same_loop_terminates_with_widening(self):
        program = parse_program(
            "proc main() { x = 0; while (x >= 0) { x = x + 1; } print x; }"
        )
        analysis = make_analysis("interval", program)
        sol = solve_mfp(program, analysis)
        assert sol.folded_in[2]["x"] == (0, INF)

    def test_bounded_loop_without_widening_is_exact(self, monkeypatch):
        monkeypatch.setattr(interval, "WIDEN_THRESHOLD", INF)
        program = fixture_program("loop.mir")
        analysis = make_analysis("interval", program)
        sol = solve_mfp(program, analysis)
        assert sol.folded_in[2] == {"x": (0, 10)}
        assert sol.folded_in[4] == {"x": (10, 10)}


class TestSteps:
    # Worklist pops per fixture for (rd, must-defined, interval).
    STEPS = {
        "call_a": (8, 8, 14),
        "call_b": (6, 6, 6),
        "fig10": (8, 8, 8),
        "fig11": (8, 8, 8),
        "fig12": (9, 9, 9),
        "fig2": (7, 7, 7),
        "fig3": (7, 7, 7),
        "fig4": (7, 7, 7),
        "fig7": (10, 10, 17),
        "fig8": (8, 8, 8),
        "loop": (9, 5, 17),
        "nlkain_like": (7, 7, 7),
        "sphinx_like": (8, 8, 8),
        "straight": (4, 4, 4),
        "stripcc_like": (7, 7, 7),
        "summary_block": (12, 12, 16),
    }

    @pytest.mark.parametrize("name", sorted(STEPS))
    @pytest.mark.parametrize("index,analysis_name",
                             enumerate(["rd", "must-defined", "interval"]))
    def test_steps_are_pinned(self, name, index, analysis_name):
        _, sol = solved(f"{name}.mir", analysis_name)
        assert sol.steps == self.STEPS[name][index]
