"""Tests for the path-tree meets oracle and the concrete executor."""

import pytest

from fpmfp.frontend import parse_program
from fpmfp.lattice import INF, make_analysis
from fpmfp.mfp import solve_mfp
from fpmfp.mips import detect_mips
from fpmfp.oracle import (
    Explosion,
    Trace,
    _advance,
    contains_segment,
    execute_all,
    mips_free_meets,
    solution_semantics,
)

ALL_FIXTURES = [
    "fig2", "fig3", "fig4", "fig7", "fig8", "fig10", "fig11", "fig12",
    "nlkain_like", "stripcc_like", "sphinx_like", "summary_block",
    "loop", "straight", "call_a", "call_b",
]


def oracle_for(program, analysis_name, proc_name=None, **kwargs):
    universe = detect_mips(program)
    analysis = make_analysis(analysis_name, program)
    solution = solve_mfp(program, analysis)
    proc = program.procedures[0] if proc_name is None \
        else program.by_name[proc_name]
    node_transfer, refine = solution_semantics(solution, proc)
    meets = mips_free_meets(
        proc.cfg, universe, proc.name,
        boundary=solution.boundaries[proc.name],
        top=analysis.top(),
        meet=analysis.meet,
        node_transfer=node_transfer,
        refine=refine,
        **kwargs,
    )
    return meets, solution, analysis


# ---------------------------------------------------------------------------
# Segment automaton
# ---------------------------------------------------------------------------

class TestAdvance:
    def segment(self, load_program, name="fig12"):
        return detect_mips(load_program(name)).all[0]

    def test_walks_to_completion(self, load_program):
        seg = self.segment(load_program)  # edges (3, 6, 7, 8)
        progress = (0,)
        for eid in seg.edges[:-1]:
            progress = _advance((seg,), progress, eid)
        assert progress == (3,)
        assert _advance((seg,), progress, seg.edges[-1]) is None

    def test_restart_at_start_edge(self, load_program):
        seg = self.segment(load_program)
        progress = _advance((seg,), (2,), seg.edges[0])
        assert progress == (1,)

    def test_mismatch_resets(self, load_program):
        seg = self.segment(load_program)
        assert _advance((seg,), (2,), 99) == (0,)
        assert _advance((seg,), (0,), seg.edges[1]) == (0,)


# ---------------------------------------------------------------------------
# Path-tree meets
# ---------------------------------------------------------------------------

class TestMeets:
    def test_fig2_feasible_only_value(self, load_program):
        meets, _, _ = oracle_for(load_program("fig2"), "interval")
        assert meets.node_in[6] == {"x": (5, 5), "a": (5, 5)}
        assert meets.edge_values[3] == {"x": (-INF, -1), "a": (0, 0)}
        assert not meets.truncated

    def test_fig3_arm_meets(self, load_program):
        meets, _, _ = oracle_for(load_program("fig3"), "interval")
        assert meets.edge_values[3] == {"z": (-INF, 0), "a": (0, 0)}
        assert meets.edge_values[4] == {"z": (1, INF)}

    def test_fig8_arm_meets(self, load_program):
        meets, _, _ = oracle_for(load_program("fig8"), "interval")
        assert meets.edge_values[7] == {"b": (-INF, INF), "z": (0, 2)}
        assert meets.edge_values[9] == {"b": (-INF, 0), "z": (1, 1)}

    def test_fig2_keys_group_by_tracked_segments(self, load_program):
        meets, _, _ = oracle_for(
            load_program("fig2"), "interval", collect_keys=True)
        at_e5 = {key[1]: v for key, v in meets.keyed.items() if key[0] == 5}
        assert at_e5 == {
            frozenset(): {"x": (0, INF), "a": (5, 5)},
            frozenset({1}): {"x": (-INF, -1), "a": (0, 0)},
        }

    def test_fig8_keys_at_join(self, load_program):
        meets, _, _ = oracle_for(
            load_program("fig8"), "interval", collect_keys=True)
        at_e7 = {key[1]: v for key, v in meets.keyed.items() if key[0] == 7}
        assert at_e7 == {
            frozenset(): {"b": (-INF, INF), "z": (1, 1)},
            frozenset({1}): {"b": (1, 1), "z": (0, 0)},
            frozenset({2}): {"b": (2, 2), "z": (2, 2)},
        }

    def test_keys_off_by_default(self, load_program):
        meets, _, _ = oracle_for(load_program("fig2"), "interval")
        assert meets.keyed == {}

    def test_loop_is_truncated_but_sound(self, load_program):
        meets, solution, analysis = oracle_for(load_program("loop"),
                                               "interval")
        assert meets.truncated
        assert meets.node_in[2] == {"x": (0, 2)}  # two bounded iterations
        for nid, oracle_val in meets.node_in.items():
            assert analysis.leq(solution.node_in[nid], oracle_val)

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    @pytest.mark.parametrize("analysis_name",
                             ["interval", "rd", "must-defined"])
    def test_mfp_below_oracle_everywhere(self, load_program, name,
                                         analysis_name):
        program = load_program(name)
        for proc in program.procedures:
            meets, solution, analysis = oracle_for(
                program, analysis_name, proc.name)
            for nid, oracle_val in meets.node_in.items():
                assert analysis.leq(solution.node_in[nid], oracle_val), \
                    f"node n{nid} of {proc.name}"
            for eid, oracle_val in meets.edge_values.items():
                assert analysis.leq(solution.edge_values[eid], oracle_val), \
                    f"edge e{eid} of {proc.name}"

    @pytest.mark.parametrize("name", ["straight", "call_a", "call_b"])
    @pytest.mark.parametrize("analysis_name", ["rd", "must-defined"])
    def test_exact_on_acyclic_segment_free(self, load_program, name,
                                           analysis_name):
        program = load_program(name)
        for proc in program.procedures:
            meets, solution, _ = oracle_for(program, analysis_name,
                                            proc.name)
            for nid, oracle_val in meets.node_in.items():
                assert solution.node_in[nid] == oracle_val

    def test_explosion_guard(self, load_program):
        with pytest.raises(Explosion):
            oracle_for(load_program("fig12"), "rd", limit=3)


# ---------------------------------------------------------------------------
# Concrete executor
# ---------------------------------------------------------------------------

class TestExecutor:
    def test_run_counts(self, load_program):
        expected = {"fig2": 7, "fig3": 25, "fig7": 1, "fig12": 49,
                    "loop": 1, "straight": 1, "stripcc_like": 49}
        for name, count in expected.items():
            assert len(execute_all(load_program(name))) == count, name

    def test_loop_runs_to_completion(self, load_program):
        (run,) = execute_all(load_program("loop"))
        (trace,) = run
        assert trace == Trace(
            "main", (1,) + (2, 4) * 10 + (3, 5))

    def test_call_produces_callee_trace_first(self, load_program):
        (run,) = execute_all(load_program("fig7"))
        assert [(t.proc, t.edges) for t in run] == [
            ("q", (8, 9)),
            ("p", (1, 2, 3, 4, 6)),
        ]

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_no_trace_contains_a_segment(self, load_program, name):
        program = load_program(name)
        universe = detect_mips(program)
        if not len(universe):
            return
        runs = execute_all(program)
        for m in universe.all:
            for run in runs:
                for trace in run:
                    if trace.proc != m.proc:
                        continue
                    assert not contains_segment(trace.edges, m.edges), \
                        f"{name}: segment {m.edges} in {trace.edges}"

    def test_assert_false_truncates_run(self):
        program = parse_program("""
            proc main() { x = 1; assert (x == 0); print x; }
        """)
        (run,) = execute_all(program)
        (trace,) = run
        # Only the edge out of the assignment was taken.
        assert len(trace.edges) == 1

    def test_assert_true_continues(self):
        program = parse_program("""
            proc main() { x = 1; assert (x == 1); print x; }
        """)
        (run,) = execute_all(program)
        (trace,) = run
        assert len(trace.edges) == 3

    def test_read_forks_box(self):
        program = parse_program("""
            proc main() { read x; print x; }
        """)
        runs = execute_all(program, lo=-1, hi=1)
        assert len(runs) == 3

    def test_choices_memoized_within_run(self):
        program = parse_program("""
            proc main(x) {
                if (x > 0) { y = 1; } else { y = 2; }
                if (x > 0) { z = y; } else { z = y; }
                print z;
            }
        """)
        # One choice for x; correlated branches agree within each run.
        runs = execute_all(program, lo=-1, hi=1)
        assert len(runs) == 3
        cfg = program.procedures[0].cfg
        for run in runs:
            (trace,) = run
            arms = [cfg.edges[e] for e in trace.edges
                    if cfg.edges[e].label.kind.value in ("true", "false")]
            kinds = {a.label.kind.value for a in arms}
            assert len(kinds) == 1  # both branches took the same side

    def test_run_limit_explosion(self, load_program):
        with pytest.raises(Explosion):
            execute_all(load_program("fig12"), run_limit=5)

    def test_globals_shared_across_frames(self, load_program):
        # call_a's callee writes the global the caller then prints.
        program = load_program("call_a")
        runs = execute_all(program)
        assert runs  # completes without stuck frames


class TestContainsSegment:
    def test_contiguous_only(self):
        assert contains_segment((1, 2, 3, 4), (2, 3))
        assert not contains_segment((1, 2, 9, 3), (2, 3))
        assert not contains_segment((2,), (2, 3))
        assert contains_segment((5, 2, 3), (2, 3))

    def test_whole_trace(self):
        assert contains_segment((1, 2), (1, 2))
