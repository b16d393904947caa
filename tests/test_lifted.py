"""Lifted solver tests: pair flows, merge rules, frozen fixture solutions."""
from __future__ import annotations

import pytest

from fpmfp import lifted, progen
from fpmfp.frontend import StKind, build_call_graph, parse_program
from fpmfp.lattice import INF, make_analysis
from fpmfp.lifted import (
    ALL_OPTS,
    EMPTY_KEY,
    NonTermination,
    PairStats,
    Summaries,
    _Flow,
    _summary_exit,
    compute_lifted_summaries,
    fold,
    solve_fpmfp_interprocedural,
    transfer_preserves_top,
)
from fpmfp.mfp import compute_summaries, solve_mfp
from fpmfp.mips import MipsUniverse, detect_mips
from fpmfp.oracle import Explosion, mips_free_meets, solution_semantics

from conftest import fixture_program

FIXTURE_NAMES = (
    "fig2", "fig3", "fig4", "fig7", "fig8", "fig10", "fig11", "fig12",
    "loop", "straight", "call_a", "call_b", "summary_block",
    "nlkain_like", "stripcc_like", "sphinx_like",
)
ANALYSES = ("rd", "must-defined", "interval")

# Two overlapping segments sharing a proper suffix: the shorter one ends at
# the c-test's true arm, the longer one continues into the nested d-test.
# Both arms of the first branch define {c, d, l}, so the tracked pairs carry
# equal values and exercise the duplicate-value shift.
NESTED_SRC = """
proc f(d) {
  l = 0;
  if (d == 2) { c = 2; read d; } else { read c; }
  print l;
  if (c == 0) { if (d == 2) { print l; } }
}
"""


def solved(name: str, analysis_name: str, opts: frozenset[int] = ALL_OPTS):
    program = fixture_program(name)
    analysis = make_analysis(analysis_name, program)
    universe = detect_mips(program)
    sol = solve_fpmfp_interprocedural(program, analysis, universe, opts)
    return analysis, universe, sol


def edge_flow(universe: MipsUniverse, analysis, edge_id: int, value,
              opts: frozenset[int] = ALL_OPTS, stats: PairStats | None = None):
    """One edge flow through the solver's engine, for one procedure."""
    program = universe.program
    proc = next(p for p in program.procedures if edge_id in p.cfg.edges)
    edge = proc.cfg.edges[edge_id]
    flow = _Flow(universe, proc.name, meet=analysis.meet, top=analysis.top(),
                 refine=analysis.refine, opts=opts, drop_top=False,
                 stats=stats)
    return flow.cross(edge, edge_id, universe.crossing(edge_id),
                      proc.cfg.nodes[edge.source], value)


def keyed(sol, edge_id: int) -> dict[tuple[int, ...], object]:
    """Edge pairs re-keyed by sorted tuples for readable assertions."""
    return {tuple(sorted(k)): v for k, v in sol.edge_values[edge_id].items()}


class TestLiftedOps:
    def test_fold_of_empty_map_is_top(self):
        program = fixture_program("fig2")
        interval = make_analysis("interval", program)
        rd = make_analysis("rd", program)
        must = make_analysis("must-defined", program)
        assert fold({}, interval) == interval.top() == {}
        assert fold({}, rd) == rd.top() == 0
        assert fold({}, must) == must.top()

    def test_fold_meets_all_stored_values(self):
        program = fixture_program("fig2")
        an = make_analysis("interval", program)
        value = {
            EMPTY_KEY: {"a": (5, 5)},
            frozenset({1}): {"a": (0, 0)},
        }
        assert fold(value, an) == {"a": (0, 5)}

    def test_fold_of_one_pair_is_its_value(self):
        program = fixture_program("fig2")
        an = make_analysis("interval", program)
        value = {"a": (5, 5)}
        assert fold({frozenset({1}): value}, an) is value


class TestEdgeFlowUnit:
    def test_blocking_drops_the_completing_pair(self):
        # At the end edge of fig2's segment, the tracked pair dies and only
        # the untracked one flows through the a == 5 arm.
        program = fixture_program("fig2")
        an = make_analysis("interval", program)
        universe = detect_mips(program)
        stats = PairStats()
        value = {
            EMPTY_KEY: {"a": (5, 5)},
            frozenset({1}): {"a": (0, 0)},
        }
        out = edge_flow(universe, an, 6, value, stats=stats)
        assert out == {EMPTY_KEY: {"a": (5, 5)}}
        assert stats.blocked == 1

    def test_start_edge_creates_the_tracked_key(self):
        program = fixture_program("fig2")
        an = make_analysis("interval", program)
        universe = detect_mips(program)
        out = edge_flow(universe, an, 3, {EMPTY_KEY: {"a": (0, 0)}})
        assert set(out) == {frozenset({1})}

    def test_leaving_the_route_clears_the_tracking(self):
        # fig11's first segment covers edges (4, 6, 7); edge 8 is not on its
        # route, so a pair tracking it maps back to the empty key there.
        program = fixture_program("fig11")
        an = make_analysis("must-defined", program)
        universe = detect_mips(program)
        out = edge_flow(universe, an, 8, {frozenset({1}): 3}, frozenset())
        assert out == {EMPTY_KEY: 3}

    def test_stats_track_pair_counts_per_edge(self):
        an, universe, sol = solved("fig8", "interval")
        assert sol.stats.per_edge_max[7] == 2
        assert sol.stats.max_pairs >= 2


class TestEndMergeOpt:
    def test_equal_end_sets_merge_into_one_pair(self):
        # fig8's two segments both end at edge 9, so their pairs merge at
        # edge 7 into a single pair keyed by the union.
        an, universe, sol = solved("fig8", "interval", frozenset({1}))
        assert keyed(sol, 7) == {
            (): {"b": (-INF, INF), "z": (1, 1)},
            (1, 2): {"b": (1, 2), "z": (0, 2)},
        }
        assert keyed(sol, 9) == {(): {"b": (-INF, 0), "z": (1, 1)}}

    def test_without_the_merge_both_pairs_remain(self):
        an, universe, sol = solved("fig8", "interval", frozenset())
        assert keyed(sol, 7) == {
            (): {"b": (-INF, INF), "z": (1, 1)},
            (1,): {"b": (1, 1), "z": (0, 0)},
            (2,): {"b": (2, 2), "z": (2, 2)},
        }

    def test_merge_preserves_the_edge_fold(self):
        _, _, merged = solved("fig8", "interval", frozenset({1}))
        _, _, plain = solved("fig8", "interval", frozenset())
        assert merged.folded_edges == plain.folded_edges
        assert merged.folded_in == plain.folded_in

    def test_live_pair_count_shrinks(self):
        _, _, merged = solved("fig8", "interval", frozenset({1}))
        _, _, plain = solved("fig8", "interval", frozenset())
        assert len(merged.edge_values[7]) == 2
        assert len(plain.edge_values[7]) == 3
        assert merged.stats.end_merges > 0
        assert plain.stats.end_merges == 0


class TestDuplicateShiftOpt:
    def test_shared_suffix_collapses_into_the_untracked_pair(self):
        # fig10: both segments continue through edge 7 with equal values and
        # an untracked duplicate from the default arm; merging with the empty
        # key erases the tracking entirely.
        an, universe, sol = solved("fig10", "must-defined", frozenset({2}))
        assert keyed(sol, 7) == {(): 3}
        assert sol.stats.value_shifts > 0

    def test_without_the_shift_three_copies_flow(self):
        an, universe, sol = solved("fig10", "must-defined", frozenset())
        assert keyed(sol, 7) == {(): 3, (1,): 3, (2,): 3}
        assert keyed(sol, 9) == {(): 3}

    def test_disjoint_continuations_shift_to_empty(self):
        # fig11: the segments part ways after edge 6, so neither contains the
        # other's remainder and the merged key keeps no tracking.
        an, universe, sol = solved("fig11", "must-defined", frozenset({2}))
        assert keyed(sol, 6) == {(): 3}
        assert keyed(sol, 7) == {(): 3}
        assert keyed(sol, 8) == {(): 3}

    def test_disjoint_continuations_unmerged_baseline(self):
        an, universe, sol = solved("fig11", "must-defined", frozenset())
        assert keyed(sol, 6) == {(1,): 3, (2,): 3}
        assert keyed(sol, 7) == {(): 3}
        assert keyed(sol, 8) == {(): 3}

    def test_nested_suffix_keeps_the_longer_segment(self):
        # One segment's remaining route is an initial run of the other's, so
        # the merge keeps only the longer tracking: blocking at the shared
        # exit is covered, and the longer segment still blocks later.
        program = parse_program(NESTED_SRC)
        an = make_analysis("must-defined", program)
        universe = detect_mips(program)
        assert [(m.id, m.edges) for m in universe.all] == [
            (1, (5, 7, 8)), (2, (6, 7, 8, 10)),
        ]
        plain = solve_fpmfp_interprocedural(program, an, universe, frozenset())
        shifted = solve_fpmfp_interprocedural(
            program, an, universe, frozenset({2}))
        full = an.top()
        assert {tuple(sorted(k)): v
                for k, v in plain.edge_values[7].items()} == {
            (1,): full, (2,): full,
        }
        assert {tuple(sorted(k)): v
                for k, v in shifted.edge_values[7].items()} == {(2,): full}
        # Past the shorter segment's end only the longer one survives, and
        # its own end still blocks everything.
        for sol in (plain, shifted):
            assert {tuple(sorted(k)) for k in sol.edge_values[8]} == {(2,)}
            assert sol.edge_values[10] == {}
        assert plain.folded_in == shifted.folded_in
        assert plain.folded_edges == shifted.folded_edges


class TestTopDropOpt:
    def test_gating_predicate_per_analysis(self):
        program = fixture_program("fig2")
        cfg = program.procedures[0].cfg
        for name, expected in (
                ("rd", False), ("must-defined", True), ("interval", False)):
            an = make_analysis(name, program)
            assert transfer_preserves_top(
                cfg, an.transfer, an.top()) is expected

    def test_uninformative_pairs_vanish_for_must_defined(self):
        an, universe, sol = solved("fig10", "must-defined", ALL_OPTS)
        assert all(sol.edge_values[e] == {} for e in sol.edge_values)
        # The folds are unchanged: a dropped pair held the neutral value.
        _, _, plain = solved("fig10", "must-defined", frozenset())
        assert sol.folded_in == plain.folded_in
        assert sol.folded_edges == plain.folded_edges

    def test_boundary_survives_even_at_top(self):
        # The reaching-definitions boundary is the neutral value, yet the
        # entry pair must stay: dropping is an edge normalization only.
        an, universe, sol = solved("fig2", "rd", ALL_OPTS)
        assert sol.node_in[1] == {EMPTY_KEY: 0}
        assert sol.boundaries["f"] == 0

    def test_tracked_pairs_at_neutral_values_stay_for_rd(self):
        # rd gen statements do not preserve the neutral value, so no pair is
        # ever dropped even with every normalization enabled.
        an, universe, sol = solved("fig2", "rd", ALL_OPTS)
        _, _, plain = solved("fig2", "rd", frozenset())
        assert sol.edge_values == plain.edge_values


class TestIntervalSolutions:
    def test_correlated_diamonds_regain_the_constant(self):
        an, universe, sol = solved("fig2", "interval")
        mfp = solve_mfp(fixture_program("fig2"),
                        make_analysis("interval", fixture_program("fig2")))
        assert mfp.folded_in[6] == {"a": (0, 5), "x": (5, 5)}
        assert sol.folded_in[6] == {"a": (5, 5), "x": (5, 5)}
        assert keyed(sol, 3) == {(1,): {"a": (0, 0), "x": (-INF, -1)}}
        assert keyed(sol, 5) == {
            (): {"a": (5, 5), "x": (0, INF)},
            (1,): {"a": (0, 0), "x": (-INF, -1)},
        }
        assert keyed(sol, 6) == {(): {"a": (5, 5), "x": (5, 5)}}

    def test_branch_arms_split_the_sign(self):
        an, universe, sol = solved("fig3", "interval")
        assert sol.folded_edges[3]["z"] == (-INF, 0)
        assert sol.folded_edges[4]["z"] == (1, INF)
        assert set(keyed(sol, 3)) == {(1,)}
        assert set(keyed(sol, 4)) == {()}

    def test_double_switch_blocks_the_zero_copy(self):
        an, universe, sol = solved("fig4", "interval")
        assert keyed(sol, 4) == {(1, 2): {"c": (0, 0), "l": (0, 0)}}
        assert sol.folded_edges[4]["l"] == (0, 0)
        assert sol.folded_edges[5]["l"] == (2, 2)
        assert sol.folded_edges[7]["l"] == (0, 2)
        assert sol.folded_edges[8]["l"] == (2, 2)

    def test_overlapping_segments_sharpen_the_else_arm(self):
        an, universe, sol = solved("fig8", "interval")
        assert sol.folded_edges[7]["z"] == (0, 2)
        assert sol.folded_edges[9]["z"] == (1, 1)
        assert len(sol.edge_values[7]) == 2

    def test_long_segment_blocks_only_at_its_end(self):
        an, universe, sol = solved("fig12", "interval")
        assert keyed(sol, 3) == {(1,): {"a": (0, 0)}}
        assert keyed(sol, 6) == {
            (): {"a": (-INF, INF), "b": (3, 3)},
            (1,): {"a": (0, 0)},
        }
        assert keyed(sol, 7) == {
            (): {"a": (-INF, INF), "b": (3, 3)},
            (1,): {"a": (0, 0)},
        }
        assert keyed(sol, 8) == {(): {"a": (2, INF), "b": (3, 3)}}
        mfp = solve_mfp(fixture_program("fig12"),
                        make_analysis("interval", fixture_program("fig12")))
        assert sol.folded_in[6] == mfp.folded_in[6]

    def test_loop_widening_matches_the_flat_solver(self):
        an, universe, sol = solved("loop", "interval")
        assert sol.folded_in[2] == {"x": (0, INF)}
        assert sol.folded_in[4] == {"x": (10, INF)}


class TestInterprocedural:
    def test_call_correlation_blocks_the_stale_copy(self):
        an, universe, sol = solved("fig7", "interval")
        assert sol.folded_edges[3]["l"] == (2, 2)
        assert sol.folded_edges[4]["l"] == (0, 0)
        assert sol.folded_edges[8]["l"] == (2, 2)
        assert sol.folded_edges[9]["l"] == (0, 0)
        assert set(keyed(sol, 4)) == {(1,)}
        assert keyed(sol, 4)[(1,)]["l"] == (0, 0)
        # Every pair on the segment's end edge is blocked: that arm of the
        # callee is unreachable on feasible paths.
        assert sol.edge_values[5] == {}
        assert sol.folded_in[5] == {"a": (0, 0), "l": (0, 0)}

    def test_summary_excludes_generation_on_blocked_paths(self):
        program = fixture_program("summary_block")
        an = make_analysis("rd", program)
        universe = detect_mips(program)
        flat = compute_summaries(program, an, build_call_graph(program))
        lifted = compute_lifted_summaries(program, an, universe)
        assert ("g", 11) in an.decode(flat.gsum["helper"])
        assert ("g", 11) not in an.decode(lifted.gsum["helper"])

    def test_blocked_summary_tightens_the_caller(self):
        program = fixture_program("summary_block")
        an = make_analysis("rd", program)
        mfp = solve_mfp(program, an)
        _, _, sol = solved("summary_block", "rd")
        assert an.decode(mfp.folded_in[3]) == [("g", 1), ("g", 11)]
        assert an.decode(sol.folded_in[3]) == [("g", 1)]


class TestRealCodeShapes:
    def test_uninitialized_read_alarm_goes_away(self):
        program = fixture_program("nlkain_like")
        an = make_analysis("must-defined", program)
        mfp = solve_mfp(program, an)
        _, _, sol = solved("nlkain_like", "must-defined")
        assert an.decode(mfp.folded_in[6]) == ["c"]
        assert an.decode(sol.folded_in[6]) == ["c", "x"]

    def test_one_of_two_alarms_goes_away(self):
        program = fixture_program("stripcc_like")
        an = make_analysis("must-defined", program)
        mfp = solve_mfp(program, an)
        _, _, sol = solved("stripcc_like", "must-defined")
        assert an.decode(mfp.folded_in[5]) == ["c"]
        assert an.decode(sol.folded_in[5]) == ["c", "y"]
        assert an.decode(mfp.folded_in[6]) == ["c"]
        assert an.decode(sol.folded_in[6]) == ["c"]

    def test_def_use_pair_disappears(self):
        program = fixture_program("sphinx_like")
        an = make_analysis("rd", program)
        mfp = solve_mfp(program, an)
        _, _, sol = solved("sphinx_like", "rd")
        assert an.decode(mfp.folded_in[6]) == [("x", 1), ("c", 2), ("x", 4)]
        assert an.decode(sol.folded_in[6]) == [("x", 1), ("c", 2)]


class TestSolutionInvariants:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    @pytest.mark.parametrize("analysis_name", ANALYSES)
    def test_fold_refines_the_flat_solution(self, name, analysis_name):
        program = fixture_program(name)
        an = make_analysis(analysis_name, program)
        mfp = solve_mfp(program, an)
        universe = detect_mips(program)
        sol = solve_fpmfp_interprocedural(program, an, universe)
        for nid, flat in mfp.folded_in.items():
            assert an.leq(flat, sol.folded_in[nid]), f"node {nid}"
        for eid, flat in mfp.folded_edges.items():
            assert an.leq(flat, sol.folded_edges[eid]), f"edge {eid}"

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    @pytest.mark.parametrize("analysis_name", ANALYSES)
    def test_fold_is_bounded_by_the_path_meets(self, name, analysis_name):
        program = fixture_program(name)
        an = make_analysis(analysis_name, program)
        universe = detect_mips(program)
        sol = solve_fpmfp_interprocedural(program, an, universe)
        for proc in program.procedures:
            node_transfer, refine = solution_semantics(sol, proc)
            try:
                oracle = mips_free_meets(
                    proc.cfg, universe, proc.name,
                    boundary=sol.boundaries[proc.name], top=an.top(),
                    meet=an.meet, node_transfer=node_transfer, refine=refine)
            except Explosion:
                continue
            for nid, meets in oracle.node_in.items():
                assert an.leq(sol.folded_in[nid], meets), f"node {nid}"
            if an.is_distributive and not oracle.truncated:
                for nid, meets in oracle.node_in.items():
                    assert sol.folded_in[nid] == meets, f"node {nid}"

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    @pytest.mark.parametrize("opts", [
        frozenset({1}), frozenset({2}), frozenset({3}), ALL_OPTS,
    ], ids=lambda o: "+".join(str(i) for i in sorted(o)))
    def test_normalizations_never_change_the_folds(self, name, opts):
        program = fixture_program(name)
        for analysis_name in ANALYSES:
            an = make_analysis(analysis_name, program)
            universe = detect_mips(program)
            base = solve_fpmfp_interprocedural(
                program, an, universe, frozenset())
            tuned = solve_fpmfp_interprocedural(program, an, universe, opts)
            assert tuned.folded_in == base.folded_in, analysis_name
            assert tuned.folded_out == base.folded_out, analysis_name
            assert tuned.folded_edges == base.folded_edges, analysis_name

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    @pytest.mark.parametrize("analysis_name", ANALYSES)
    def test_empty_universe_degenerates_to_the_flat_solution(
            self, name, analysis_name):
        program = fixture_program(name)
        an = make_analysis(analysis_name, program)
        mfp = solve_mfp(program, an)
        sol = solve_fpmfp_interprocedural(
            program, an, MipsUniverse(program, []))
        assert sol.folded_in == mfp.folded_in
        assert sol.folded_edges == mfp.folded_edges
        for value in sol.node_in.values():
            assert set(value) <= {EMPTY_KEY}

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    @pytest.mark.parametrize("analysis_name", ANALYSES)
    def test_stored_keys_only_track_live_routes(self, name, analysis_name):
        # A stored pair may only track segments whose route contains the
        # edge, and never one that just completed there.
        program = fixture_program(name)
        an = make_analysis(analysis_name, program)
        universe = detect_mips(program)
        sol = solve_fpmfp_interprocedural(program, an, universe)
        for eid, pairs in sol.edge_values.items():
            for key in pairs:
                for mid in key:
                    mips = universe.by_id[mid]
                    assert eid in mips.edges
                    assert eid != mips.end

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    @pytest.mark.parametrize("analysis_name", ANALYSES)
    def test_pair_counts_stay_within_the_bound(self, name, analysis_name):
        program = fixture_program(name)
        an = make_analysis(analysis_name, program)
        universe = detect_mips(program)
        sol = solve_fpmfp_interprocedural(program, an, universe, frozenset())
        for proc in program.procedures:
            bound = len(universe.for_proc(proc.name)) + 1
            for eid in proc.cfg.edges:
                assert sol.stats.per_edge_max.get(eid, 0) <= bound

    def test_deterministic_across_runs(self):
        first = solved("fig8", "interval")[2]
        second = solved("fig8", "interval")[2]
        assert first.edge_values == second.edge_values
        assert first.folded_in == second.folded_in


class TestTermination:
    def test_unbounded_loop_without_widening(self):
        program = parse_program(
            "proc main() { x = 0; while (x >= 0) { x = x + 1; } print x; }"
        )
        an = make_analysis("interval", program)
        universe = detect_mips(program)
        with pytest.raises(NonTermination):
            solve_fpmfp_interprocedural(
                program, an, universe, widen=False)

    def test_same_loop_terminates_with_widening(self):
        program = parse_program(
            "proc main() { x = 0; while (x >= 0) { x = x + 1; } print x; }"
        )
        an = make_analysis("interval", program)
        universe = detect_mips(program)
        sol = solve_fpmfp_interprocedural(program, an, universe)
        assert sol.folded_in[2]["x"] == (0, INF)


def iterated_summaries(program, analysis, universe, opts) -> Summaries:
    """Reference masks: every SCC, recursive or not, solved round after
    round until a round changes nothing, kill masks first."""
    cg = build_call_graph(program)
    gmask = analysis.globals_mask
    gsum: dict[str, int] = {}
    ksum: dict[str, int] = {}

    def kill_xfer(node, value):
        st = node.statement
        if st.kind == StKind.CALL:
            if st.callee in program.externs:
                return value
            return value | ksum[st.callee]
        return value | analysis.kill_mask(node.id)

    def gen_xfer(node, value):
        st = node.statement
        if st.kind == StKind.CALL:
            if st.callee in program.externs:
                return value
            return (value & ~ksum[st.callee]) | gsum[st.callee]
        return analysis.transfer(node, value)

    for scc in cg.sccs:
        if not any(cg.callers[name] for name in scc):
            continue
        for name in scc:
            gsum[name] = ksum[name] = 0
        for masks, transfer, meet, top in (
                (ksum, kill_xfer, lambda a, b: a & b, analysis.full_mask),
                (gsum, gen_xfer, analysis.meet, analysis.top())):
            stable = False
            while not stable:
                stable = True
                for name in scc:
                    new = _summary_exit(
                        program.by_name[name].cfg, universe, opts,
                        transfer=transfer, meet=meet, top=top) & gmask
                    if new != masks[name]:
                        masks[name] = new
                        stable = False
    return Summaries(gsum, ksum)


class TestSummarySchedule:
    def test_one_pass_equals_iterating(self):
        recursive = 0
        for seed in range(297):
            program = parse_program(progen.generate_multi_program(seed))
            cg = build_call_graph(program)
            recursive += sum(
                1 for scc in cg.sccs
                if any(cg.callers[name] for name in scc)
                and (len(scc) > 1 or scc[0] in cg.callees[scc[0]]))
            detected = detect_mips(program)
            for name in ("rd", "must-defined"):
                analysis = make_analysis(name, program)
                for universe, opts in ((detected, ALL_OPTS),
                                       (MipsUniverse(program, []),
                                        frozenset())):
                    got = compute_lifted_summaries(
                        program, analysis, universe, opts)
                    want = iterated_summaries(
                        program, analysis, universe, opts)
                    assert got == want, (seed, name, len(universe))
                    # Same masks, also in the same order.
                    assert [list(m) for m in got] == [list(m) for m in want]
        assert recursive > 100

    def test_a_call_chain_takes_one_kill_and_one_gen_fixpoint_each(
            self, monkeypatch):
        depth = 12
        source = "".join(
            ["global g;\nproc main() { g = 1; p0(); print g; }\n"]
            + [f"proc p{i}() {{ read s; if (s == 1) {{ g = g + 1; }} "
               f"p{i + 1}(); }}\n" for i in range(depth - 1)]
            + [f"proc p{depth - 1}() {{ g = 0; }}\n"])
        program = parse_program(source)
        calls = []
        real = lifted._summary_exit

        def counted(cfg, *args, **kwargs):
            calls.append(cfg.proc_name)
            return real(cfg, *args, **kwargs)

        monkeypatch.setattr(lifted, "_summary_exit", counted)
        analysis = make_analysis("rd", program)
        summaries = compute_summaries(program, analysis,
                                      build_call_graph(program))
        assert sorted(calls) == sorted(2 * [f"p{i}" for i in range(depth)])
        assert summaries.ksum[f"p{depth - 1}"] != 0
