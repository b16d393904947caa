"""Lifted solver tests: pair flows, merge rules, frozen fixture solutions."""
from __future__ import annotations

import heapq

import pytest

from fpmfp import interval, lifted, progen
from fpmfp.frontend import StKind, build_call_graph, parse_program
from fpmfp.lattice import make_analysis
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
    sorted_keys,
    transfer_preserves_top,
)
from fpmfp.mfp import compute_summaries, solve_mfp
from fpmfp.mips import INF, NO_CROSSING, MipsUniverse, detect_mips
from fpmfp.oracle import Explosion, mips_free_meets, solution_semantics

from conftest import fixture_program
from test_interprocedural import MUTUAL

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
        # fig2's segment runs over edges 3, 5 and 6.  Edge 5 carries its
        # tracked pair beside the untracked one; at the end edge 6 the
        # tracked pair dies and only the a == 5 value flows on.
        an, universe, sol = solved("fig2", "interval")
        assert keyed(sol, 5) == {
            (): {"x": (0, INF), "a": (5, 5)},
            (1,): {"x": (-INF, -1), "a": (0, 0)},
        }
        assert keyed(sol, 6) == {(): {"x": (5, 5), "a": (5, 5)}}
        assert sol.stats.blocked == 1

    def test_start_edge_creates_the_tracked_key(self):
        # Edge 3, the x < 0 arm, starts fig2's segment; the other arm
        # keeps the empty key.
        an, universe, sol = solved("fig2", "interval")
        assert keyed(sol, 3) == {(1,): {"x": (-INF, -1), "a": (0, 0)}}
        assert set(keyed(sol, 2)) == {()}

    def test_leaving_the_route_clears_the_tracking(self):
        # fig11's segments cover edges (4, 6, 7) and (5, 6, 8).  Edge 8 is
        # not on the first one's route, so the pair tracking it maps back
        # to the empty key there, while the pair tracking the second one
        # is blocked; edge 7 blocks the first pair the same way.
        an, universe, sol = solved("fig11", "must-defined", frozenset())
        assert keyed(sol, 6) == {(1,): 3, (2,): 3}
        assert keyed(sol, 8) == {(): 3}
        assert sol.stats.blocked == 2

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

    @staticmethod
    def flow(name: str, analysis_name: str, opts: frozenset[int],
             widening: interval.WideningState | None = None) -> _Flow:
        program = fixture_program(name)
        an = make_analysis(analysis_name, program)
        return _Flow(detect_mips(program), program.procedures[0].cfg,
                     an.transfer, meet=an.meet, top=an.top(), refine=None,
                     opts=opts, stats=PairStats(), widening=widening)

    def test_the_flow_decides_top_dropping(self):
        assert not self.flow("fig2", "interval", ALL_OPTS).drop_top
        assert self.flow("fig2", "must-defined", ALL_OPTS).drop_top
        assert not self.flow("fig2", "must-defined",
                             frozenset({1, 2})).drop_top

    def test_the_flow_widens_back_edges_only_with_a_widening_state(self):
        cfg = fixture_program("loop").procedures[0].cfg
        assert cfg.back
        assert self.flow("loop", "interval", ALL_OPTS).back == frozenset()
        widened = self.flow("loop", "interval", ALL_OPTS,
                            interval.WideningState())
        assert widened.back == cfg.back

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
            bound = len(universe.by_proc[proc.name]) + 1
            for eid in proc.cfg.edges:
                assert sol.stats.per_edge_max.get(eid, 0) <= bound

    def test_deterministic_across_runs(self):
        first = solved("fig8", "interval")[2]
        second = solved("fig8", "interval")[2]
        assert first.edge_values == second.edge_values
        assert first.folded_in == second.folded_in


class TestTermination:
    def test_unbounded_loop_without_widening(self, monkeypatch):
        monkeypatch.setattr(interval, "WIDEN_THRESHOLD", INF)
        program = parse_program(
            "proc main() { x = 0; while (x >= 0) { x = x + 1; } print x; }"
        )
        an = make_analysis("interval", program)
        universe = detect_mips(program)
        with pytest.raises(NonTermination):
            solve_fpmfp_interprocedural(program, an, universe)

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
    round until a round changes nothing, kill masks first.  Each mask is
    one component of a summary fixpoint's pair, the other held at 0."""
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
        return value | analysis.kill.get(node.id, 0)

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
        for masks, transfer, meet, top, side in (
                (ksum, lambda node, v: (kill_xfer(node, v[0]), 0),
                 lambda a, b: (a[0] & b[0], 0), (analysis.full_mask, 0), 0),
                (gsum, lambda node, v: (0, gen_xfer(node, v[1])),
                 lambda a, b: (0, analysis.meet(a[1], b[1])),
                 (0, analysis.top()), 1)):
            stable = False
            while not stable:
                stable = True
                for name in scc:
                    new = _summary_exit(
                        program.by_name[name].cfg, universe, opts,
                        transfer=transfer, meet=meet, top=top)[side] & gmask
                    if new != masks[name]:
                        masks[name] = new
                        stable = False
    return Summaries(gsum, ksum)


# A feasible path through each callee skips the assignment to ``g``, so
# its kill mask is empty only when the summary meets kills with ``&``.
# Both callees hold detected segments (the second test of ``s`` and of
# ``t`` contradicts the first on one arm), and ``q`` is recursive.  Over
# the detected universe no generated program has such a path through a
# procedure outside a recursive SCC.
SKIPPED_ASSIGNMENT = (
    "global g;\n"
    "proc main() { g = 0; p(); q(); print g; }\n"
    "proc p() { read s; if (s > 0) { g = 1; }"
    " if (s > 0) { skip; } else { skip; } }\n"
    "proc q() { read t; if (t > 0) { g = 2; q(); }"
    " if (t > 0) { skip; } else { skip; } }\n"
)


@pytest.fixture(scope="module")
def summary_corpus():
    """The fixtures, ``SKIPPED_ASSIGNMENT`` and ``generate_multi_program``
    seeds 0-296, each parsed and detected once for the module: (program,
    its detected universe)."""
    programs = [fixture_program(name) for name in FIXTURE_NAMES]
    programs.append(parse_program(SKIPPED_ASSIGNMENT))
    programs += [parse_program(progen.generate_multi_program(seed))
                 for seed in range(297)]
    return [(program, detect_mips(program)) for program in programs]


def _assert_summaries_equal_iterating(program, universe, opts) -> None:
    for name in ("rd", "must-defined"):
        analysis = make_analysis(name, program)
        got = compute_lifted_summaries(program, analysis, universe, opts)
        want = iterated_summaries(program, analysis, universe, opts)
        assert got == want, (name, len(universe), sorted(opts))
        # Same masks, also in the same order.
        assert [list(m) for m in got] == [list(m) for m in want]


class TestSummarySchedule:
    def test_one_pass_equals_iterating(self, summary_corpus):
        recursive = 0
        for program, universe in summary_corpus:
            cg = build_call_graph(program)
            recursive += sum(
                1 for scc in cg.sccs
                if any(cg.callers[name] for name in scc)
                and (len(scc) > 1 or scc[0] in cg.callees[scc[0]]))
            _assert_summaries_equal_iterating(program, universe, ALL_OPTS)
            _assert_summaries_equal_iterating(
                program, MipsUniverse(program, []), frozenset())
        assert recursive > 100

    @pytest.mark.parametrize("opts", [frozenset(), frozenset({1}),
                                      frozenset({2}), frozenset({3})],
                             ids=["none", "1", "2", "3"])
    def test_each_normalization_alone_equals_iterating(self, opts,
                                                       summary_corpus):
        """A non-recursive procedure's (kill, gen) pairs merge under
        normalization 2 only when both components are equal, and drop
        under 3 only when both are top, where the separate kill and gen
        fixpoints of the reference normalize each component on its own;
        the folded exit masks still agree."""
        for program, universe in summary_corpus:
            _assert_summaries_equal_iterating(program, universe, opts)

    def test_a_call_chain_takes_one_summary_fixpoint_each(self, monkeypatch):
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
        assert sorted(calls) == sorted(f"p{i}" for i in range(depth))
        assert summaries.ksum[f"p{depth - 1}"] != 0

    def test_mutual_recursion_takes_one_pair_fixpoint_per_round(
            self, monkeypatch):
        # p -> q -> r -> p, three members per round.  rd: the first round
        # moves the kills, two climb the gens from 0 under them and the
        # fourth changes nothing.  must-defined kills nothing: its gens
        # climb in the first round and the second changes nothing.  Kill
        # and gen loops run one after the other take 15 and 9.
        program = parse_program(MUTUAL)
        calls = []
        real = lifted._summary_exit

        def counted(cfg, *args, **kwargs):
            calls.append(cfg.proc_name)
            return real(cfg, *args, **kwargs)

        monkeypatch.setattr(lifted, "_summary_exit", counted)
        universe = detect_mips(program)
        for name in ("rd", "must-defined"):
            compute_lifted_summaries(program, make_analysis(name, program),
                                     universe)
        assert len(calls) == 18


def heap_fixpoint(flow, boundary):
    """Reference worklist: the engine's fixpoint with a heap of (RPO
    position, node id) in place of the sweep, and no pair statistics;
    steps, pair flows and the calls that widen are the engine's."""
    cfg = flow.cfg
    outs_of = cfg.plan.outs
    crossing_of = flow.universe.crossings.get
    node_in = {n: {} for n in cfg.nodes}
    node_in[cfg.start] = {EMPTY_KEY: boundary}
    edge_vals = {}
    heap = [(i, n) for i, n in enumerate(cfg.rpo)]
    queued = set(cfg.nodes)
    steps = 0
    while heap:
        _, n = heapq.heappop(heap)
        queued.discard(n)
        steps += 1
        node, outs = outs_of[n]
        pairs = node_in[n]
        out = [(key, flow.transfer(node, pairs[key]))
               for key in sorted_keys(pairs)]
        for edge, eid, target, tpos in outs:
            starts, continues, ends = crossing_of(eid, NO_CROSSING)
            moved = {}
            for key, v in out:
                tracked = starts | (key & continues)
                if tracked & ends:
                    continue
                if flow.refine is not None:
                    v = flow.refine(edge, node, v)
                if tracked in moved:
                    v = flow.meet(moved[tracked], v)
                moved[tracked] = v
            if len(moved) > 1 or eid in flow.back and moved:
                moved = flow.normalize(eid, moved)
            elif flow.drop_top and flow.top in moved.values():
                moved = {}
            edge_vals[eid] = moved
            old = node_in[target]
            new = dict(old)
            for k, w in moved.items():
                if k in old:
                    w = flow.meet(old[k], w)
                if k not in old or w != old[k]:
                    new[k] = w
            if new != old:
                node_in[target] = new
                if target not in queued:
                    queued.add(target)
                    heapq.heappush(heap, (tpos, target))
    return node_in, edge_vals, steps


def recorded_solve(monkeypatch, engine, program, analysis_name, universe):
    """A whole-program solve whose every fixpoint runs ``engine`` with a
    transfer that records the node of each call; returns the solution
    and, per fixpoint, the recorded node ids."""
    visits = []

    def fixpoint(flow, boundary):
        real = flow.transfer
        log = []

        def recording(node, value):
            log.append(node.id)
            return real(node, value)

        flow.transfer = recording
        visits.append(log)
        return engine(flow, boundary)

    monkeypatch.setattr(lifted, "_fixpoint", fixpoint)
    analysis = make_analysis(analysis_name, program)
    return solve_fpmfp_interprocedural(program, analysis, universe), visits


# The loop head's true edge is a self-loop that starts the segment its
# false edge ends, so a pair comes back to the head on a new key.
SELF_LOOP = "proc main() { read x; while (x > 0) { } print x; }"


class TestVisitOrder:
    def test_sweep_visits_as_a_heap_worklist_pops(self, monkeypatch):
        """The reverse-postorder sweep visits the nodes in the order a
        heap of RPO positions pops them, over the fixtures, a self-loop,
        generated programs with loops and generated multi-procedure
        programs, in every summary and value fixpoint and over both the
        detected and the empty universe.  The fingerprints pin only the
        counts."""
        engine = lifted._fixpoint
        programs = [fixture_program(name) for name in FIXTURE_NAMES]
        programs.append(parse_program(SELF_LOOP))
        programs += [parse_program(progen.generate_program(seed,
                                                           acyclic=False))
                     for seed in range(40)]
        programs += [parse_program(progen.generate_multi_program(seed))
                     for seed in range(40)]
        rewinds = 0
        for program in programs:
            rpo_pos = {n: i for proc in program.procedures
                       for i, n in enumerate(proc.cfg.rpo)}
            for universe in (detect_mips(program), MipsUniverse(program, [])):
                for name in ANALYSES:
                    got, got_visits = recorded_solve(
                        monkeypatch, engine, program, name, universe)
                    want, want_visits = recorded_solve(
                        monkeypatch, heap_fixpoint, program, name, universe)
                    assert got_visits == want_visits
                    assert got.steps == want.steps
                    assert got.node_in == want.node_in
                    assert got.edge_values == want.edge_values
                    rewinds += sum(1 for log in got_visits
                                   for a, b in zip(log, log[1:])
                                   if rpo_pos[b] < rpo_pos[a])
        assert rewinds > 100
