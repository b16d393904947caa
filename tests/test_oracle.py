"""Tests for the path-tree meets oracle and the concrete executor."""

import pytest

from fpmfp import progen
from fpmfp.frontend import parse_program
from fpmfp.lattice import INF, make_analysis
from fpmfp.mfp import solve_mfp
from fpmfp.mips import detect_mips
from fpmfp.oracle import (
    Explosion,
    OracleMeets,
    Trace,
    _advance,
    execute_all,
    mips_free_meets,
    path_tree,
    solution_semantics,
)

from conftest import contains_segment, fixture_text

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
    """Progress is one (segment, matched length) pair per segment in
    progress; ``starts`` maps each start edge to its segments."""

    def segment(self, load_program, name="fig12"):
        seg = detect_mips(load_program(name)).all[0]
        return seg, {seg.start: [seg]}

    def test_walks_to_completion(self, load_program):
        seg, starts = self.segment(load_program)  # edges (3, 6, 7, 8)
        progress = ()
        for eid in seg.edges[:-1]:
            progress = _advance(starts, progress, eid)
        assert progress == ((seg, 3),)
        assert _advance(starts, progress, seg.edges[-1]) is None

    def test_restart_at_start_edge(self, load_program):
        seg, starts = self.segment(load_program)
        progress = _advance(starts, ((seg, 2),), seg.edges[0])
        assert progress == ((seg, 1),)

    def test_mismatch_resets(self, load_program):
        seg, starts = self.segment(load_program)
        assert _advance(starts, ((seg, 2),), 99) == ()
        assert _advance(starts, (), seg.edges[1]) == ()


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
            assert analysis.leq(solution.folded_in[nid], oracle_val)

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
                assert analysis.leq(solution.folded_in[nid], oracle_val), \
                    f"node n{nid} of {proc.name}"
            for eid, oracle_val in meets.edge_values.items():
                assert analysis.leq(solution.folded_edges[eid], oracle_val), \
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
                assert solution.folded_in[nid] == oracle_val

    def test_explosion_guard(self, load_program):
        with pytest.raises(Explosion):
            oracle_for(load_program("fig12"), "rd", limit=3)


# ---------------------------------------------------------------------------
# Concrete executor
# ---------------------------------------------------------------------------

def reference_walk(cfg, universe, proc_name, *, boundary, meet,
                   node_transfer, refine, max_len, edge_cap, limit):
    """The one-pass walk the split walk replaced: enumeration and meets
    interleaved, ``node_transfer`` once per taken edge, keys collected."""
    starts = {}
    for seg in universe.for_proc(proc_name):
        starts.setdefault(seg.start, []).append(seg)
    node_in, edge_values, keyed = {}, {}, {}

    def accumulate(table, key, value):
        table[key] = meet(table[key], value) if key in table else value

    stack = [(cfg.start, boundary, (), {}, 0)]
    expansions = 0
    truncated = False
    while stack:
        node, value, progress, counts, length = stack.pop()
        expansions += 1
        if expansions > limit:
            raise Explosion(
                f"path tree of {proc_name} exceeded {limit} expansions")
        accumulate(node_in, node, value)
        if length >= max_len:
            truncated = True
            continue
        for edge in reversed(cfg.out_edges(node)):
            if counts.get(edge.id, 0) >= edge_cap:
                truncated = True
                continue
            advanced = _advance(starts, progress, edge.id)
            if advanced is None:
                continue
            out_value = refine(edge, node_transfer(node, value))
            accumulate(edge_values, edge.id, out_value)
            in_progress = frozenset(seg.id for seg, _ in advanced)
            accumulate(keyed, (edge.id, in_progress), out_value)
            new_counts = dict(counts)
            new_counts[edge.id] = new_counts.get(edge.id, 0) + 1
            stack.append(
                (edge.target, out_value, advanced, new_counts, length + 1))
    return OracleMeets(node_in, edge_values, keyed, expansions, truncated)


def _walk_sources():
    yield from ((name, fixture_text(name)) for name in ALL_FIXTURES)
    for seed in range(100):
        yield (f"loops-{seed}",
               progen.generate_program(seed, acyclic=False))
        yield f"multi-{seed}", progen.generate_multi_program(seed)


class TestSplitWalk:
    """``mips_free_meets`` (the tree, then the meets over it) equals the
    one-pass walk, also in the order values are met in."""

    @staticmethod
    def outcome(walk, **kwargs):
        try:
            meets = walk(**kwargs)
        except Explosion as exc:
            return "explosion", str(exc)
        # Dict order records the order of first meets.
        return meets, [list(table) for table in meets[:3]]

    @pytest.mark.parametrize("name, source", list(_walk_sources()),
                             ids=[name for name, _ in _walk_sources()])
    def test_equal_to_the_one_pass_walk(self, name, source):
        program = parse_program(source)
        universe = detect_mips(program)
        # A limit under most trees' size, so Explosion is compared too.
        limit = 40
        for analysis_name in ("rd", "must-defined", "interval"):
            analysis = make_analysis(analysis_name, program)
            solution = solve_mfp(program, analysis)
            for proc in program.procedures:
                node_transfer, refine = solution_semantics(solution, proc)
                common = dict(
                    cfg=proc.cfg, universe=universe, proc_name=proc.name,
                    boundary=solution.boundaries[proc.name],
                    meet=analysis.meet, node_transfer=node_transfer,
                    refine=refine, max_len=2 * len(proc.cfg.edges),
                    edge_cap=2)
                for bound in (limit, 1_000_000):
                    expected = self.outcome(reference_walk, limit=bound,
                                            **common)
                    assert self.outcome(
                        mips_free_meets, top=analysis.top(),
                        collect_keys=True, limit=bound,
                        **common) == expected, (name, proc.name)
                    if expected[0] == "explosion":
                        continue
                    unkeyed = mips_free_meets(top=analysis.top(),
                                              limit=bound, **common)
                    assert unkeyed == expected[0]._replace(keyed={})

    def test_explosion_at_the_same_limit(self, load_program):
        proc = load_program("fig12").procedures[0]
        universe = detect_mips(load_program("fig12"))
        size = len(path_tree(proc.cfg, universe, proc.name).steps)
        assert len(path_tree(proc.cfg, universe, proc.name,
                             limit=size).steps) == size
        with pytest.raises(Explosion, match=f"exceeded {size - 1} "):
            path_tree(proc.cfg, universe, proc.name, limit=size - 1)

    def test_one_tree_serves_every_analysis(self, load_program):
        program = load_program("fig8")
        universe = detect_mips(program)
        proc = program.procedures[0]
        tree = path_tree(proc.cfg, universe, proc.name, collect_keys=True)
        for analysis_name in ("rd", "must-defined", "interval"):
            meets, _, analysis = oracle_for(program, analysis_name,
                                            collect_keys=True)
            solution = solve_mfp(program, analysis)
            node_transfer, refine = solution_semantics(solution, proc)
            assert tree.meets(
                boundary=solution.boundaries[proc.name], meet=analysis.meet,
                node_transfer=node_transfer, refine=refine) == meets


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
                    if cfg.edges[e].label.kind in ("true", "false")]
            kinds = {a.label.kind for a in arms}
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
