"""Interprocedural solving: the procedure-worklist driver, bounded call
summaries, and the property chain on generated multi-procedure programs."""
from __future__ import annotations

from functools import lru_cache

import pytest

from fpmfp import lifted as engine
from fpmfp.clients import compare_modes
from fpmfp.frontend import build_call_graph, parse_program
from fpmfp.lattice import INF, make_analysis
from fpmfp.lifted import (
    NonTermination,
    compute_lifted_summaries,
    solve_fpmfp_interprocedural,
)
from fpmfp.mfp import compute_summaries, solve_mfp
from fpmfp.mips import detect_mips
from fpmfp.oracle import mips_free_meets, solution_semantics
from fpmfp.progen import generate_multi_program

def chain_program(depth: int) -> str:
    """``main`` calls p0 and each p_i calls p_(i+1), ``depth`` deep.

    Each p_i holds one correlated pair that guards an update of the
    global ``g``, so every procedure has segments and calls read exits.
    """
    lines = ["global g;", "proc main() {", "  g = 0;", "  p0();",
             "  print g;", "}"]
    for i in range(depth):
        lines += [f"proc p{i}() {{", "  read s;",
                  "  if (s == 0) { t = 1; } else { t = 2; }",
                  "  if (t == 3) { g = g + 1; }"]
        if i + 1 < depth:
            lines.append(f"  p{i + 1}();")
        lines.append("}")
    return "\n".join(lines) + "\n"


SELF_ASCENT = (
    "global g;\n"
    "proc main() { g = 0; p(); print g; }\n"
    "proc p() { read s; if (s == 0) { p(); } g = g + 1; }\n"
)
MUTUAL = (
    "global g;\n"
    "proc main() { p(); print g; }\n"
    "proc p() { g = 1; q(); }\n"
    "proc q() { g = 2; r(); }\n"
    "proc r() { if (g > 0) { p(); } }\n"
)


class TestCallSummaries:
    def test_mutual_recursion_summaries_terminate(self):
        # Updating gen and kill masks together made the gen fact of
        # ``g = 2`` circle p -> q -> r forever.
        program = parse_program(MUTUAL)
        an = make_analysis("rd", program)
        universe = detect_mips(program)
        for summaries in (
                compute_summaries(program, an, build_call_graph(program)),
                compute_lifted_summaries(program, an, universe)):
            for name in ("p", "q"):
                assert an.decode(summaries.gsum[name]) == [("g", 7)]
                assert an.decode(summaries.ksum[name]) == [("g", 4),
                                                           ("g", 7)]
            assert an.decode(summaries.gsum["r"]) == [("g", 7)]
            assert summaries.ksum["r"] == 0  # the false arm kills nothing

    def test_mutual_recursion_compares_for_every_analysis(self):
        program = parse_program(MUTUAL)
        for name in ("rd", "must-defined", "interval"):
            report = compare_modes(program, name)
            assert report.strict_nodes == ()

    @pytest.mark.parametrize("name", ["rd", "must-defined"])
    def test_only_called_procedures_get_summaries(self, monkeypatch, name):
        solved = []
        real = engine._summary_exit

        def counted(cfg, *args, **kwargs):
            solved.append(cfg.proc_name)
            return real(cfg, *args, **kwargs)

        monkeypatch.setattr(engine, "_summary_exit", counted)
        single = parse_program("proc main() { read x; if (x > 0) { x = 1; }"
                               " print x; }")
        solve_mfp(single, make_analysis(name, single))
        solve_fpmfp_interprocedural(single, make_analysis(name, single),
                                    detect_mips(single))
        assert solved == []
        program = parse_program(MUTUAL)
        summaries = compute_summaries(program, make_analysis(name, program),
                                      build_call_graph(program))
        assert set(solved) == {"p", "q", "r"}
        assert set(summaries.gsum) == set(summaries.ksum) == {"p", "q", "r"}

    def test_summary_rounds_are_bounded(self, monkeypatch):
        program = parse_program(MUTUAL)
        an = make_analysis("rd", program)
        flips = iter(range(1_000_000))

        def oscillating(cfg, universe, opts, *, transfer, meet, top):
            return next(flips) % 2 * an.globals_mask

        monkeypatch.setattr(engine, "_summary_exit", oscillating)
        with pytest.raises(NonTermination, match="did not stabilize"):
            compute_summaries(program, an, build_call_graph(program))


class TestWorklistDriver:
    @pytest.mark.parametrize("solver", ["mfp", "fpmfp"])
    def test_chain_steps_grow_linearly(self, solver):
        steps, nodes = {}, {}
        for depth in (20, 40):
            program = parse_program(chain_program(depth))
            an = make_analysis("interval", program)
            if solver == "mfp":
                sol = solve_mfp(program, an)
            else:
                sol = solve_fpmfp_interprocedural(
                    program, an, detect_mips(program))
            steps[depth] = sol.steps
            nodes[depth] = sum(len(p.cfg.nodes) for p in program.procedures)
        assert steps[40] <= 2.2 * steps[20]
        assert steps[40] <= 3 * nodes[40]

    @pytest.mark.parametrize("analysis_name", ["rd", "must-defined"])
    def test_bitvector_chain_solves_each_procedure_once(self, analysis_name):
        # Summaries, not exits, carry calls: callers-first is one pass.
        program = parse_program(chain_program(12))
        an = make_analysis(analysis_name, program)
        nodes = sum(len(p.cfg.nodes) for p in program.procedures)
        assert solve_mfp(program, an).steps == nodes
        lifted = solve_fpmfp_interprocedural(program, an,
                                             detect_mips(program))
        assert lifted.steps == nodes

    def test_exit_widening_stops_a_self_recursive_ascent(self):
        # Each re-solve of p reads its own last exit and adds one to g;
        # with no CFG back edge, only the exit key can widen it.
        program = parse_program(SELF_ASCENT)
        an = make_analysis("interval", program)
        flat = solve_mfp(program, an)
        lifted = solve_fpmfp_interprocedural(program, an,
                                             detect_mips(program))
        assert flat.exit_values["p"] == {"g": (1, INF),
                                         "s": (-INF, INF)}
        assert flat.node_in[3] == {"g": (1, INF)}
        assert lifted.folded_in == flat.node_in

    def test_solutions_keep_the_transfer_they_were_solved_with(self):
        program = parse_program(SELF_ASCENT)
        an = make_analysis("interval", program)
        call = program.node(2)
        for sol in (solve_mfp(program, an), solve_fpmfp_interprocedural(
                program, an, detect_mips(program))):
            assert sol.node_transfer(call, {"g": (0, 0)}) == {
                "g": (1, INF)}


# ---------------------------------------------------------------------------
# Generated multi-procedure programs
# ---------------------------------------------------------------------------

SEEDS = range(40)
WIDENING_MISALIGNMENT = (
    "MFP and FPMFP widen independently: a loop, boundary or exit can be "
    "forced to infinity in one solver and not the other, so the fold can "
    "be wider than MFP")


@lru_cache(maxsize=None)
def solved(seed: int, analysis_name: str, opts=None):
    program = parse_program(generate_multi_program(seed))
    universe = detect_mips(program)
    analysis = make_analysis(analysis_name, program)
    flat = solve_mfp(program, analysis)
    if opts is None:
        lifted = solve_fpmfp_interprocedural(program, analysis, universe)
    else:
        lifted = solve_fpmfp_interprocedural(program, analysis, universe,
                                             opts)
    return program, universe, analysis, flat, lifted


def path_meets(seed: int, analysis_name: str):
    """Per procedure: (procedure, bounded segment-free path meets)."""
    program, universe, analysis, _, lifted = solved(seed, analysis_name)
    for proc in program.procedures:
        node_transfer, refine = solution_semantics(lifted, proc)
        yield proc, mips_free_meets(
            proc.cfg, universe, proc.name,
            boundary=lifted.boundaries[proc.name],
            top=analysis.top(), meet=analysis.meet,
            node_transfer=node_transfer, refine=refine,
            max_len=2 * len(proc.cfg.edges))


def mfp_not_refined(seed: int, analysis_name: str) -> list[str]:
    _, _, analysis, flat, lifted = solved(seed, analysis_name)
    folded_in, folded_edges = lifted.folded_in, lifted.folded_edges
    return ([f"n{n}" for n, v in flat.node_in.items()
             if not analysis.leq(v, folded_in[n])]
            + [f"e{e}" for e, v in flat.edge_values.items()
               if not analysis.leq(v, folded_edges[e])])


def fold_above_meets(seed: int, analysis_name: str) -> list[int]:
    _, _, analysis, _, lifted = solved(seed, analysis_name)
    folded = lifted.folded_in
    return [nid for _, meets in path_meets(seed, analysis_name)
            for nid, value in meets.node_in.items()
            if not analysis.leq(folded[nid], value)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("analysis_name", ["rd", "must-defined"])
class TestGeneratedBitvectorChain:
    def test_mfp_refined_by_fold(self, seed, analysis_name):
        assert mfp_not_refined(seed, analysis_name) == []

    def test_optimization_neutrality(self, seed, analysis_name):
        lifted = solved(seed, analysis_name)[4]
        plain = solved(seed, analysis_name, frozenset())[4]
        assert lifted.folded_in == plain.folded_in
        assert lifted.folded_out == plain.folded_out
        assert lifted.folded_edges == plain.folded_edges

    def test_fold_bounded_by_path_meets(self, seed, analysis_name):
        assert fold_above_meets(seed, analysis_name) == []

    def test_distributive_equality(self, seed, analysis_name):
        folded = solved(seed, analysis_name)[4].folded_in
        for proc, meets in path_meets(seed, analysis_name):
            if meets.truncated:
                continue
            assert {n: folded[n] for n in meets.node_in} == meets.node_in, \
                proc.name


@pytest.mark.parametrize("seed", SEEDS)
class TestGeneratedIntervals:
    def test_terminates(self, seed):
        _, _, _, flat, lifted = solved(seed, "interval")
        assert flat.steps > 0 and lifted.steps > 0

    def test_fold_bounded_by_path_meets(self, seed):
        assert fold_above_meets(seed, "interval") == []

    @pytest.mark.xfail(reason=WIDENING_MISALIGNMENT, strict=False)
    def test_mfp_refined_by_fold(self, seed):
        assert mfp_not_refined(seed, "interval") == []


@pytest.mark.xfail(reason=WIDENING_MISALIGNMENT, strict=True)
@pytest.mark.parametrize("seed", [135, 141, 142, 170])
def test_interval_mfp_refined_by_fold_known_failures(seed):
    assert mfp_not_refined(seed, "interval") == []
