"""Acceptance criteria, one verdict line per criterion under ``-v``.

Criterion 1 (exact fixture values) is split one test per fixture; criteria
2-9 are one test each. Expected values are frozen from independent
derivations in the unit suites; corpus checks run on seed-pinned
generated programs.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import pytest

import fpmfp
from fpmfp.clients import def_use_report, uninit_report
from fpmfp.concrete import execute_all
from fpmfp.frontend import parse_program
from fpmfp.lattice import make_analysis
from fpmfp.lifted import ALL_OPTS, solve_fpmfp_interprocedural
from fpmfp.mfp import solve_mfp
from fpmfp.mips import INF, detect_mips
from fpmfp.oracle import mips_free_meets, solution_semantics
from fpmfp.progen import check_programs

from conftest import FIXTURES, contains_segment, fixture_text, perf_program

GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURE_NAMES = sorted(p.stem for p in FIXTURES.glob("*.mir"))
SUITE_ANALYSES = ("rd", "must-defined", "interval")

SOUNDNESS_SEED = 20_000
ACYCLIC_SEED = 30_000
CORPUS_SIZE = 200


@lru_cache(maxsize=None)
def corpus(seed: int, count: int, acyclic: bool):
    return tuple(
        (name, parse_program(source))
        for name, source in check_programs(seed, count, acyclic=acyclic)
    )


def pipeline(name: str, analysis_name: str, opts=ALL_OPTS):
    program = parse_program(fixture_text(name))
    analysis = make_analysis(analysis_name, program)
    universe = detect_mips(program)
    flat = solve_mfp(program, analysis)
    lifted = solve_fpmfp_interprocedural(program, analysis, universe, opts)
    return program, universe, flat, lifted


class TestCriterion1Figures:
    """Exact-value reproduction on each fig* fixture, < 1 s each."""

    def test_fig2(self):
        start = time.perf_counter()
        _, _, flat, lifted = pipeline("fig2", "interval")
        assert flat.folded_in[6]["a"] == (0, 5)
        assert lifted.folded_in[6]["a"] == (5, 5)
        assert time.perf_counter() - start < 1.0

    def test_fig3(self):
        start = time.perf_counter()
        _, _, _, lifted = pipeline("fig3", "interval")
        assert lifted.folded_edges[4]["z"] == (1, INF)
        assert lifted.folded_edges[3]["z"] == (-INF, 0)
        assert time.perf_counter() - start < 1.0

    def test_fig4(self):
        start = time.perf_counter()
        _, _, flat, lifted = pipeline("fig4", "interval")
        assert lifted.folded_edges[5]["l"] == (2, 2)
        assert lifted.folded_edges[8]["l"] == (2, 2)
        assert flat.folded_edges[5]["l"] == (0, 2)
        assert flat.folded_edges[8]["l"] == (0, 2)
        assert lifted.folded_edges[4] == flat.folded_edges[4]
        assert lifted.folded_edges[7] == flat.folded_edges[7]
        assert time.perf_counter() - start < 1.0

    def test_fig7(self):
        start = time.perf_counter()
        _, _, _, lifted = pipeline("fig7", "interval")
        assert lifted.folded_edges[3]["l"] == (2, 2)
        assert lifted.folded_edges[4]["l"] == (0, 0)
        assert lifted.folded_edges[8]["l"] == (2, 2)
        assert lifted.folded_edges[9]["l"] == (0, 0)
        assert time.perf_counter() - start < 1.0

    def test_fig8(self):
        start = time.perf_counter()
        _, _, _, lifted = pipeline("fig8", "interval")
        assert lifted.folded_edges[9]["z"] == (1, 1)
        assert lifted.folded_edges[7]["z"] == (0, 2)
        _, _, _, merged = pipeline("fig8", "interval", frozenset({1}))
        assert len(merged.edge_values[7]) == 2
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("name", ["fig10", "fig11"])
    def test_fig10_fig11(self, name):
        start = time.perf_counter()
        _, _, _, shifted = pipeline(name, "must-defined", frozenset({2}))
        _, _, _, plain = pipeline(name, "must-defined", frozenset())
        assert shifted.folded_in == plain.folded_in
        assert shifted.folded_out == plain.folded_out
        assert shifted.folded_edges == plain.folded_edges
        assert shifted.stats.value_shifts > 0
        assert plain.stats.value_shifts == 0
        assert time.perf_counter() - start < 1.0

    def test_fig12(self):
        start = time.perf_counter()
        program = parse_program(fixture_text("fig12"))
        universe = detect_mips(program)
        (mips,) = universe.all
        assert mips.edges == (3, 6, 7, 8)
        assert mips.start == 3
        assert mips.inner == (6, 7)
        assert mips.end == 8
        assert time.perf_counter() - start < 1.0


class TestCriterion2SoundnessChain:
    def test_mfp_below_fold_below_oracle_on_200_programs(self):
        start = time.perf_counter()
        violations = []
        for name, program in corpus(SOUNDNESS_SEED, CORPUS_SIZE, False):
            universe = detect_mips(program)
            for analysis_name in SUITE_ANALYSES:
                analysis = make_analysis(analysis_name, program)
                flat = solve_mfp(program, analysis)
                lifted = solve_fpmfp_interprocedural(
                    program, analysis, universe)
                folded = lifted.folded_in
                for nid, value in flat.folded_in.items():
                    if not analysis.leq(value, folded[nid]):
                        violations.append(
                            (name, analysis_name, nid, "mfp-vs-fold"))
                for proc in program.procedures:
                    node_transfer, refine = solution_semantics(lifted, proc)
                    oracle = mips_free_meets(
                        proc.cfg, universe, proc.name,
                        boundary=lifted.boundaries[proc.name],
                        top=analysis.top(), meet=analysis.meet,
                        node_transfer=node_transfer, refine=refine,
                        max_len=2 * len(proc.cfg.edges))
                    for nid, meets in oracle.node_in.items():
                        if not analysis.leq(folded[nid], meets):
                            violations.append(
                                (name, analysis_name, nid,
                                 "fold-vs-oracle"))
        elapsed = time.perf_counter() - start
        assert violations == []
        assert elapsed < 300


class TestCriterion3DistributiveEquality:
    def test_fold_equals_oracle_on_acyclic_programs(self):
        violations = []
        for name, program in corpus(ACYCLIC_SEED, CORPUS_SIZE, True):
            universe = detect_mips(program)
            for analysis_name in ("rd", "must-defined"):
                analysis = make_analysis(analysis_name, program)
                lifted = solve_fpmfp_interprocedural(
                    program, analysis, universe)
                folded = lifted.folded_in
                for proc in program.procedures:
                    node_transfer, refine = solution_semantics(lifted, proc)
                    oracle = mips_free_meets(
                        proc.cfg, universe, proc.name,
                        boundary=lifted.boundaries[proc.name],
                        top=analysis.top(), meet=analysis.meet,
                        node_transfer=node_transfer, refine=refine,
                        max_len=2 * len(proc.cfg.edges))
                    assert not oracle.truncated, (name, proc.name)
                    for nid, meets in oracle.node_in.items():
                        if folded[nid] != meets:
                            violations.append((name, analysis_name, nid))
        assert violations == []


class TestCriterion4OptimizationNeutrality:
    def test_folds_identical_with_and_without_optimizations(self):
        violations = []
        fixture_programs = [
            (name, parse_program(fixture_text(name)))
            for name in FIXTURE_NAMES
        ]
        programs = fixture_programs + list(
            corpus(SOUNDNESS_SEED, CORPUS_SIZE, False))
        for name, program in programs:
            universe = detect_mips(program)
            for analysis_name in SUITE_ANALYSES:
                analysis = make_analysis(analysis_name, program)
                tuned = solve_fpmfp_interprocedural(
                    program, analysis, universe, ALL_OPTS)
                plain = solve_fpmfp_interprocedural(
                    program, analysis, universe, frozenset())
                if (tuned.folded_in != plain.folded_in
                        or tuned.folded_out != plain.folded_out
                        or tuned.folded_edges != plain.folded_edges):
                    violations.append((name, analysis_name))
        assert violations == []


class TestCriterion5PairBound:
    def test_live_pairs_bounded_by_universe_size_plus_one(self):
        violations = []
        fixture_programs = [
            (name, parse_program(fixture_text(name)))
            for name in FIXTURE_NAMES
        ]
        programs = fixture_programs + list(
            corpus(SOUNDNESS_SEED, CORPUS_SIZE, False))
        for name, program in programs:
            universe = detect_mips(program)
            for analysis_name in SUITE_ANALYSES:
                analysis = make_analysis(analysis_name, program)
                for opts in (frozenset(), ALL_OPTS):
                    solution = solve_fpmfp_interprocedural(
                        program, analysis, universe, opts)
                    for proc in program.procedures:
                        bound = len(universe.by_proc[proc.name]) + 1
                        for eid in proc.cfg.edges:
                            seen = solution.stats.per_edge_max.get(eid, 0)
                            if seen > bound:
                                violations.append(
                                    (name, analysis_name, eid, seen))
        assert violations == []

    def test_pair_bound_is_a_real_check(self):
        # Two hand-made segments both continue through fig2's edge 5, so
        # the four keys {}, {1}, {2}, {1, 2} can stay apart there.  Four
        # pairs on that edge are one more than the procedure's segments
        # plus one.  The check must hold under ``python -O``, which strips
        # assertions.
        script = (
            "from fpmfp.frontend import parse_program\n"
            "from fpmfp.lattice import make_analysis\n"
            "from fpmfp.lifted import PairBoundError, PairStats, _Flow\n"
            "from fpmfp.mips import Mips, MipsUniverse\n"
            "import sys\n"
            "program = parse_program(sys.stdin.read())\n"
            "an = make_analysis('interval', program)\n"
            "universe = MipsUniverse(program, [Mips(1, 'f', (3, 5, 6)),\n"
            "                                  Mips(2, 'f', (4, 5, 7))])\n"
            "cfg = program.procedures[0].cfg\n"
            "flow = _Flow(universe, cfg, an.transfer, meet=an.meet,\n"
            "             top=an.top(), refine=None, opts=frozenset(),\n"
            "             stats=PairStats())\n"
            "value = {frozenset(k): {'a': (i, i)} for i, k in\n"
            "         enumerate([(), (1,), (2,), (1, 2)])}\n"
            "try:\n"
            "    flow.normalize(5, value)\n"
            "except PairBoundError as exc:\n"
            "    print(f'debug={__debug__} raised: {exc}')\n"
        )
        src = str(Path(fpmfp.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        for flags in (["-O"], []):
            child = subprocess.run(
                [sys.executable, *flags, "-c", script],
                input=fixture_text("fig2"), capture_output=True, text=True,
                env=env, timeout=60)
            assert child.returncode == 0, child.stderr
            assert child.stdout == (
                f"debug={not flags} raised: pair count 4 exceeds limit 3 "
                f"at edge 5\n")


class TestCriterion6InfeasibilityWitness:
    def test_no_concrete_trace_contains_a_detected_segment(self):
        violations = []
        for name in FIXTURE_NAMES:
            program = parse_program(fixture_text(name))
            universe = detect_mips(program)
            segments = universe.all
            if not segments:
                continue
            # One run at a time, as the executor yields them.
            for run in execute_all(program):
                for trace in run:
                    for mips in segments:
                        if trace.proc == mips.proc and contains_segment(
                                trace.edges, mips.edges):
                            violations.append((name, mips.id))
        assert violations == []


class TestCriterion7ClientReproduction:
    def reports(self):
        out = {}
        for name, analysis_name, builder in (
            ("nlkain_like", "must-defined", uninit_report),
            ("stripcc_like", "must-defined", uninit_report),
            ("sphinx_like", "rd", def_use_report),
        ):
            program, _, flat, lifted = pipeline(name, analysis_name)
            out[name] = builder(program, flat, lifted)
        return out

    def test_client_reductions_match_the_golden_counts(self):
        reports = self.reports()
        golden = json.loads(
            (GOLDEN / "clients_criterion7.json").read_text())
        live = {name: report.to_json() for name, report in reports.items()}
        assert live == golden

    def test_mips_covered_alarms_fully_removed(self):
        reports = self.reports()
        # Every MFP alarm on the nlkain-style fixture is segment-covered:
        # all of them disappear.
        assert reports["nlkain_like"].reduction == 100.0
        assert reports["nlkain_like"].totals == {"mfp": 1, "fpmfp": 0}
        # Only the covered alarm disappears on the stripcc-style fixture;
        # the library-call alarm survives.
        assert reports["stripcc_like"].removed == ((5, "y"),)
        assert reports["stripcc_like"].totals == {"mfp": 2, "fpmfp": 1}
        # At least one def-use pair is removed on the sphinx-style one.
        assert len(reports["sphinx_like"].removed) >= 1


class TestCriterion8CorpusAggregatesOutOfScope:
    def test_readme_states_the_aggregates_are_not_reproducible(self):
        readme = (Path(__file__).resolve().parent.parent
                  / "README.md").read_text(encoding="utf-8")
        lowered = readme.lower()
        assert "not reproducible" in lowered
        assert "2.87" in readme
        assert "18.5" in readme
        assert "2.9×" in readme or "2.9x" in readme
        assert "tables" in lowered


class TestCriterion9PerformanceSanity:
    def test_fpmfp_within_20x_of_mfp_on_large_program(self):
        program = parse_program(perf_program())
        analysis = make_analysis("rd", program)
        universe = detect_mips(program)
        assert sum(len(p.cfg.nodes) for p in program.procedures) >= 2000
        assert len(universe.all) == 200

        def best_of(fn, repeats=3):
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                fn()
                times.append(time.perf_counter() - start)
            return min(times)

        mfp_time = best_of(lambda: solve_mfp(program, analysis))
        fpmfp_time = best_of(lambda: solve_fpmfp_interprocedural(
            program, analysis, universe))
        assert fpmfp_time <= 20 * mfp_time, (mfp_time, fpmfp_time)
