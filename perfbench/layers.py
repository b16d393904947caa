"""The traced run: each module's public functions called in process.

``pipeline`` does, per program, what ``detect-mips``, ``compare`` and
``oracle-check`` do between them, with a span around every call into a
layer (frontend, mips, lattice, mfp, lifted, clients, cli, oracle) and
the layer's own counts read off its results.  Detection runs the real
``detect_mips`` with span-wrapping shims bound over its two steps, so
the steps get spans of their own; the self time of the ``mips.detect``
span is the universe build.  ``FpmfpSolution`` folds eagerly, inside the
solve, so ``lifted.solve`` includes that fold; ``lifted.fold`` times the
same fold work done again with ``fold`` and checks it gives the same
values.

Fresh-universe rule: ``MipsUniverse`` memoizes ``cso`` per (edge,
segment), so a solve on a universe another solve already used reads that
solve's cache.  Every timed solve gets a universe of its own.
"""
from __future__ import annotations

import collections
import json
import math
import subprocess
import time
from pathlib import Path
from unittest import mock

from fpmfp import cli, mips
from fpmfp.clients import compare_modes, def_use_report, uninit_report
from fpmfp.frontend import build_call_graph, parse_program
from fpmfp.lattice import BitvectorAnalysis, make_analysis
from fpmfp.lifted import (
    compute_lifted_summaries,
    fold,
    solve_fpmfp_interprocedural,
)
from fpmfp.mfp import compute_summaries, solve_mfp
from fpmfp.mips import MipsUniverse, detect_mips, detect_step1, detect_step2
from fpmfp.oracle import Explosion, mips_free_meets, solution_semantics

from spans import NullTracer, Tracer

# CLI flag -> registered analysis name, as ``fpmfp compare`` maps them.
ANALYSES = (("rd", "rd"), ("uninit", "must-defined"),
            ("interval", "interval"))
BITVECTOR = ("rd", "uninit")
MODULES = ("frontend", "mips", "lattice", "mfp", "lifted", "clients",
           "cli", "oracle")


def _fresh(universe: MipsUniverse) -> MipsUniverse:
    return MipsUniverse(universe.program, list(universe.all))


def _detect(tracer, program, call_graph, counts) -> MipsUniverse:
    """``detect_mips`` with a span per step: it looks its steps up as
    module globals, so shims bound there for the call see every step."""
    def step1(*args):
        with tracer.span("mips.step1"):
            found = detect_step1(*args)
        counts["mips.queries"] += len(found.queries)
        counts["mips.answers"] += len(found.answers)
        return found

    def step2(*args):
        with tracer.span("mips.step2"):
            return detect_step2(*args)

    with mock.patch.object(mips, "detect_step1", step1), \
            mock.patch.object(mips, "detect_step2", step2), \
            tracer.span("mips.detect"):
        universe = detect_mips(program, call_graph)
    counts["mips.segments"] += len(universe)
    return universe


def _refold(lifted) -> list[tuple[dict, dict]]:
    """Per procedure and per In/Out/edge map: (values folded again, the
    solution's own folded values)."""
    analysis = lifted.analysis
    out = []
    for sol in lifted.procs.values():
        for values, folded in ((sol.node_in, sol.folded_in),
                               (sol.node_out, sol.folded_out),
                               (sol.edge_values, sol.folded_edges)):
            out.append(({key: fold(v, analysis) for key, v in values.items()},
                        folded))
    return out


def _oracle(tracer, program, lifted, universe, max_len, counts) -> None:
    analysis = lifted.analysis
    for proc in program.procedures:
        node_transfer, refine = solution_semantics(lifted, proc)
        counts["oracle.attempts"] += 1
        try:
            with tracer.span("oracle.meets"):
                meets = mips_free_meets(
                    proc.cfg, universe, proc.name,
                    boundary=lifted.boundaries[proc.name],
                    top=analysis.top(), meet=analysis.meet,
                    node_transfer=node_transfer, refine=refine,
                    max_len=max_len or 2 * len(proc.cfg.edges))
        except Explosion:
            counts["oracle.explosions"] += 1
            continue
        counts["oracle.expansions"] += meets.expansions
        counts["oracle.truncated"] += meets.truncated


def pipeline(tracer, sources, max_len) -> tuple[dict, list[dict]]:
    """Run every layer on every (name, source); return counts and, per
    program, the client results the checks read."""
    counts: dict[str, int] = collections.defaultdict(int)
    results = []
    for run, (_, source) in enumerate(sources):
        tracer.run = run
        result: dict = {}
        with tracer.span("pipeline"):
            with tracer.span("frontend.parse"):
                program = parse_program(source)
            with tracer.span("frontend.callgraph"):
                call_graph = build_call_graph(program)
            for proc in program.procedures:
                counts["frontend.nodes"] += len(proc.cfg.nodes)
                counts["frontend.edges"] += len(proc.cfg.edges)
            universe = _detect(tracer, program, call_graph, counts)
            result["segments"] = len(universe)
            for flag, name in ANALYSES:
                with tracer.span(f"lattice.setup.{flag}"):
                    analysis = make_analysis(name, program)
                bitvector = isinstance(analysis, BitvectorAnalysis)
                if bitvector:
                    with tracer.span(f"mfp.summaries.{flag}"):
                        compute_summaries(program, analysis, call_graph)
                with tracer.span(f"mfp.solve.{flag}"):
                    flat = solve_mfp(program, analysis,
                                     call_graph=call_graph)
                counts[f"mfp.steps.{flag}"] += flat.steps
                if bitvector:
                    with tracer.span(f"lifted.summaries.{flag}"):
                        compute_lifted_summaries(
                            program, analysis, _fresh(universe),
                            call_graph=call_graph)
                fresh = _fresh(universe)
                with tracer.span(f"lifted.solve.{flag}"):
                    lifted = solve_fpmfp_interprocedural(
                        program, analysis, fresh, call_graph=call_graph)
                with tracer.span(f"lifted.fold.{flag}"):
                    refolded = _refold(lifted)
                if any(again != own for again, own in refolded):
                    result.setdefault("fold_mismatch", []).append(flag)
                stats = lifted.stats
                counts[f"lifted.steps.{flag}"] += lifted.steps
                counts[f"lifted.max_pairs.{flag}"] = max(
                    counts[f"lifted.max_pairs.{flag}"], stats.max_pairs)
                counts[f"lifted.blocked.{flag}"] += stats.blocked
                counts[f"lifted.end_merges.{flag}"] += stats.end_merges
                counts[f"lifted.value_shifts.{flag}"] += stats.value_shifts
                counts[f"lifted.live_pairs.{flag}"] += sum(
                    len(pairs) for pairs in lifted.node_in.values())
                with tracer.span(f"clients.compare.{flag}"):
                    report = compare_modes(program, analysis,
                                           universe=_fresh(universe))
                counts[f"clients.strict_nodes.{flag}"] += len(
                    report.strict_nodes)
                client = None
                if flag == "rd":
                    with tracer.span("clients.report.rd"):
                        client = def_use_report(program, flat, lifted)
                    counts["clients.def_use_removed"] += len(client.removed)
                    counts["clients.def_use_mfp"] += len(client.mfp)
                    result["removed_vars"] = sorted(
                        p.var for p in client.removed)
                elif flag == "uninit":
                    with tracer.span("clients.report.uninit"):
                        client = uninit_report(program, flat, lifted)
                    result["alarms"] = (len(client.mfp), len(client.fpmfp))
                with tracer.span(f"clients.to_json.{flag}"):
                    payload = {"schema": cli.SCHEMA,
                               **report.to_json(timing=False)}
                    if client is not None:
                        key = "def_use" if flag == "rd" else "alarms"
                        payload[key] = client.to_json()
                with tracer.span(f"cli.emit.{flag}"):
                    text = json.dumps(payload, indent=2, sort_keys=True)
                counts[f"cli.report_bytes.{flag}"] += len(text) + 1
                _oracle(tracer, program, lifted, universe, max_len, counts)
        results.append(result)
    return counts, results


def scaling_point(source: str) -> tuple[int, float, float, int]:
    """(nodes, detect seconds, interval FPMFP seconds, interval FPMFP
    steps) on one program, untraced."""
    program = parse_program(source)
    nodes = sum(len(p.cfg.nodes) for p in program.procedures)
    start = time.perf_counter()
    universe = detect_mips(program)
    detect_s = time.perf_counter() - start
    analysis = make_analysis("interval", program)
    start = time.perf_counter()
    lifted = solve_fpmfp_interprocedural(program, analysis, _fresh(universe))
    solve_s = time.perf_counter() - start
    return nodes, detect_s, solve_s, lifted.steps


def exponent(full: float, half: float, nodes_full: int,
             nodes_half: int) -> float:
    return math.log(full / half) / math.log(nodes_full / nodes_half)


def cli_overhead(program_path: Path, out: Path, env: dict,
                 python: str) -> dict[str, tuple[float, float, bytes]]:
    """Per analysis: ``compare`` as a child process and as an in-process
    ``cli.main`` call; returns (child wall, in-process wall, report)."""
    out_of = {}
    for flag, _ in ANALYSES:
        argv = ["compare", "--program", str(program_path), "--analysis",
                flag, "--no-timing", "--output", str(out)]
        start = time.perf_counter()
        # A pipe, not DEVNULL: see ``run.py``'s set-up.
        child = subprocess.run([python, "-m", "fpmfp.cli", *argv],
                               env=env, stdout=subprocess.DEVNULL,
                               stderr=subprocess.PIPE, timeout=120)
        wall = time.perf_counter() - start
        child_report = out.read_bytes() if child.returncode == 0 else b""
        start = time.perf_counter()
        code = cli.main(argv)
        inproc = time.perf_counter() - start
        same = code == 0 and out.read_bytes() == child_report
        out_of[flag] = (wall, inproc, child_report if same else b"")
    return out_of


def layer_metrics(tracer: Tracer, counts: dict) -> dict[str, float]:
    """Per-layer metric values from the spans and counts of one traced
    pass."""
    totals = tracer.totals()
    metrics: dict[str, float] = {}

    def total(name: str) -> float:
        return totals.get(name, (0.0, 0.0))[0]

    metrics["frontend.parse_s"] = total("frontend.parse")
    metrics["frontend.callgraph_s"] = total("frontend.callgraph")
    metrics["frontend.nodes"] = counts["frontend.nodes"]
    metrics["frontend.edges"] = counts["frontend.edges"]
    metrics["frontend.nodes_per_s"] = (
        counts["frontend.nodes"] / total("frontend.parse"))
    metrics["mips.step1_s"] = total("mips.step1")
    metrics["mips.step2_s"] = total("mips.step2")
    metrics["mips.detect_s"] = total("mips.detect")
    metrics["mips.universe_s"] = totals["mips.detect"][1]
    for key in ("queries", "answers", "segments"):
        metrics[f"mips.{key}"] = counts[f"mips.{key}"]
    metrics["mips.segments_per_query"] = (
        counts["mips.segments"] / counts["mips.queries"])
    for flag, _ in ANALYSES:
        metrics[f"lattice.setup_s.{flag}"] = total(f"lattice.setup.{flag}")
        if flag in BITVECTOR:
            metrics[f"mfp.summaries_s.{flag}"] = total(
                f"mfp.summaries.{flag}")
            metrics[f"lifted.summaries_s.{flag}"] = total(
                f"lifted.summaries.{flag}")
        metrics[f"mfp.solve_s.{flag}"] = total(f"mfp.solve.{flag}")
        metrics[f"mfp.steps.{flag}"] = counts[f"mfp.steps.{flag}"]
        metrics[f"lifted.solve_s.{flag}"] = total(f"lifted.solve.{flag}")
        metrics[f"lifted.fold_s.{flag}"] = total(f"lifted.fold.{flag}")
        for key in ("steps", "max_pairs", "blocked", "end_merges",
                    "value_shifts", "live_pairs"):
            metrics[f"lifted.{key}.{flag}"] = counts[f"lifted.{key}.{flag}"]
        metrics[f"lifted.fpmfp_over_mfp.{flag}"] = (
            total(f"lifted.solve.{flag}") / total(f"mfp.solve.{flag}"))
        metrics[f"clients.compare_s.{flag}"] = total(
            f"clients.compare.{flag}")
        if flag in BITVECTOR:
            metrics[f"clients.report_s.{flag}"] = total(
                f"clients.report.{flag}")
        metrics[f"clients.to_json_s.{flag}"] = total(
            f"clients.to_json.{flag}")
        metrics[f"clients.strict_nodes.{flag}"] = counts[
            f"clients.strict_nodes.{flag}"]
        metrics[f"cli.emit_s.{flag}"] = total(f"cli.emit.{flag}")
        metrics[f"cli.report_bytes.{flag}"] = counts[
            f"cli.report_bytes.{flag}"]
    metrics["clients.def_use_removed"] = counts["clients.def_use_removed"]
    metrics["clients.def_use_mfp"] = counts["clients.def_use_mfp"]
    metrics["oracle.meets_s"] = total("oracle.meets")
    metrics["oracle.expansions"] = counts["oracle.expansions"]
    metrics["oracle.attempts"] = counts["oracle.attempts"]
    metrics["oracle.explosions"] = counts["oracle.explosions"]
    metrics["oracle.truncated_ratio"] = (
        counts["oracle.truncated"] / counts["oracle.attempts"])
    self_by_module = dict.fromkeys(MODULES, 0.0)
    for name, (_, own) in totals.items():
        module = name.split(".")[0]
        if module in self_by_module:
            self_by_module[module] += own
    for module, own in self_by_module.items():
        metrics[f"{module}.self_s"] = own
    return metrics
