"""Client reports over solved programs.

Two consumers sit on top of the solvers: def-use pairs read off the
reaching-definitions solution, and possibly-uninitialized-variable alarms
read off the complement of the must-defined solution.  Both come in a
single-solution form (a plain list for one mode) and a two-mode report
with totals and the removal percentage.  ``compare_modes`` runs both
solvers on one program and tabulates where the feasible-path mode is
strictly more precise, along with wall times and pair statistics.  Both
modes' solutions are ``FpmfpProgramSolution``s (MFP is the solve over no
segments), so every reader takes the folded views of either alike.
"""
from __future__ import annotations

import time
from collections import namedtuple

from .frontend import MiniIrProgram, build_call_graph
from .lattice import Analysis
from .lifted import (
    ALL_OPTS,
    FpmfpProgramSolution,
    solve_fpmfp_interprocedural,
)
from .mfp import solve_mfp
from .mips import MipsUniverse, detect_mips


class PrecisionViolation(RuntimeError):
    """The feasible-path solution failed to refine the plain solution."""


class DefUse(namedtuple("DefUse", "def_node use_node var")):
    """One definition (node ``def_node``) reaching one use (node
    ``use_node``) of variable ``var``."""

    __slots__ = ()


class Alarm(namedtuple("Alarm", "use_node var")):
    """A use (node ``use_node``) of variable ``var``, which may be
    uninitialized there."""

    __slots__ = ()


def _require(solution, analysis_name: str, what: str) -> None:
    if solution.analysis.name != analysis_name:
        raise ValueError(
            f"{what} needs the {analysis_name} analysis, "
            f"got {solution.analysis.name}")


def _use_order(pair: DefUse) -> tuple:
    return (pair.use_node, pair.var, pair.def_node)


def _uses(program: MiniIrProgram):
    """Each node that uses a variable, in procedure then node-id order,
    with its used variables sorted."""
    for proc in program.procedures:
        nodes = proc.cfg.nodes
        for nid in sorted(nodes):
            used = nodes[nid].statement.uses()
            if used:
                yield nid, sorted(used)


def def_use_pairs(program: MiniIrProgram,
                  solution: FpmfpProgramSolution) -> tuple[DefUse, ...]:
    """Every (def site, use site, variable) triple the solution reports.

    Works on either mode's reaching-definitions solution; ordering is by
    use site, then variable, then def site.
    """
    _require(solution, "rd", "def-use pairs")
    values = solution.folded_in
    analysis = solution.analysis
    out: list[DefUse] = []
    for nid, used in _uses(program):
        value = values[nid]
        for var in used:
            for _, def_node in analysis.decode(
                    value & analysis.var_mask.get(var, 0)):
                out.append(DefUse(def_node, nid, var))
    return tuple(sorted(out, key=_use_order))


def uninit_alarms(program: MiniIrProgram,
                  solution: FpmfpProgramSolution) -> tuple[Alarm, ...]:
    """Uses not covered by the must-defined solution, in site order."""
    _require(solution, "must-defined", "uninitialized-use alarms")
    values = solution.folded_in
    analysis = solution.analysis
    out: list[Alarm] = []
    for nid, used in _uses(program):
        defined = set(analysis.decode(values[nid]))
        out += [Alarm(nid, var) for var in used if var not in defined]
    return tuple(sorted(out))


def _reduction(before: int, after: int) -> float | None:
    """Removal percentage; None when there was nothing to remove."""
    if before == 0:
        return None
    return 100.0 * (before - after) / before


class _TwoModeReport:
    """One client's findings in both modes with their removal percentage.

    ``_noun`` names the findings in errors and ``_key`` in JSON;
    ``compare_key`` is the key ``compare`` writes the report under, and
    ``_order`` sorts the findings.  A report whose feasible-path findings
    are not a subset of the plain ones is never built.
    """

    def __init__(self, mfp: tuple, fpmfp: tuple) -> None:
        if not set(fpmfp) <= set(mfp):
            extra = sorted(set(fpmfp) - set(mfp))
            raise PrecisionViolation(
                f"feasible-path mode invented {self._noun}: {extra}")
        self.mfp = mfp
        self.fpmfp = fpmfp

    @property
    def totals(self) -> dict[str, int]:
        return {"mfp": len(self.mfp), "fpmfp": len(self.fpmfp)}

    @property
    def removed(self) -> tuple:
        return tuple(sorted(set(self.mfp) - set(self.fpmfp),
                            key=self._order))

    @property
    def reduction(self) -> float | None:
        return _reduction(len(self.mfp), len(self.fpmfp))

    def to_json(self) -> dict:
        reduction = self.reduction
        return {
            self._key: {
                "mfp": [list(p) for p in self.mfp],
                "fpmfp": [list(p) for p in self.fpmfp],
            },
            "totals": self.totals,
            "removed": [list(p) for p in self.removed],
            "reduction_percent": (
                None if reduction is None else round(reduction, 2)),
        }


class DefUseReport(_TwoModeReport):
    """Def-use pairs of both modes with their removal percentage."""

    _noun, _key, _order = "def-use pairs", "pairs", staticmethod(_use_order)
    compare_key = "def_use"


class UninitReport(_TwoModeReport):
    """Possibly-uninitialized-use alarms of both modes."""

    _noun, _key, _order = "alarms", "alarms", None
    compare_key = "alarms"


def def_use_report(program: MiniIrProgram, flat: FpmfpProgramSolution,
                   lifted: FpmfpProgramSolution) -> DefUseReport:
    return DefUseReport(
        mfp=def_use_pairs(program, flat),
        fpmfp=def_use_pairs(program, lifted),
    )


def uninit_report(program: MiniIrProgram, flat: FpmfpProgramSolution,
                  lifted: FpmfpProgramSolution) -> UninitReport:
    return UninitReport(
        mfp=uninit_alarms(program, flat),
        fpmfp=uninit_alarms(program, lifted),
    )


_CLIENT_REPORTS = {"rd": def_use_report, "must-defined": uninit_report}


class ModeRow(namedtuple("ModeRow", "mfp fpmfp strict")):
    """One location's value in both modes, and whether the feasible-path
    one is strictly more precise."""

    __slots__ = ()


def _mode_rows(analysis: Analysis, flat: dict[int, object],
               folded: dict[int, object], what: str) -> dict[int, ModeRow]:
    """Both modes' values per location, in location order; raises
    ``PrecisionViolation`` for the least location
    ``analysis.unrefined`` names."""
    failing = analysis.unrefined(flat, folded)
    if failing:
        loc = min(failing)
        raise PrecisionViolation(
            f"feasible-path value at {what} {loc} does not refine the "
            f"plain one: {analysis.format(folded[loc])} vs "
            f"{analysis.format(flat[loc])}")
    return {loc: ModeRow(flat[loc], folded[loc], flat[loc] != folded[loc])
            for loc in sorted(flat)}


class ComparisonReport(namedtuple("ComparisonReport", (
        "analysis", "opts", "segment_count", "node_rows", "edge_rows",
        "times", "stats", "client"))):
    """Both modes on one program: values, strictness, times, pair stats.

    ``node_rows`` and ``edge_rows`` map each location to its ``ModeRow``,
    ``times`` each mode to its wall time, and ``stats`` holds the
    feasible-path solve's ``PairStats``.  ``client`` is the def-use (rd)
    or alarm (must-defined) report of both modes, and None for other
    analyses.
    """

    __slots__ = ()

    @property
    def strict_nodes(self) -> tuple[int, ...]:
        return tuple(n for n, row in sorted(self.node_rows.items())
                     if row.strict)

    @property
    def strict_edges(self) -> tuple[int, ...]:
        return tuple(e for e, row in sorted(self.edge_rows.items())
                     if row.strict)

    def to_json(self, *, timing: bool = True) -> dict:
        view = self.analysis.to_json

        def record(row: ModeRow) -> dict:
            low = view(row.mfp)
            return {"mfp": low, "fpmfp": view(row.fpmfp) if row.strict
                    else low, "strict": row.strict}

        out = {
            "analysis": self.analysis.name,
            "opts": list(self.opts),
            "segments": self.segment_count,
            "nodes": {str(n): record(row)
                      for n, row in sorted(self.node_rows.items())},
            "edges": {str(e): record(row)
                      for e, row in sorted(self.edge_rows.items())},
            "strict_nodes": list(self.strict_nodes),
            "strict_edges": list(self.strict_edges),
            "stats": {
                "max_pairs": self.stats.max_pairs,
                "blocked": self.stats.blocked,
                "end_merges": self.stats.end_merges,
                "value_shifts": self.stats.value_shifts,
            },
        }
        if timing:
            out["times"] = dict(self.times)
        return out


def compare_modes(program: MiniIrProgram, analysis: Analysis,
                  opts: frozenset[int] = ALL_OPTS, *,
                  universe: MipsUniverse | None = None) -> ComparisonReport:
    """Solve one program both ways and tabulate the differences.

    The feasible-path values must refine the plain ones everywhere; a
    failure raises ``PrecisionViolation`` and indicates a solver bug.  One
    call graph serves detection and both solves.
    """
    call_graph = build_call_graph(program)
    if universe is None:
        universe = detect_mips(program, call_graph)

    # Both windows include folding the edge values.
    start = time.perf_counter()
    flat = solve_mfp(program, analysis, call_graph=call_graph)
    flat_edges = flat.folded_edges
    flat_time = time.perf_counter() - start

    start = time.perf_counter()
    lifted = solve_fpmfp_interprocedural(program, analysis, universe, opts,
                                         call_graph=call_graph)
    lifted_edges = lifted.folded_edges
    lifted_time = time.perf_counter() - start

    node_rows = _mode_rows(analysis, flat.folded_in, lifted.folded_in,
                           "node")
    edge_rows = _mode_rows(analysis, flat_edges, lifted_edges, "edge")
    client = _CLIENT_REPORTS.get(analysis.name)
    return ComparisonReport(
        analysis=analysis,
        opts=tuple(sorted(opts)),
        segment_count=len(universe),
        node_rows=node_rows,
        edge_rows=edge_rows,
        times={"mfp": flat_time, "fpmfp": lifted_time},
        stats=lifted.stats,
        client=client(program, flat, lifted) if client else None,
    )
