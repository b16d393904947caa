"""Client reports over solved programs.

Two consumers sit on top of the solvers: def-use pairs read off the
reaching-definitions solution, and possibly-uninitialized-variable alarms
read off the complement of the must-defined solution.  Both come in a
single-solution form (a plain list for one mode) and a two-mode report
with totals and the removal percentage.  ``compare_modes`` runs both
solvers on one program and tabulates where the feasible-path mode is
strictly more precise, along with wall times and pair statistics.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

from .frontend import MiniIrProgram
from .lattice import Analysis, make_analysis
from .lifted import (
    ALL_OPTS,
    FpmfpProgramSolution,
    PairStats,
    solve_fpmfp_interprocedural,
)
from .mfp import MfpSolution, solve_mfp
from .mips import MipsUniverse, detect_mips


class PrecisionViolation(RuntimeError):
    """The feasible-path solution failed to refine the plain solution."""


class DefUse(NamedTuple):
    """One definition reaching one use of a variable."""

    def_node: int
    use_node: int
    var: str


class Alarm(NamedTuple):
    """A use of a variable that may be uninitialized there."""

    use_node: int
    var: str


def _node_values(solution) -> dict[int, object]:
    """Per-node values of either mode: folded for the lifted solution."""
    if isinstance(solution, FpmfpProgramSolution):
        return solution.folded_in
    return solution.node_in


def _require(solution, analysis_name: str, what: str) -> None:
    if solution.analysis.name != analysis_name:
        raise ValueError(
            f"{what} needs the {analysis_name} analysis, "
            f"got {solution.analysis.name}")


def def_use_pairs(program: MiniIrProgram, solution) -> tuple[DefUse, ...]:
    """Every (def site, use site, variable) triple the solution reports.

    Works on either mode's reaching-definitions solution; ordering is by
    use site, then variable, then def site.
    """
    _require(solution, "rd", "def-use pairs")
    values = _node_values(solution)
    analysis = solution.analysis
    out: list[DefUse] = []
    for proc in program.procedures:
        for nid in proc.cfg.node_ids():
            used = proc.cfg.nodes[nid].statement.uses()
            if not used:
                continue
            value = values[nid]
            for var in sorted(used):
                for _, def_node in analysis.decode(
                        value & analysis.var_mask.get(var, 0)):
                    out.append(DefUse(def_node, nid, var))
    return tuple(sorted(out, key=lambda p: (p.use_node, p.var, p.def_node)))


def uninit_alarms(program: MiniIrProgram, solution) -> tuple[Alarm, ...]:
    """Uses not covered by the must-defined solution, in site order."""
    _require(solution, "must-defined", "uninitialized-use alarms")
    values = _node_values(solution)
    analysis = solution.analysis
    out: list[Alarm] = []
    for proc in program.procedures:
        for nid in proc.cfg.node_ids():
            used = proc.cfg.nodes[nid].statement.uses()
            if not used:
                continue
            defined = set(analysis.decode(values[nid]))
            for var in sorted(used):
                if var not in defined:
                    out.append(Alarm(nid, var))
    return tuple(sorted(out))


def _reduction(before: int, after: int) -> float | None:
    """Removal percentage; None when there was nothing to remove."""
    if before == 0:
        return None
    return 100.0 * (before - after) / before


def _percent_text(value: float | None) -> str:
    return "-" if value is None else f"{value:.1f}%"


@dataclass(frozen=True)
class DefUseReport:
    """Def-use pairs of both modes with their removal percentage."""

    mfp: tuple[DefUse, ...]
    fpmfp: tuple[DefUse, ...]

    def __post_init__(self) -> None:
        if not set(self.fpmfp) <= set(self.mfp):
            extra = sorted(set(self.fpmfp) - set(self.mfp))
            raise PrecisionViolation(
                f"feasible-path mode invented def-use pairs: {extra}")

    @property
    def totals(self) -> dict[str, int]:
        return {"mfp": len(self.mfp), "fpmfp": len(self.fpmfp)}

    @property
    def removed(self) -> tuple[DefUse, ...]:
        gone = set(self.mfp) - set(self.fpmfp)
        return tuple(sorted(gone, key=lambda p: (p.use_node, p.var,
                                                 p.def_node)))

    @property
    def reduction(self) -> float | None:
        return _reduction(len(self.mfp), len(self.fpmfp))

    def to_json(self) -> dict:
        reduction = self.reduction
        return {
            "pairs": {
                "mfp": [list(p) for p in self.mfp],
                "fpmfp": [list(p) for p in self.fpmfp],
            },
            "totals": self.totals,
            "removed": [list(p) for p in self.removed],
            "reduction_percent": (
                None if reduction is None else round(reduction, 2)),
        }

    def to_table(self) -> str:
        lines = [
            f"def-use pairs  mfp={len(self.mfp)}  fpmfp={len(self.fpmfp)}"
            f"  reduction={_percent_text(self.reduction)}",
        ]
        fpmfp = set(self.fpmfp)
        for pair in self.mfp:
            kept = "kept " if pair in fpmfp else "gone "
            lines.append(
                f"  {kept} n{pair.def_node} -> n{pair.use_node}"
                f"  {pair.var}")
        return "\n".join(lines)


@dataclass(frozen=True)
class UninitReport:
    """Possibly-uninitialized-use alarms of both modes."""

    mfp: tuple[Alarm, ...]
    fpmfp: tuple[Alarm, ...]

    def __post_init__(self) -> None:
        if not set(self.fpmfp) <= set(self.mfp):
            extra = sorted(set(self.fpmfp) - set(self.mfp))
            raise PrecisionViolation(
                f"feasible-path mode invented alarms: {extra}")

    @property
    def totals(self) -> dict[str, int]:
        return {"mfp": len(self.mfp), "fpmfp": len(self.fpmfp)}

    @property
    def removed(self) -> tuple[Alarm, ...]:
        return tuple(sorted(set(self.mfp) - set(self.fpmfp)))

    @property
    def reduction(self) -> float | None:
        return _reduction(len(self.mfp), len(self.fpmfp))

    def to_json(self) -> dict:
        reduction = self.reduction
        return {
            "alarms": {
                "mfp": [list(a) for a in self.mfp],
                "fpmfp": [list(a) for a in self.fpmfp],
            },
            "totals": self.totals,
            "removed": [list(a) for a in self.removed],
            "reduction_percent": (
                None if reduction is None else round(reduction, 2)),
        }

    def to_table(self) -> str:
        lines = [
            f"uninitialized uses  mfp={len(self.mfp)}"
            f"  fpmfp={len(self.fpmfp)}"
            f"  reduction={_percent_text(self.reduction)}",
        ]
        fpmfp = set(self.fpmfp)
        for alarm in self.mfp:
            kept = "kept " if alarm in fpmfp else "gone "
            lines.append(f"  {kept} n{alarm.use_node}  {alarm.var}")
        return "\n".join(lines)


def def_use_report(program: MiniIrProgram, flat: MfpSolution,
                   lifted: FpmfpProgramSolution) -> DefUseReport:
    return DefUseReport(
        mfp=def_use_pairs(program, flat),
        fpmfp=def_use_pairs(program, lifted),
    )


def uninit_report(program: MiniIrProgram, flat: MfpSolution,
                  lifted: FpmfpProgramSolution) -> UninitReport:
    return UninitReport(
        mfp=uninit_alarms(program, flat),
        fpmfp=uninit_alarms(program, lifted),
    )


_CLIENT_REPORTS = {"rd": def_use_report, "must-defined": uninit_report}


class ModeRow(NamedTuple):
    """One location's value in both modes."""

    mfp: object
    fpmfp: object
    strict: bool


def _check_refines(analysis: Analysis, flat: dict[int, object],
                   folded: dict[int, object],
                   what: str) -> dict[int, ModeRow]:
    rows: dict[int, ModeRow] = {}
    for loc in sorted(flat):
        low, high = flat[loc], folded[loc]
        if not analysis.leq(low, high):
            raise PrecisionViolation(
                f"feasible-path value at {what} {loc} does not refine the "
                f"plain one: {analysis.format(high)} vs "
                f"{analysis.format(low)}")
        rows[loc] = ModeRow(low, high, low != high)
    return rows


@dataclass(frozen=True)
class ComparisonReport:
    """Both modes on one program: values, strictness, times, pair stats.

    ``client`` is the def-use (rd) or alarm (must-defined) report of both
    modes, and None for other analyses.
    """

    analysis: Analysis
    opts: tuple[int, ...]
    segment_count: int
    node_rows: dict[int, ModeRow]
    edge_rows: dict[int, ModeRow]
    times: dict[str, float]
    stats: PairStats
    client: DefUseReport | UninitReport | None

    @property
    def strict_nodes(self) -> tuple[int, ...]:
        return tuple(n for n, row in sorted(self.node_rows.items())
                     if row.strict)

    @property
    def strict_edges(self) -> tuple[int, ...]:
        return tuple(e for e, row in sorted(self.edge_rows.items())
                     if row.strict)

    def to_json(self, *, timing: bool = True) -> dict:
        view = self.analysis.json_views()

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

    def to_table(self) -> str:
        fmt = self.analysis.format
        lines = [
            f"analysis={self.analysis.name}  segments={self.segment_count}"
            f"  strict nodes={list(self.strict_nodes)}"
            f"  strict edges={list(self.strict_edges)}",
        ]
        for nid, row in sorted(self.node_rows.items()):
            mark = "*" if row.strict else " "
            lines.append(f"  n{nid} {mark} mfp: {fmt(row.mfp)}")
            lines.append(f"       {mark} fp:  {fmt(row.fpmfp)}")
        return "\n".join(lines)


def compare_modes(program: MiniIrProgram, analysis,
                  opts: frozenset[int] = ALL_OPTS, *,
                  universe: MipsUniverse | None = None) -> ComparisonReport:
    """Solve one program both ways and tabulate the differences.

    ``analysis`` is an instance or a registry name.  The feasible-path
    values must refine the plain ones everywhere; a failure raises
    ``PrecisionViolation`` and indicates a solver bug.
    """
    if isinstance(analysis, str):
        analysis = make_analysis(analysis, program)
    if universe is None:
        universe = detect_mips(program)

    start = time.perf_counter()
    flat = solve_mfp(program, analysis)
    flat_time = time.perf_counter() - start

    # Both windows include folding the edge values, which MFP does eagerly.
    start = time.perf_counter()
    lifted = solve_fpmfp_interprocedural(program, analysis, universe, opts)
    lifted_edges = lifted.folded_edges
    lifted_time = time.perf_counter() - start

    node_rows = _check_refines(
        analysis, flat.node_in, lifted.folded_in, "node")
    edge_rows = _check_refines(
        analysis, flat.edge_values, lifted_edges, "edge")
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
