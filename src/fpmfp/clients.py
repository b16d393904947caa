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
from typing import NamedTuple

from .frontend import MiniIrProgram, build_call_graph
from .lattice import Analysis
from .lifted import (
    ALL_OPTS,
    FpmfpProgramSolution,
    PairStats,
    solve_fpmfp_interprocedural,
)
from .mfp import solve_mfp
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


def _require(solution, analysis_name: str, what: str) -> None:
    if solution.analysis.name != analysis_name:
        raise ValueError(
            f"{what} needs the {analysis_name} analysis, "
            f"got {solution.analysis.name}")


def _use_order(pair: DefUse) -> tuple:
    return (pair.use_node, pair.var, pair.def_node)


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
    return tuple(sorted(out, key=_use_order))


def uninit_alarms(program: MiniIrProgram,
                  solution: FpmfpProgramSolution) -> tuple[Alarm, ...]:
    """Uses not covered by the must-defined solution, in site order."""
    _require(solution, "must-defined", "uninitialized-use alarms")
    values = solution.folded_in
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


class _TwoModeReport:
    """One client's findings in both modes with their removal percentage.

    ``_noun`` names the findings in errors and ``_key`` in JSON; ``_order``
    sorts them.  A report whose feasible-path findings are not a subset of
    the plain ones is never built.
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

    def _table(self, header: str, row) -> str:
        lines = [f"{header}  mfp={len(self.mfp)}  fpmfp={len(self.fpmfp)}"
                 f"  reduction={_percent_text(self.reduction)}"]
        fpmfp = set(self.fpmfp)
        for item in self.mfp:
            kept = "kept " if item in fpmfp else "gone "
            lines.append(f"  {kept} {row(item)}")
        return "\n".join(lines)


class DefUseReport(_TwoModeReport):
    """Def-use pairs of both modes with their removal percentage."""

    _noun, _key, _order = "def-use pairs", "pairs", staticmethod(_use_order)

    def to_table(self) -> str:
        return self._table("def-use pairs", lambda p: (
            f"n{p.def_node} -> n{p.use_node}  {p.var}"))


class UninitReport(_TwoModeReport):
    """Possibly-uninitialized-use alarms of both modes."""

    _noun, _key, _order = "alarms", "alarms", None

    def to_table(self) -> str:
        return self._table("uninitialized uses",
                           lambda a: f"n{a.use_node}  {a.var}")


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


class ComparisonReport(NamedTuple):
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

    node_rows = _check_refines(
        analysis, flat.folded_in, lifted.folded_in, "node")
    edge_rows = _check_refines(analysis, flat_edges, lifted_edges, "edge")
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
