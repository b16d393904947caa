"""Classic forward MFP: the feasible-path engine over no segments.

With an empty segment universe nothing is ever tracked or blocked, every
lifted value holds at most the single empty-key pair, and its fold is the
plain value.  MFP is therefore
:func:`fpmfp.lifted.solve_fpmfp_interprocedural` run over
``MipsUniverse(program, [])``, and its solution is the same
:class:`fpmfp.lifted.FpmfpProgramSolution`: the plain node In, node Out
and edge values are its ``folded_in``, ``folded_out`` and
``folded_edges``.  The call summaries are the lifted summaries over the
same empty universe.  No normalization is requested: merging and
shifting need two pairs, and dropping a top pair changes no fold.
"""

from __future__ import annotations

from .frontend import CallGraph, MiniIrProgram
from .lattice import Analysis, BitvectorAnalysis
from .lifted import (
    FpmfpProgramSolution,
    Summaries,
    compute_lifted_summaries,
    solve_fpmfp_interprocedural,
)
from .mips import MipsUniverse


def compute_summaries(program: MiniIrProgram, analysis: BitvectorAnalysis,
                      call_graph: CallGraph) -> Summaries:
    """Gen/kill masks per procedure, with no segment blocked."""
    return compute_lifted_summaries(
        program, analysis, MipsUniverse(program, []), frozenset(),
        call_graph=call_graph)


def solve_mfp(program: MiniIrProgram, analysis: Analysis, *,
              widen: bool = True,
              call_graph: CallGraph | None = None) -> FpmfpProgramSolution:
    """Whole-program MFP solution for one analysis."""
    return solve_fpmfp_interprocedural(
        program, analysis, MipsUniverse(program, []), frozenset(),
        widen=widen, call_graph=call_graph)
