"""Classic forward MFP: the feasible-path engine over no segments.

With an empty segment universe nothing is ever tracked or blocked, every
lifted value holds at most the single empty-key pair, and its fold is the
plain value.  MFP is therefore
:func:`fpmfp.lifted.solve_fpmfp_interprocedural` run over
``MipsUniverse(program, [])``, projected to plain node In and edge
values; the call summaries are the lifted summaries over the same empty
universe.  No normalization is requested: merging and shifting
need two pairs, and dropping a top pair changes no fold.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .frontend import CallGraph, MiniIrProgram
from .lattice import Analysis, BitvectorAnalysis
from .lifted import (
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


class MfpSolution(NamedTuple):
    """Plain node In and edge values: the folds of the one-pair values."""

    analysis: Analysis
    node_in: dict[int, object]
    edge_values: dict[int, object]
    boundaries: dict[str, object]
    exit_values: dict[str, object]
    steps: int
    # The node transfer the solution was computed with; call nodes apply
    # the summaries or the final callee exits.
    node_transfer: Callable


def solve_mfp(program: MiniIrProgram, analysis: Analysis, *,
              widen: bool = True,
              call_graph: CallGraph | None = None) -> MfpSolution:
    """Whole-program MFP solution for one analysis."""
    lifted = solve_fpmfp_interprocedural(
        program, analysis, MipsUniverse(program, []), frozenset(),
        widen=widen, call_graph=call_graph)
    return MfpSolution(
        analysis=analysis, node_in=lifted.folded_in,
        edge_values=lifted.folded_edges, boundaries=lifted.boundaries,
        exit_values=lifted.exit_values, steps=lifted.steps,
        node_transfer=lifted.node_transfer,
    )
