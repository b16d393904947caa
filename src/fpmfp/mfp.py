"""Classic forward MFP solver and the interprocedural driver it shares.

The interprocedural model keeps one CFG per procedure and treats a call as a
single node.  Bit-vector analyses flow through calls via gen/kill summaries
computed bottom-up over call-graph SCCs; the interval analysis substitutes
the callee's exit intervals for the globals the callee may modify.  Callee
boundary values are the met call-site In values projected to globals (plus
parameters).  One procedure-worklist driver, :func:`solve_procedures`,
schedules the per-procedure solves of both this solver and the lifted one:
it re-solves a procedure only when its boundary or a callee exit it reads
may have changed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

from .frontend import (
    CallGraph,
    Cfg,
    MiniIrProgram,
    Node,
    Procedure,
    StKind,
    build_call_graph,
)
from .lattice import Analysis, BitvectorAnalysis, WideningState


class NonTermination(RuntimeError):
    """The solver exceeded its step budget without stabilizing."""


# Interprocedural budget: procedure solves per procedure.
MAX_SOLVES = 10_000


def _intra_fixpoint(
    cfg: Cfg,
    *,
    boundary,
    top,
    meet: Callable,
    transfer: Callable[[Node], object],
    refine: Callable | None = None,
    widening: WideningState | None = None,
    max_steps: int,
) -> tuple[dict[int, object], dict[int, object], int]:
    """Worklist fixpoint over one CFG; returns (node In, edge values, steps).

    ``transfer(node, value)`` must be monotone; values only descend.
    """
    rpo = cfg.rpo()
    pos = {n: i for i, n in enumerate(rpo)}
    back = cfg.back_edges() if widening is not None else frozenset()
    node_in: dict[int, object] = {n: top for n in cfg.nodes}
    node_in[cfg.start] = boundary
    edge_vals: dict[int, object] = {}
    heap: list[tuple[int, int]] = [(pos[n], n) for n in rpo]
    queued = set(cfg.nodes)
    steps = 0
    while heap:
        _, n = heapq.heappop(heap)
        queued.discard(n)
        steps += 1
        if steps > max_steps:
            raise NonTermination(
                f"no fixpoint within {max_steps} steps in proc "
                f"'{cfg.proc_name}'"
            )
        node = cfg.nodes[n]
        out = transfer(node, node_in[n])
        for e in cfg.out_edges(n):
            v = refine(e, node, out) if refine is not None else out
            if widening is not None and e.id in back:
                widening.observe(e.id, v)
                v = widening.apply(e.id, v)
            edge_vals[e.id] = v
            new = meet(node_in[e.target], v)
            if new != node_in[e.target]:
                node_in[e.target] = new
                if e.target not in queued:
                    queued.add(e.target)
                    heapq.heappush(heap, (pos[e.target], e.target))
    return node_in, edge_vals, steps


# ---------------------------------------------------------------------------
# Bit-vector call summaries
# ---------------------------------------------------------------------------

@dataclass
class Summaries:
    """Per-procedure call-transfer masks, projected to globals.

    A call to ``p`` transforms a set as ``(X & ~ksum[p]) | gsum[p]``.
    """

    gsum: dict[str, int]
    ksum: dict[str, int]


def _plain_exit(cfg: Cfg, *, transfer: Callable, meet: Callable, top):
    """Exit value of one summary fixpoint from the empty boundary."""
    node_in, _, _ = _intra_fixpoint(
        cfg, boundary=0, top=top, meet=meet, transfer=transfer,
        max_steps=200 * (len(cfg.nodes) + 1) + 10_000,
    )
    return node_in[cfg.exit]


def compute_summaries(program: MiniIrProgram, analysis: BitvectorAnalysis,
                      call_graph: CallGraph, *,
                      exit_value: Callable = _plain_exit) -> Summaries:
    """Gen/kill masks per procedure, bottom-up over call-graph SCCs.

    Within an SCC the kill masks are iterated to their fixpoint first and
    the gen masks second, with the kills held fixed: each loop is then
    monotone from the empty mask and ends within one round per global
    fact and member.  (Updating both together lets a gen fact produced
    while a callee's kill mask was still empty circle the SCC forever.)
    ``exit_value(cfg, transfer=, meet=, top=)`` solves one procedure body.
    """
    gmask = analysis.globals_mask
    gsum: dict[str, int] = {}
    ksum: dict[str, int] = {}

    def kill_xfer(node: Node, value: int) -> int:
        st = node.statement
        if st.kind == StKind.CALL:
            if st.callee in program.externs:
                return value
            return value | ksum[st.callee]
        return value | analysis.kill_mask(node.id)

    def gen_xfer(node: Node, value: int) -> int:
        st = node.statement
        if st.kind == StKind.CALL:
            if st.callee in program.externs:
                return value
            return (value & ~ksum[st.callee]) | gsum[st.callee]
        return analysis.transfer(node, value)

    for scc in call_graph.sccs:  # bottom-up: callees before callers
        for name in scc:
            gsum[name] = 0
            ksum[name] = 0
        rounds = len(scc) * gmask.bit_count() + 1
        for masks, transfer, meet, top in (
                (ksum, kill_xfer, lambda a, b: a & b, analysis.full_mask),
                (gsum, gen_xfer, analysis.meet, analysis.top())):
            for _ in range(rounds):
                stable = True
                for name in scc:
                    new = exit_value(
                        program.by_name[name].cfg, transfer=transfer,
                        meet=meet, top=top) & gmask
                    if new != masks[name]:
                        masks[name] = new
                        stable = False
                if stable:
                    break
            else:
                raise NonTermination(
                    f"call summaries of {', '.join(scc)} did not "
                    f"stabilize within {rounds} rounds")
    return Summaries(gsum, ksum)


# ---------------------------------------------------------------------------
# Interprocedural driver
# ---------------------------------------------------------------------------

def _make_call_transfer(program, analysis, call_graph, summaries, exit_values):
    def xfer(node: Node, value):
        callee = node.statement.callee
        if callee in program.externs:
            if analysis.kind == "interval":
                return analysis.havoc_globals(value)
            return value
        if summaries is not None:
            return (value & ~summaries.ksum[callee]) | summaries.gsum[callee]
        return analysis.apply_call(
            value, exit_values.get(callee, analysis.top()),
            call_graph.may_modify[callee],
        )
    return xfer


def _reachable_procs(program: MiniIrProgram, cg: CallGraph) -> frozenset[str]:
    seen = {program.entry}
    stack = [program.entry]
    while stack:
        for callee in sorted(cg.callees[stack.pop()]):
            if callee not in seen:
                seen.add(callee)
                stack.append(callee)
    return frozenset(seen)


@dataclass
class ProgramSchedule:
    """What the driver hands back: the values its solves agreed on."""

    boundaries: dict[str, object]
    exit_values: dict[str, object]
    node_in: dict[int, object]
    node_transfer: Callable
    steps: int


def solve_procedures(program: MiniIrProgram, analysis: Analysis,
                     cg: CallGraph, summaries: Summaries | None,
                     widening: WideningState,
                     solve: Callable) -> ProgramSchedule:
    """Procedure-worklist driver shared by the MFP and FPMFP solvers.

    ``solve(proc, boundary, node_transfer)`` solves one procedure and
    returns its (plain or folded) node In values and its step count.
    Sweeps over the dirty procedures alternate callers-first and
    callees-first until none is dirty.  A procedure becomes dirty when
    the In value at one of its call sites changes, and, when calls read
    callee exits instead of summaries, when a callee's exit changes.
    Call transfers read the live exit values.  Interval boundaries and
    exits are widened on synthetic per-procedure keys, so values that
    descend through calls, with no CFG back edge between them, stabilize.
    """
    procs = program.procedures
    index = {proc.name: i for i, proc in enumerate(procs)}
    reachable = _reachable_procs(program, cg)
    # Call sites in reachable procedures: per callee, in node-id order for
    # deterministic meets, and per caller.
    sites: dict[str, list[int]] = {p.name: [] for p in procs}
    calls: dict[str, list[tuple[int, str]]] = {p.name: [] for p in procs}
    for proc in procs:
        for nid in proc.cfg.node_ids():
            st = proc.cfg.nodes[nid].statement
            if (st.kind == StKind.CALL and st.callee in sites
                    and proc.name in reachable):
                sites[st.callee].append(nid)
                calls[proc.name].append((nid, st.callee))

    top = analysis.top()
    exit_values: dict[str, object] = {}
    boundaries: dict[str, object] = {}
    node_in: dict[int, object] = {}
    call_xfer = _make_call_transfer(
        program, analysis, cg, summaries, exit_values)

    def node_transfer(node: Node, value):
        if node.statement.kind == StKind.CALL:
            return call_xfer(node, value)
        return analysis.transfer(node, value)

    def widen(key: int, value):
        widening.observe(key, value)
        return widening.apply(key, value)

    def boundary_for(proc: Procedure):
        if not sites[proc.name]:
            return analysis.entry_boundary(proc)
        met = top
        for nid in sites[proc.name]:
            met = analysis.meet(met, node_in.get(nid, top))
        bi = analysis.callee_boundary(proc, met)
        if proc.name == program.entry:
            bi = analysis.meet(analysis.entry_boundary(proc), bi)
        return widen(-1 - index[proc.name], bi)

    callees_first = [name for scc in cg.sccs for name in scc]
    sweeps = (callees_first[::-1], callees_first)
    dirty = set(callees_first)
    budget = MAX_SOLVES * len(procs)
    solves = steps = sweep = 0
    while dirty:
        for name in sweeps[sweep % 2]:
            if name not in dirty:
                continue
            dirty.discard(name)
            solves += 1
            if solves > budget:
                raise NonTermination(
                    f"interprocedural solving exceeded {budget} "
                    f"procedure solves")
            proc = program.by_name[name]
            bi = boundary_for(proc)
            p_in, p_steps = solve(proc, bi, node_transfer)
            steps += p_steps
            for nid, callee in calls[name]:
                if p_in[nid] != node_in.get(nid, top):
                    dirty.add(callee)
            p_exit = widen(-1 - len(procs) - index[name],
                           p_in[proc.cfg.exit])
            if summaries is None and p_exit != exit_values.get(name, top):
                dirty.update(cg.callers[name])
            boundaries[name] = bi
            exit_values[name] = p_exit
            node_in.update(p_in)
        sweep += 1
    # Report in procedure order, so no dict order depends on the schedule.
    return ProgramSchedule(
        {p.name: boundaries[p.name] for p in procs},
        {p.name: exit_values[p.name] for p in procs},
        {n: node_in[n] for p in procs for n in p.cfg.nodes},
        node_transfer, steps)


# ---------------------------------------------------------------------------
# Whole-program MFP
# ---------------------------------------------------------------------------

@dataclass
class MfpSolution:
    program: MiniIrProgram
    analysis: Analysis
    node_in: dict[int, object]
    edge_values: dict[int, object]
    boundaries: dict[str, object]
    exit_values: dict[str, object]
    call_graph: CallGraph
    summaries: Summaries | None
    widening: WideningState
    steps: int
    # The node transfer the solution was computed with; call nodes apply
    # the summaries or the final callee exits.
    node_transfer: Callable


def solve_mfp(program: MiniIrProgram, analysis: Analysis, *,
              widen: bool = True,
              call_graph: CallGraph | None = None) -> MfpSolution:
    """Whole-program MFP solution for one analysis."""
    cg = call_graph or build_call_graph(program)
    summaries = (
        compute_summaries(program, analysis, cg)
        if isinstance(analysis, BitvectorAnalysis) else None
    )
    widening = WideningState(widen and analysis.kind == "interval")
    edges: dict[str, dict[int, object]] = {}

    def solve(proc: Procedure, boundary, node_transfer):
        p_in, p_edges, steps = _intra_fixpoint(
            proc.cfg, boundary=boundary, top=analysis.top(),
            meet=analysis.meet, transfer=node_transfer,
            refine=analysis.refine, widening=widening,
            max_steps=2_000 * (len(proc.cfg.nodes) + 1) + 10_000,
        )
        edges[proc.name] = p_edges
        return p_in, steps

    sched = solve_procedures(program, analysis, cg, summaries, widening,
                             solve)
    return MfpSolution(
        program=program, analysis=analysis, node_in=sched.node_in,
        edge_values={e: v for p in program.procedures
                     for e, v in edges[p.name].items()},
        boundaries=sched.boundaries,
        exit_values=sched.exit_values, call_graph=cg, summaries=summaries,
        widening=widening, steps=sched.steps,
        node_transfer=sched.node_transfer,
    )
