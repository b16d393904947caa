"""Feasible-path solver: data-flow values keyed by tracked infeasible segments.

A lifted value is a sparse map from frozen sets of segment ids to lattice
values; an absent key stands for the analysis top.  The boundary is the
single entry for the empty key.  Crossing a segment's start edge moves a
pair onto the tracking key; a pair whose key holds a segment that completes
at an edge is dropped there, so its value never escapes an infeasible
segment.  Folding (meet of all stored values) recovers the reported
solution, which is never less precise than MFP.

Normalization after each edge flow keeps the maps small:

* merging pairs whose key members end on exactly the same edges (they block
  together, so one met pair suffices);
* shifting a value shared by two pairs onto the members that cover the
  other key's remaining route (the covered associations block at or before
  the covering ones, and the uncovered values reach past the other end
  anyway);
* dropping top-valued pairs, but only for problems whose transfer keeps top
  fixed everywhere — then a top pair can never wake up again, while e.g. a
  reaching-definitions pair at top still generates facts downstream and
  must be kept.

Interprocedurally a call node applies the callee's folded effect pointwise
per pair: gen/kill summary masks (themselves computed by lifted fixpoints
over the callee, so effects on infeasible-only paths drop out) for
bit-vector analyses, folded exit intervals for the interval analysis.
Tracking keys never cross a call boundary.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

from .frontend import (
    CallGraph,
    Cfg,
    Edge,
    MiniIrProgram,
    Node,
    Procedure,
    build_call_graph,
)
from .lattice import Analysis, BitvectorAnalysis, WideningState
from .mfp import (
    NonTermination,
    Summaries,
    compute_summaries,
    solve_procedures,
)
from .mips import MipsUniverse

Key = frozenset[int]
LiftedValue = dict[Key, object]

ALL_OPTS = frozenset({1, 2, 3})
EMPTY_KEY: Key = frozenset()


def _key_order(key: Key):
    return (len(key), sorted(key))


def sorted_keys(value: LiftedValue) -> list[Key]:
    return sorted(value, key=_key_order)


def fold(value: LiftedValue, analysis: Analysis):
    """Meet of all stored pair values; top when no pair is stored."""
    out = analysis.top()
    for key in sorted_keys(value):
        out = analysis.meet(out, value[key])
    return out


def lifted_meet(a: LiftedValue, b: LiftedValue, analysis: Analysis) -> LiftedValue:
    """Keywise meet; a key absent on one side keeps the other side's value."""
    out = dict(a)
    for key, v in b.items():
        if key in out:
            out[key] = analysis.meet(out[key], v)
        else:
            out[key] = v
    return out


def lifted_transfer(node: Node, value: LiftedValue,
                    analysis: Analysis) -> LiftedValue:
    """Statement transfer applied pointwise; keys are untouched."""
    return {key: analysis.transfer(node, v) for key, v in value.items()}


@dataclass
class PairStats:
    """Pair-population bookkeeping across one solver run."""

    max_pairs: int = 0
    per_edge_max: dict[int, int] = field(default_factory=dict)
    blocked: int = 0
    end_merges: int = 0
    value_shifts: int = 0

    def record(self, edge_id: int, count: int) -> None:
        if count > self.per_edge_max.get(edge_id, 0):
            self.per_edge_max[edge_id] = count
        if count > self.max_pairs:
            self.max_pairs = count


class _Flow:
    """Edge-flow engine for one lifted fixpoint problem.

    Bundles the lattice callables with the segment universe so both the
    main solver and the summary solvers share identical semantics.
    """

    def __init__(self, universe: MipsUniverse, proc_name: str, *,
                 meet: Callable, top, refine: Callable | None,
                 opts: frozenset[int], drop_top: bool,
                 widening: WideningState | None = None,
                 back: frozenset[int] = frozenset(),
                 stats: PairStats | None = None) -> None:
        self.universe = universe
        self.meet = meet
        self.top = top
        self.refine = refine
        self.opts = opts
        self.drop_top = drop_top
        self.widening = widening
        self.back = back
        self.stats = stats
        self.pair_limit = len(universe.for_proc(proc_name)) + 1

    def edge_flow(self, edge: Edge, source: Node,
                  value: LiftedValue) -> LiftedValue:
        moved: LiftedValue = {}
        for key in sorted_keys(value):
            tracked = self.universe.ext(edge.id, key)
            if self.universe.endof(tracked, edge.id):
                if self.stats is not None:
                    self.stats.blocked += 1
                continue
            v = value[key]
            if self.refine is not None:
                v = self.refine(edge, source, v)
            if tracked in moved:
                moved[tracked] = self.meet(moved[tracked], v)
            else:
                moved[tracked] = v
        if self.widening is not None and edge.id in self.back:
            folded = self.top
            for key in sorted_keys(moved):
                folded = self.meet(folded, moved[key])
            self.widening.observe(edge.id, folded)
            moved = {
                key: self.widening.apply(edge.id, v)
                for key, v in moved.items()
            }
        if 1 in self.opts:
            moved = self._merge_same_ends(moved)
        if 2 in self.opts:
            moved = self._shift_duplicates(edge.id, moved)
        if 3 in self.opts and self.drop_top:
            moved = {k: v for k, v in moved.items() if v != self.top}
        assert len(moved) <= self.pair_limit, (
            f"pair count {len(moved)} exceeds limit {self.pair_limit} "
            f"at edge {edge.id}")
        if self.stats is not None:
            self.stats.record(edge.id, len(moved))
        return moved

    def _merge_same_ends(self, pairs: LiftedValue) -> LiftedValue:
        """Merge pairs whose keys end on exactly the same set of edges.

        Restricted to keys all of whose members carry the detected
        start-condition property; members then block together at those
        shared end edges, so one met value is exact.
        """
        by_id = self.universe.by_id
        groups: dict[frozenset[int], list[Key]] = {}
        out: LiftedValue = {}
        for key in sorted_keys(pairs):
            if key and all(by_id[i].satisfies_p for i in key):
                ends = frozenset(by_id[i].end for i in key)
                groups.setdefault(ends, []).append(key)
            else:
                out[key] = pairs[key]
        for ends in sorted(groups, key=_key_order):
            members = groups[ends]
            merged_key = frozenset().union(*members)
            merged = pairs[members[0]]
            for key in members[1:]:
                merged = self.meet(merged, pairs[key])
            if len(members) > 1 and self.stats is not None:
                self.stats.end_merges += 1
            if merged_key in out:
                out[merged_key] = self.meet(out[merged_key], merged)
            else:
                out[merged_key] = merged
        return out

    def _shift_duplicates(self, edge_id: int,
                          pairs: LiftedValue) -> LiftedValue:
        """Move a value shared by two pairs onto a single covering key.

        The kept members are those covering the remaining route of some
        member of the other key; everything else either blocks at or
        before a kept member's end or provably reaches past its own end
        through the other pair's paths.  Repeats until no two pairs share
        a value.
        """
        pairs = dict(pairs)
        while True:
            keys = sorted_keys(pairs)
            merged = False
            for i in range(len(keys)):
                for j in range(i + 1, len(keys)):
                    k1, k2 = keys[i], keys[j]
                    if pairs[k1] != pairs[k2]:
                        continue
                    value = pairs[k1]
                    shifted = self._covering_members(edge_id, k1, k2)
                    if self.stats is not None:
                        self.stats.value_shifts += 1
                    del pairs[k1]
                    del pairs[k2]
                    if shifted in pairs:
                        pairs[shifted] = self.meet(pairs[shifted], value)
                    else:
                        pairs[shifted] = value
                    merged = True
                    break
                if merged:
                    break
            if not merged:
                return pairs

    def _covering_members(self, edge_id: int, k1: Key, k2: Key) -> Key:
        universe = self.universe
        by_id = universe.by_id
        kept: set[int] = set()
        for a in k1:
            covered = universe.cso(edge_id, by_id[a])
            if covered & k2:
                kept.add(a)
        for b in k2:
            covered = universe.cso(edge_id, by_id[b])
            if covered & k1:
                kept.add(b)
        return frozenset(kept)


def transfer_preserves_top(cfg: Cfg, transfer: Callable, top) -> bool:
    """True when every node transfer in the CFG maps top to top.

    Exactly then a top-valued pair can never produce information again and
    dropping it is a pure representation change.
    """
    return all(
        transfer(node, top) == top for node in cfg.nodes.values()
    )


# ---------------------------------------------------------------------------
# Intraprocedural fixpoint
# ---------------------------------------------------------------------------

def _lifted_fixpoint(
    cfg: Cfg,
    *,
    boundary,
    top,
    meet: Callable,
    transfer: Callable,
    flow: _Flow,
    max_steps: int,
) -> tuple[dict[int, LiftedValue], dict[int, LiftedValue], int]:
    """Worklist fixpoint over lifted values for one CFG."""

    def lmeet(a: LiftedValue, b: LiftedValue) -> LiftedValue:
        out = dict(a)
        for key, v in b.items():
            out[key] = meet(out[key], v) if key in out else v
        return out

    rpo = cfg.rpo()
    pos = {n: i for i, n in enumerate(rpo)}
    node_in: dict[int, LiftedValue] = {n: {} for n in cfg.nodes}
    node_in[cfg.start] = {EMPTY_KEY: boundary}
    edge_vals: dict[int, LiftedValue] = {}
    heap: list[tuple[int, int]] = [(pos[n], n) for n in rpo]
    queued = set(cfg.nodes)
    steps = 0
    while heap:
        _, n = heapq.heappop(heap)
        queued.discard(n)
        steps += 1
        if steps > max_steps:
            raise NonTermination(
                f"no lifted fixpoint within {max_steps} steps in proc "
                f"'{cfg.proc_name}'"
            )
        node = cfg.nodes[n]
        out = {key: transfer(node, v) for key, v in node_in[n].items()}
        for e in cfg.out_edges(n):
            moved = flow.edge_flow(e, node, out)
            edge_vals[e.id] = moved
            new = lmeet(node_in[e.target], moved)
            if new != node_in[e.target]:
                node_in[e.target] = new
                if e.target not in queued:
                    queued.add(e.target)
                    heapq.heappush(heap, (pos[e.target], e.target))
    return node_in, edge_vals, steps


def _budget(cfg: Cfg, universe: MipsUniverse) -> int:
    base = 2_000 * (len(cfg.nodes) + 1) + 10_000
    return (len(universe.for_proc(cfg.proc_name)) + 1) * base


# ---------------------------------------------------------------------------
# Solutions
# ---------------------------------------------------------------------------

@dataclass
class FpmfpSolution:
    """Per-procedure lifted solution with its folded projection."""

    proc_name: str
    analysis: Analysis
    universe: MipsUniverse
    opts: frozenset[int]
    node_in: dict[int, LiftedValue]
    node_out: dict[int, LiftedValue]
    edge_values: dict[int, LiftedValue]
    folded_in: dict[int, object]
    folded_out: dict[int, object]
    folded_edges: dict[int, object]
    boundary: object
    stats: PairStats
    steps: int


def lifted_edge_flow(edge: Edge, value: LiftedValue, universe: MipsUniverse,
                     opts: frozenset[int] = ALL_OPTS, *,
                     analysis: Analysis, source_node: Node,
                     drop_top: bool = False,
                     stats: PairStats | None = None) -> LiftedValue:
    """One edge flow: track/block per pair, refine, then normalize."""
    proc = universe.program.proc_of_node(source_node.id)
    flow = _Flow(
        universe, proc.name,
        meet=analysis.meet, top=analysis.top(), refine=analysis.refine,
        opts=opts, drop_top=drop_top, stats=stats,
    )
    return flow.edge_flow(edge, source_node, value)


# ---------------------------------------------------------------------------
# Lifted gen/kill summaries
# ---------------------------------------------------------------------------

def compute_lifted_summaries(
        program: MiniIrProgram, analysis: BitvectorAnalysis,
        universe: MipsUniverse, opts: frozenset[int] = ALL_OPTS, *,
        call_graph: CallGraph | None = None) -> Summaries:
    """Call-transfer masks whose in-callee flow blocks infeasible segments.

    Same bottom-up shape as the plain summaries, but both the
    accumulated-kill and the gen fixpoints run lifted, so a gen or kill
    that only happens inside an infeasible segment of the callee never
    reaches the exit fold.
    """
    def exit_value(cfg: Cfg, *, transfer: Callable, meet: Callable, top):
        return _summary_fixpoint(cfg, universe, opts, transfer=transfer,
                                 meet=meet, top=top)

    return compute_summaries(program, analysis,
                             call_graph or build_call_graph(program),
                             exit_value=exit_value)


def _summary_fixpoint(cfg: Cfg, universe: MipsUniverse,
                      opts: frozenset[int], *, transfer: Callable,
                      meet: Callable, top) -> int:
    flow = _Flow(
        universe, cfg.proc_name, meet=meet, top=top, refine=None,
        opts=opts, drop_top=transfer_preserves_top(cfg, transfer, top),
    )
    node_in, _, _ = _lifted_fixpoint(
        cfg, boundary=0, top=top, meet=meet, transfer=transfer,
        flow=flow, max_steps=_budget(cfg, universe),
    )
    exit_value = node_in[cfg.exit]
    folded = top
    for key in sorted_keys(exit_value):
        folded = meet(folded, exit_value[key])
    return folded


# ---------------------------------------------------------------------------
# Interprocedural driver
# ---------------------------------------------------------------------------

@dataclass
class FpmfpProgramSolution:
    """Whole-program lifted solution; mirrors the MFP solution's shape."""

    program: MiniIrProgram
    analysis: Analysis
    universe: MipsUniverse
    opts: frozenset[int]
    procs: dict[str, FpmfpSolution]
    boundaries: dict[str, object]
    exit_values: dict[str, object]
    call_graph: CallGraph
    summaries: Summaries | None
    widening: WideningState
    stats: PairStats
    steps: int
    # Folded (plain-lattice) node transfer the driver solved with, for
    # path-oracle comparison.
    node_transfer: Callable

    def _merged(self, view: str) -> dict:
        """One per-procedure view merged over all procedures."""
        out: dict = {}
        for sol in self.procs.values():
            out.update(getattr(sol, view))
        return out

    node_in = property(lambda self: self._merged("node_in"))
    folded_in = property(lambda self: self._merged("folded_in"))
    folded_out = property(lambda self: self._merged("folded_out"))
    edge_values = property(lambda self: self._merged("edge_values"))
    folded_edges = property(lambda self: self._merged("folded_edges"))


def solve_fpmfp_interprocedural(
        program: MiniIrProgram, analysis: Analysis,
        universe: MipsUniverse, opts: frozenset[int] = ALL_OPTS, *,
        widen: bool = True,
        call_graph: CallGraph | None = None) -> FpmfpProgramSolution:
    """Whole-program lifted solution for one analysis.

    Scheduled by the same procedure-worklist driver as MFP: callee
    boundaries are the met folded call-site values (a single empty-key
    entry), and call nodes apply lifted summaries or folded callee exits
    pointwise.
    """
    cg = call_graph or build_call_graph(program)
    summaries = (
        compute_lifted_summaries(program, analysis, universe, opts,
                                 call_graph=cg)
        if isinstance(analysis, BitvectorAnalysis) else None
    )
    widening = WideningState(widen and analysis.kind == "interval")
    stats = PairStats()
    top = analysis.top()
    solved: dict[str, tuple] = {}

    def solve(proc: Procedure, boundary, node_transfer):
        cfg = proc.cfg
        flow = _Flow(
            universe, cfg.proc_name,
            meet=analysis.meet, top=top, refine=analysis.refine, opts=opts,
            drop_top=transfer_preserves_top(cfg, node_transfer, top),
            widening=widening,
            back=cfg.back_edges() if widening.enabled else frozenset(),
            stats=stats,
        )
        p_in, p_edges, steps = _lifted_fixpoint(
            cfg, boundary=boundary, top=top, meet=analysis.meet,
            transfer=node_transfer, flow=flow,
            max_steps=_budget(cfg, universe),
        )
        folded = {n: fold(v, analysis) for n, v in p_in.items()}
        solved[proc.name] = (p_in, p_edges, folded, steps)
        return folded, steps

    sched = solve_procedures(program, analysis, cg, summaries, widening,
                             solve)
    procs = {}
    for proc in program.procedures:
        p_in, p_edges, folded, steps = solved[proc.name]
        node_out = {
            n: {key: sched.node_transfer(proc.cfg.nodes[n], v)
                for key, v in lifted.items()}
            for n, lifted in p_in.items()
        }
        procs[proc.name] = FpmfpSolution(
            proc_name=proc.name, analysis=analysis, universe=universe,
            opts=opts, node_in=p_in, node_out=node_out, edge_values=p_edges,
            folded_in=folded,
            folded_out={n: fold(v, analysis) for n, v in node_out.items()},
            folded_edges={e: fold(v, analysis) for e, v in p_edges.items()},
            boundary=sched.boundaries[proc.name], stats=stats, steps=steps,
        )
    return FpmfpProgramSolution(
        program=program, analysis=analysis, universe=universe, opts=opts,
        procs=procs, boundaries=sched.boundaries,
        exit_values=sched.exit_values, call_graph=cg, summaries=summaries,
        widening=widening, stats=stats, steps=sched.steps,
        node_transfer=sched.node_transfer,
    )
