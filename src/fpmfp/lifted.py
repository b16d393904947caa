"""The fixpoint engine: data-flow values keyed by tracked infeasible segments.

A lifted value is a sparse map from frozen sets of segment ids to lattice
values; an absent key stands for the analysis top.  The boundary is the
single entry for the empty key.  Crossing a segment's start edge moves a
pair onto the tracking key; a pair whose key holds a segment that completes
at an edge is dropped there, so its value never escapes an infeasible
segment.  Folding (meet of all stored values) recovers the reported
solution, which is never less precise than MFP.

This is the only fixpoint engine.  Over the empty segment universe every
value is the single empty-key pair and folding is the identity, so the
classic MFP solution (:func:`fpmfp.mfp.solve_mfp`) is this solver run
over ``MipsUniverse(program, [])``.

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

The first two are identities on fewer than two pairs and are skipped there.

Interprocedurally a call node applies the callee's folded effect pointwise
per pair: gen/kill summary masks (themselves computed by lifted fixpoints
over the callee, so effects on infeasible-only paths drop out) for
bit-vector analyses, folded exit intervals for the interval analysis.
Tracking keys never cross a call boundary.  Callee boundary values are the
met folded call-site In values projected to globals (plus parameters).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from .frontend import (
    CallGraph,
    Cfg,
    Edge,
    MiniIrProgram,
    Node,
    Procedure,
    StKind,
    build_call_graph,
)
from .lattice import Analysis, BitvectorAnalysis, WideningState
from .mips import MipsUniverse

Key = frozenset[int]
LiftedValue = dict[Key, object]

ALL_OPTS = frozenset({1, 2, 3})
EMPTY_KEY: Key = frozenset()

# Interprocedural budget: procedure solves per procedure.
MAX_SOLVES = 10_000


class NonTermination(RuntimeError):
    """The solver exceeded its step budget without stabilizing."""


class PairBoundError(RuntimeError):
    """An edge carried more pairs than the procedure's segments plus one."""


def _key_order(key: Key):
    return (len(key), sorted(key))


def sorted_keys(value: LiftedValue) -> list[Key]:
    if len(value) < 2:
        return list(value)
    return sorted(value, key=_key_order)


def _meet_all(value: LiftedValue, meet: Callable, top):
    if len(value) == 1:
        (only,) = value.values()
        return only
    out = top
    for key in sorted_keys(value):
        out = meet(out, value[key])
    return out


def fold(value: LiftedValue, analysis: Analysis):
    """Meet of all stored pair values; top when no pair is stored."""
    return _meet_all(value, analysis.meet, analysis.top())


@dataclass
class PairStats:
    """Pair-population bookkeeping across one solver run."""

    max_pairs: int = 0
    per_edge_max: dict[int, int] = field(default_factory=dict)
    blocked: int = 0
    end_merges: int = 0
    value_shifts: int = 0


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
        self.merge_ends = 1 in opts
        self.shift = 2 in opts
        self.drop_top = drop_top and 3 in opts
        self.widening = widening
        self.back = back if widening is not None else frozenset()
        self.stats = stats
        self.pair_limit = len(universe.for_proc(proc_name)) + 1

    def edge_flow(self, edge: Edge, source: Node,
                  value: LiftedValue) -> LiftedValue:
        eid = edge.id
        starts, continues, ends = self.universe.crossing(eid)
        refine = self.refine
        moved: LiftedValue = {}
        for key in sorted_keys(value):
            tracked = starts | (key & continues) if continues else starts
            if ends and tracked & ends:
                if self.stats is not None:
                    self.stats.blocked += 1
                continue
            v = value[key]
            if refine is not None:
                v = refine(edge, source, v)
            if tracked in moved:
                moved[tracked] = self.meet(moved[tracked], v)
            else:
                moved[tracked] = v
        if eid in self.back:
            widening = self.widening
            widening.observe(eid, _meet_all(moved, self.meet, self.top))
            moved = {key: widening.apply(eid, v) for key, v in moved.items()}
        # Normalizations 1 and 2 are identities on fewer than two pairs.
        if len(moved) > 1:
            if self.merge_ends:
                moved = self._merge_same_ends(moved)
            if self.shift and len(moved) > 1:
                moved = self._shift_duplicates(eid, moved)
        if self.drop_top:
            moved = {k: v for k, v in moved.items() if v != self.top}
        count = len(moved)
        if count > self.pair_limit:
            raise PairBoundError(
                f"pair count {count} exceeds limit {self.pair_limit} "
                f"at edge {eid}")
        stats = self.stats
        if stats is not None:
            if count > stats.per_edge_max.get(eid, 0):
                stats.per_edge_max[eid] = count
            if count > stats.max_pairs:
                stats.max_pairs = count
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

def _fixpoint(
    cfg: Cfg,
    *,
    boundary,
    transfer: Callable,
    flow: _Flow,
) -> tuple[dict[int, LiftedValue], dict[int, LiftedValue], int]:
    """Worklist fixpoint over lifted values for one CFG.

    Returns (node In, edge values, steps).  ``transfer(node, value)`` must
    be monotone; values only descend.  The step budget grows with the CFG
    and with the number of pairs an edge may carry.
    """
    meet = flow.meet
    max_steps = flow.pair_limit * (2_000 * (len(cfg.nodes) + 1) + 10_000)
    rpo = cfg.rpo()
    pos = cfg.rpo_position()
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
                f"no fixpoint within {max_steps} steps in proc "
                f"'{cfg.proc_name}'"
            )
        node = cfg.nodes[n]
        out: LiftedValue = {}
        for key, v in node_in[n].items():
            out[key] = transfer(node, v)
        for e in cfg.out_edges(n):
            moved = flow.edge_flow(e, node, out)
            edge_vals[e.id] = moved
            old = node_in[e.target]
            # Copy the target's In only once some pair of it changes.
            new = None
            for key, v in moved.items():
                if key in old:
                    v = meet(old[key], v)
                    if v == old[key]:
                        continue
                if new is None:
                    new = dict(old)
                new[key] = v
            if new is not None:
                node_in[e.target] = new
                if e.target not in queued:
                    queued.add(e.target)
                    heapq.heappush(heap, (pos[e.target], e.target))
    return node_in, edge_vals, steps


# ---------------------------------------------------------------------------
# Gen/kill call summaries
# ---------------------------------------------------------------------------

@dataclass
class Summaries:
    """Per-procedure call-transfer masks, projected to globals.

    A call to ``p`` transforms a set as ``(X & ~ksum[p]) | gsum[p]``.
    """

    gsum: dict[str, int]
    ksum: dict[str, int]


def _summary_exit(cfg: Cfg, universe: MipsUniverse, opts: frozenset[int], *,
                  transfer: Callable, meet: Callable, top) -> int:
    """Folded exit value of one summary fixpoint from the empty boundary."""
    flow = _Flow(
        universe, cfg.proc_name, meet=meet, top=top, refine=None,
        opts=opts,
        drop_top=3 in opts and transfer_preserves_top(cfg, transfer, top),
    )
    node_in, _, _ = _fixpoint(cfg, boundary=0, transfer=transfer, flow=flow)
    return _meet_all(node_in[cfg.exit], meet, top)


def compute_lifted_summaries(
        program: MiniIrProgram, analysis: BitvectorAnalysis,
        universe: MipsUniverse, opts: frozenset[int] = ALL_OPTS, *,
        call_graph: CallGraph | None = None) -> Summaries:
    """Gen/kill masks per procedure, bottom-up over call-graph SCCs.

    Both the accumulated-kill and the gen fixpoints run lifted, so a gen
    or kill that only happens inside an infeasible segment of the callee
    never reaches the exit fold.  Within an SCC the kill masks are
    iterated to their fixpoint first and the gen masks second, with the
    kills held fixed: each loop is then monotone from the empty mask and
    ends within one round per global fact and member.  (Updating both
    together lets a gen fact produced while a callee's kill mask was
    still empty circle the SCC forever.)  Procedures that no call site
    names (the entry procedure, for one) get no summary: nothing reads it.
    """
    cg = call_graph or build_call_graph(program)
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

    for scc in cg.sccs:  # bottom-up: callees before callers
        if not any(cg.callers[name] for name in scc):
            continue
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
                    new = _summary_exit(
                        program.by_name[name].cfg, universe, opts,
                        transfer=transfer, meet=meet, top=top) & gmask
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
# Solutions
# ---------------------------------------------------------------------------

@dataclass
class FpmfpSolution:
    """Per-procedure lifted solution with its folded projection.

    Out values and the folded Out and edge views are computed on first
    use.
    """

    analysis: Analysis
    cfg: Cfg
    node_in: dict[int, LiftedValue]
    edge_values: dict[int, LiftedValue]
    folded_in: dict[int, object]
    node_transfer: Callable

    @cached_property
    def node_out(self) -> dict[int, LiftedValue]:
        nodes = self.cfg.nodes
        return {
            n: {key: self.node_transfer(nodes[n], v)
                for key, v in lifted.items()}
            for n, lifted in self.node_in.items()
        }

    @cached_property
    def folded_out(self) -> dict[int, object]:
        return {n: fold(v, self.analysis) for n, v in self.node_out.items()}

    @cached_property
    def folded_edges(self) -> dict[int, object]:
        return {e: fold(v, self.analysis)
                for e, v in self.edge_values.items()}


@dataclass
class FpmfpProgramSolution:
    """Whole-program lifted solution."""

    analysis: Analysis
    procs: dict[str, FpmfpSolution]
    boundaries: dict[str, object]
    exit_values: dict[str, object]
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


# ---------------------------------------------------------------------------
# Interprocedural driver
# ---------------------------------------------------------------------------

def _reachable_procs(program: MiniIrProgram, cg: CallGraph) -> frozenset[str]:
    seen = {program.entry}
    stack = [program.entry]
    while stack:
        for callee in sorted(cg.callees[stack.pop()]):
            if callee not in seen:
                seen.add(callee)
                stack.append(callee)
    return frozenset(seen)


def solve_fpmfp_interprocedural(
        program: MiniIrProgram, analysis: Analysis,
        universe: MipsUniverse, opts: frozenset[int] = ALL_OPTS, *,
        widen: bool = True,
        call_graph: CallGraph | None = None) -> FpmfpProgramSolution:
    """Whole-program lifted solution for one analysis.

    A procedure worklist schedules the per-procedure fixpoints.  Sweeps
    over the dirty procedures alternate callers-first and callees-first
    until none is dirty.  A procedure becomes dirty when the folded In
    value at one of its call sites changes, and, when calls read callee
    exits instead of summaries, when a callee's exit changes.  Call nodes
    apply lifted summaries or the live folded callee exits pointwise.
    Interval boundaries and exits are widened on synthetic per-procedure
    keys, so values that descend through calls, with no CFG back edge
    between them, stabilize.
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

    exit_values: dict[str, object] = {}
    boundaries: dict[str, object] = {}
    folded_in: dict[int, object] = {}
    solved: dict[str, FpmfpSolution] = {}

    def node_transfer(node: Node, value):
        st = node.statement
        if st.kind != StKind.CALL:
            return analysis.transfer(node, value)
        if st.callee in program.externs:
            if analysis.kind == "interval":
                return analysis.havoc_globals(value)
            return value
        if summaries is not None:
            return ((value & ~summaries.ksum[st.callee])
                    | summaries.gsum[st.callee])
        return analysis.apply_call(
            value, exit_values.get(st.callee, top), cg.may_modify[st.callee])

    def widen_at(key: int, value):
        widening.observe(key, value)
        return widening.apply(key, value)

    def boundary_for(proc: Procedure):
        if not sites[proc.name]:
            return analysis.entry_boundary(proc)
        met = top
        for nid in sites[proc.name]:
            met = analysis.meet(met, folded_in.get(nid, top))
        bi = analysis.callee_boundary(proc, met)
        if proc.name == program.entry:
            bi = analysis.meet(analysis.entry_boundary(proc), bi)
        return widen_at(-1 - index[proc.name], bi)

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
            cfg = proc.cfg
            bi = boundary_for(proc)
            flow = _Flow(
                universe, name,
                meet=analysis.meet, top=top, refine=analysis.refine,
                opts=opts,
                drop_top=(3 in opts and transfer_preserves_top(
                    cfg, node_transfer, top)),
                widening=widening,
                back=cfg.back_edges() if widening.enabled else frozenset(),
                stats=stats,
            )
            p_in, p_edges, p_steps = _fixpoint(
                cfg, boundary=bi, transfer=node_transfer, flow=flow)
            p_folded = {n: fold(v, analysis) for n, v in p_in.items()}
            steps += p_steps
            for nid, callee in calls[name]:
                if p_folded[nid] != folded_in.get(nid, top):
                    dirty.add(callee)
            p_exit = widen_at(-1 - len(procs) - index[name],
                              p_folded[cfg.exit])
            if summaries is None and p_exit != exit_values.get(name, top):
                dirty.update(cg.callers[name])
            boundaries[name] = bi
            exit_values[name] = p_exit
            folded_in.update(p_folded)
            solved[name] = FpmfpSolution(
                analysis=analysis, cfg=cfg, node_in=p_in,
                edge_values=p_edges, folded_in=p_folded,
                node_transfer=node_transfer)
        sweep += 1

    # Report in procedure order, so no dict order depends on the schedule.
    return FpmfpProgramSolution(
        analysis=analysis,
        procs={p.name: solved[p.name] for p in procs},
        boundaries={p.name: boundaries[p.name] for p in procs},
        exit_values={p.name: exit_values[p.name] for p in procs},
        stats=stats, steps=steps, node_transfer=node_transfer,
    )
