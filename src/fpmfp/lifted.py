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
over ``MipsUniverse(program, [])``; it is the same
:class:`FpmfpProgramSolution`, read through its folded views.

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

from collections import namedtuple
from functools import cached_property
from typing import TYPE_CHECKING, Callable

from . import SolverError
from .frontend import (
    CallGraph,
    Cfg,
    MiniIrProgram,
    Node,
    Procedure,
    StKind,
    build_call_graph,
)
from .lattice import Analysis, BitvectorAnalysis
from .mips import NO_CROSSING, MipsUniverse

if TYPE_CHECKING:
    from .interval import WideningState

Key = frozenset[int]
LiftedValue = dict[Key, object]

ALL_OPTS = frozenset({1, 2, 3})
EMPTY_KEY: Key = frozenset()

# Interprocedural budget: procedure solves per procedure.
MAX_SOLVES = 10_000


class NonTermination(SolverError):
    """The solver exceeded its step budget without stabilizing."""


class PairBoundError(SolverError):
    """An edge carried more pairs than the procedure's segments plus one."""


def _key_order(key: Key):
    return (len(key), sorted(key))


def sorted_keys(value: LiftedValue) -> list[Key]:
    if len(value) < 2:
        return list(value)
    return sorted(value, key=_key_order)


def _meet_all(value: LiftedValue, meet: Callable):
    """Meet of the stored values in key order, from the first; ``value``
    must hold one."""
    if len(value) == 1:
        (only,) = value.values()
        return only
    keys = sorted(value, key=_key_order)
    out = value[keys[0]]
    for key in keys[1:]:
        out = meet(out, value[key])
    return out


def fold(value: LiftedValue, analysis: Analysis):
    """Meet of all stored pair values; top when no pair is stored."""
    return _meet_all(value, analysis.meet) if value else analysis.top()


def _fold_each(values: dict[int, LiftedValue],
               analysis: Analysis) -> dict[int, object]:
    """``fold`` of every value, keyed as ``values``."""
    return {i: fold(pairs, analysis) for i, pairs in values.items()}


class PairStats:
    """Pair counts of every solve whose flow is given this instance.

    ``per_edge_max`` maps each edge that carried a pair to the most pairs
    one flow across it left; ``max_pairs`` is the largest of those counts.
    """

    def __init__(self) -> None:
        self.per_edge_max: dict[int, int] = {}
        self.blocked = 0
        self.end_merges = 0
        self.value_shifts = 0

    @property
    def max_pairs(self) -> int:
        return max(self.per_edge_max.values(), default=0)


class _Flow:
    """One lifted fixpoint problem, value or summary: a CFG, its node
    transfer, the lattice callables and the segment universe.

    It makes every per-solve decision from its own inputs.  Normalization
    3 drops top pairs when ``3 in opts`` and ``transfer`` maps top to top
    at every node; the CFG's back edges are widened when there is a
    ``widening`` state; an edge carries at most one pair more than the
    procedure has segments.  Every flow counts into ``stats``.
    """

    def __init__(self, universe: MipsUniverse, cfg: Cfg, transfer: Callable,
                 *, meet: Callable, top, refine: Callable | None,
                 opts: frozenset[int], stats: PairStats,
                 widening: WideningState | None = None) -> None:
        self.universe = universe
        self.cfg = cfg
        self.transfer = transfer
        self.meet = meet
        self.top = top
        self.refine = refine
        self.merge_ends = 1 in opts
        self.shift = 2 in opts
        self.drop_top = 3 in opts and transfer_preserves_top(
            cfg, transfer, top)
        self.widening = widening
        self.back = frozenset() if widening is None else cfg.back
        self.stats = stats
        self.pair_limit = len(universe.by_proc[cfg.proc_name]) + 1

    def normalize(self, eid: int, pairs: LiftedValue) -> LiftedValue:
        """Widen ``pairs``, what one flow leaves on edge ``eid``, if that
        is a widened back edge, apply the normalizations that are on and
        check the pair bound.

        The engine calls this only for a value of more than one pair, or
        of one pair on a widened back edge.
        """
        if eid in self.back:
            widening = self.widening
            widening.observe(eid, _meet_all(pairs, self.meet))
            pairs = {key: widening.apply(eid, v) for key, v in pairs.items()}
        # Normalizations 1 and 2 are identities on fewer than two pairs.
        if len(pairs) > 1:
            if self.merge_ends:
                pairs = self._merge_same_ends(pairs)
            if self.shift and len(pairs) > 1:
                pairs = self._shift_duplicates(eid, pairs)
        if self.drop_top:
            pairs = {k: v for k, v in pairs.items() if v != self.top}
        if len(pairs) > self.pair_limit:
            raise PairBoundError(
                f"pair count {len(pairs)} exceeds limit {self.pair_limit} "
                f"at edge {eid}")
        return pairs

    def _merge_same_ends(self, pairs: LiftedValue) -> LiftedValue:
        """Merge pairs whose keys end on exactly the same set of edges.

        Every detected segment carries the start-condition property, so
        the members of such keys block together at those shared end
        edges, and one met value is exact.  Each merged key is the union
        of the keys of one end-edge set, so no two groups share it and
        none is the empty key.
        """
        end_edge = self.universe.end_edge.__getitem__
        groups: dict[frozenset[int], list[Key]] = {}
        out: LiftedValue = {}
        for key in sorted_keys(pairs):
            if key:
                ends = frozenset(map(end_edge, key))
                groups.setdefault(ends, []).append(key)
            else:
                out[key] = pairs[key]
        for ends in sorted(groups, key=_key_order):
            members = groups[ends]
            merged = pairs[members[0]]
            for key in members[1:]:
                merged = self.meet(merged, pairs[key])
            if len(members) > 1:
                self.stats.end_merges += 1
            out[frozenset().union(*members)] = merged
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
        cso = self.universe.cso
        kept = [a for a in k1 if cso(edge_id, a) & k2]
        kept += [b for b in k2 if cso(edge_id, b) & k1]
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

def _fixpoint(flow: _Flow, boundary) -> tuple[
        dict[int, LiftedValue], dict[int, LiftedValue], int]:
    """Worklist fixpoint over lifted values for ``flow``'s CFG, from
    ``boundary`` at its start node.

    Returns (node In, edge values, steps).  The flow's transfer must be
    monotone; values only descend.  The step budget grows with the CFG
    and with the number of pairs an edge may carry.

    The worklist is a sweep over the plan's reverse postorder: one byte
    per RPO position marks the nodes whose In changed since their last
    visit, and a cursor moves forward to the next marked position; it
    tests the byte it rests on before it searches, since that is most
    often the next node.  Visiting a node leaves the cursor just past
    it, and a change to a target behind the cursor (the head of a back
    edge, or the node itself over a self-loop) moves the cursor back
    onto it.  No position behind the cursor is ever marked, so the next
    node visited is always the least marked position: the order a heap
    of RPO positions pops, at O(1) per visit instead of O(log n), with
    the same steps, values and widening.

    The out-edges and RPO positions come from the CFG's plan, which every
    solve over the CFG shares, and each out-edge's crossing triple from
    the universe's ``crossings`` table, by edge id.  A node's In is
    transferred once, into its pairs in key order.  One loop per out-edge
    then takes every pair across: it moves the pair onto its tracked key,
    drops it (a block) when that key holds a segment that ends on the
    edge, refines its value, and meets pairs that land on one key.  An
    edge left with more than one pair, or a widened back edge, goes
    through :meth:`_Flow.normalize`; one pair needs only the top test of
    normalization 3, made here.

    Against an engine with a separate one-pair path (in process, shared
    2-vCPU host, medians of 12-20 alternating rounds), the nine solves of
    ``oracle-check`` cost 1-3 % more on the benchmark's local-large
    workload and -1 to +1 % on call-chain; rd FPMFP on 8 and 12 diamonds
    costs 4-7 % less.  A comprehension for a one-pair In, or
    ``moved.items()`` in the merge loop, made local-large slower still.
    """
    cfg = flow.cfg
    transfer = flow.transfer
    meet = flow.meet
    refine = flow.refine
    top = flow.top
    drop_top = flow.drop_top
    back = flow.back
    normalize = flow.normalize
    stats = flow.stats
    per_edge_max = stats.per_edge_max
    plan = cfg.plan
    order = plan.order
    outs_of = plan.outs
    crossing_of = flow.universe.crossings.get
    max_steps = flow.pair_limit * (2_000 * (len(cfg.nodes) + 1) + 10_000)
    node_in: dict[int, LiftedValue] = {n: {} for n in cfg.nodes}
    node_in[cfg.start] = {EMPTY_KEY: boundary}
    edge_vals: dict[int, LiftedValue] = {}
    dirty = bytearray(b"\x01") * len(order)
    dirty.append(0)  # the cursor may rest one past the last position
    next_dirty = dirty.find
    pos = steps = 0
    while True:
        if not dirty[pos]:
            pos = next_dirty(1, pos)
            if pos < 0:
                break
        dirty[pos] = 0
        n = order[pos]
        pos += 1
        steps += 1
        if steps > max_steps:
            raise NonTermination(
                f"no fixpoint within {max_steps} steps in proc "
                f"'{cfg.proc_name}'"
            )
        node, outs = outs_of[n]
        pairs = node_in[n]
        if len(pairs) == 1:
            ((key, v),) = pairs.items()
            out = ((key, transfer(node, v)),)
        else:
            out = [(key, transfer(node, pairs[key]))
                   for key in sorted(pairs, key=_key_order)]
        for edge, eid, target, tpos in outs:
            starts, continues, ends = crossing_of(eid, NO_CROSSING)
            moved: LiftedValue = {}
            for key, v in out:
                tracked = starts | (key & continues) if continues else starts
                if ends and tracked & ends:
                    stats.blocked += 1
                    continue
                if refine is not None:
                    v = refine(edge, node, v)
                if tracked in moved:
                    v = meet(moved[tracked], v)
                moved[tracked] = v
            if len(moved) > 1 or eid in back and moved:
                moved = normalize(eid, moved)
            elif drop_top and top in moved.values():
                moved = {}
            edge_vals[eid] = moved
            if not moved:
                continue
            if len(moved) > per_edge_max.get(eid, 0):
                per_edge_max[eid] = len(moved)
            old = node_in[target]
            # Copy the target's In only once some pair of it changes.
            new = None
            for k in moved:
                w = moved[k]
                if k in old:
                    w = meet(old[k], w)
                    if w == old[k]:
                        continue
                if new is None:
                    new = dict(old)
                new[k] = w
            if new is None:
                continue
            node_in[target] = new
            dirty[tpos] = 1
            if tpos < pos:
                pos = tpos
    return node_in, edge_vals, steps


# ---------------------------------------------------------------------------
# Gen/kill call summaries
# ---------------------------------------------------------------------------

class Summaries(namedtuple("Summaries", "gsum ksum")):
    """Per-procedure call-transfer masks, projected to globals: ``gsum``
    and ``ksum`` map a procedure name to its gen and kill mask.

    A call to ``p`` transforms a set as ``(X & ~ksum[p]) | gsum[p]``.
    """

    __slots__ = ()


def _summary_exit(cfg: Cfg, universe: MipsUniverse, opts: frozenset[int], *,
                  transfer: Callable, meet: Callable, top):
    """Folded exit (kill, gen) pair of one summary fixpoint from the empty
    pair ``(0, 0)``; its pair counts are its own."""
    flow = _Flow(universe, cfg, transfer, meet=meet, top=top, refine=None,
                 opts=opts, stats=PairStats())
    node_in, _, _ = _fixpoint(flow, (0, 0))
    exit_in = node_in[cfg.exit]
    return _meet_all(exit_in, meet) if exit_in else top


def compute_lifted_summaries(
        program: MiniIrProgram, analysis: BitvectorAnalysis,
        universe: MipsUniverse, opts: frozenset[int] = ALL_OPTS, *,
        call_graph: CallGraph | None = None) -> Summaries:
    """Gen/kill masks per procedure, bottom-up over call-graph SCCs.

    Each procedure's accumulated kill and gen come from one lifted
    fixpoint over (kill, gen) pairs from ``(0, 0)``, each component
    transferred and met on its own, so a gen or kill that only happens
    inside an infeasible segment of the callee never reaches the exit
    fold.  An SCC is solved in rounds of one pair fixpoint per member,
    each reading the masks as they stand; outside a recursive SCC the
    callees' masks are final and one round suffices.  In a recursive SCC
    the kills never read the gens, so they climb from the empty mask as
    if solved alone.  The gens read the kills, so every round that moves
    a kill resets them to the empty mask: once no kill moves they climb
    under the final kills, as if solved with the kills held fixed, and
    the first round that changes nothing ends the loop.  (Gens kept from
    a round whose kills were still moving can circle the SCC forever.)
    Procedures that no call site names (the entry procedure, for one) get
    no summary: nothing reads it.
    """
    cg = call_graph or build_call_graph(program)
    gmask = analysis.globals_mask
    gsum: dict[str, int] = {}
    ksum: dict[str, int] = {}
    gen_meet = analysis.meet

    def pair_xfer(node: Node, value: tuple[int, int]) -> tuple[int, int]:
        kill, gen = value
        st = node.statement
        if st.kind != StKind.CALL:
            return (kill | analysis.kill.get(node.id, 0),
                    analysis.transfer(node, gen))
        if st.callee in program.externs:
            return value
        callee_kill = ksum[st.callee]
        return (kill | callee_kill,
                (gen & ~callee_kill) | gsum[st.callee])

    def pair_meet(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        return a[0] & b[0], gen_meet(a[1], b[1])

    pair_top = (analysis.full_mask, analysis.top())
    for scc in cg.sccs:  # bottom-up: callees before callers
        if not any(cg.callers[name] for name in scc):
            continue
        for name in scc:
            gsum[name] = 0
            ksum[name] = 0
        recursive = len(scc) > 1 or scc[0] in cg.callees[scc[0]]
        rounds = 2 * (len(scc) * gmask.bit_count() + 1)
        for _ in range(rounds):
            kill_moved = gen_moved = False
            for name in scc:
                kill, gen = _summary_exit(
                    program.by_name[name].cfg, universe, opts,
                    transfer=pair_xfer, meet=pair_meet, top=pair_top)
                kill &= gmask
                gen &= gmask
                if kill != ksum[name]:
                    ksum[name] = kill
                    kill_moved = True
                if gen != gsum[name]:
                    gsum[name] = gen
                    gen_moved = True
            if not recursive or not (kill_moved or gen_moved):
                break
            if kill_moved:
                for name in scc:
                    gsum[name] = 0
        else:
            raise NonTermination(
                f"call summaries of {', '.join(scc)} did not "
                f"stabilize within {rounds} rounds")
    return Summaries(gsum, ksum)


# ---------------------------------------------------------------------------
# Solutions
# ---------------------------------------------------------------------------

class FpmfpSolution:
    """Per-procedure lifted solution with its folded projection.

    Out values and the folded Out and edge views are computed on first
    use.
    """

    def __init__(self, analysis: Analysis, cfg: Cfg,
                 node_in: dict[int, LiftedValue],
                 edge_values: dict[int, LiftedValue],
                 folded_in: dict[int, object],
                 node_transfer: Callable) -> None:
        self.analysis = analysis
        self.cfg = cfg
        self.node_in = node_in
        self.edge_values = edge_values
        self.folded_in = folded_in
        self.node_transfer = node_transfer

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
        # ``fold`` of each node's transferred pairs, one node at a time,
        # without building ``node_out``.
        nodes = self.cfg.nodes
        transfer = self.node_transfer
        analysis = self.analysis
        return {n: fold({key: transfer(nodes[n], v)
                         for key, v in pairs.items()}, analysis)
                for n, pairs in self.node_in.items()}

    @cached_property
    def folded_edges(self) -> dict[int, object]:
        return _fold_each(self.edge_values, self.analysis)


class FpmfpProgramSolution(namedtuple("FpmfpProgramSolution", (
        "analysis", "procs", "boundaries", "exit_values", "stats", "steps",
        "node_transfer"))):
    """Whole-program lifted solution, of either mode.

    ``procs`` maps each procedure name to its ``FpmfpSolution``,
    ``boundaries`` and ``exit_values`` to its boundary and folded exit
    value; ``stats`` and ``steps`` count the whole solve, and
    ``node_transfer`` is the folded (plain-lattice) node transfer the
    driver solved with, for path-oracle comparison.
    ``folded_in``, ``folded_out`` and ``folded_edges`` are the plain
    values; an MFP solution (one pair everywhere) is read through them.
    Each merged view is rebuilt from ``procs`` on every read.
    """

    __slots__ = ()

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

def solve_fpmfp_interprocedural(
        program: MiniIrProgram, analysis: Analysis,
        universe: MipsUniverse, opts: frozenset[int] = ALL_OPTS, *,
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
    between them, stabilize.  The call sites, and the procedures the
    entry reaches, are the call graph's ``calls`` and ``reachable``.
    """
    cg = call_graph or build_call_graph(program)
    summaries = (
        compute_lifted_summaries(program, analysis, universe, opts,
                                 call_graph=cg)
        if isinstance(analysis, BitvectorAnalysis) else None
    )
    widening = None
    if analysis.kind == "interval":
        from .interval import WideningState

        widening = WideningState()
    stats = PairStats()
    top = analysis.top()
    # The default refine is the identity; the engine then skips the call.
    refine = (None if type(analysis).refine is Analysis.refine
              else analysis.refine)
    procs = program.procedures
    index = {proc.name: i for i, proc in enumerate(procs)}
    # Calls of defined procedures in the procedures the entry reaches: per
    # callee, in node-id order for deterministic meets, and per caller.
    sites: dict[str, list[int]] = {p.name: [] for p in procs}
    calls: dict[str, list[tuple[int, str]]] = {p.name: [] for p in procs}
    for proc in procs:
        if proc.name in cg.reachable:
            for nid, callee in cg.calls[proc.name]:
                if callee in sites:
                    sites[callee].append(nid)
                    calls[proc.name].append((nid, callee))
    # Modified globals in sorted order, so the interval values a call
    # yields list their variables in the same order in every process.
    modified = ({name: sorted(names) for name, names in cg.may_modify.items()}
                if summaries is None else {})

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
            value, exit_values.get(st.callee, top), modified[st.callee])

    def widen_at(key: int, value):
        if widening is None:
            return value
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
            # Without calls, node_transfer is the analysis's transfer.
            flow = _Flow(
                universe, cfg,
                node_transfer if cg.calls[name] else analysis.transfer,
                meet=analysis.meet, top=top, refine=refine, opts=opts,
                stats=stats, widening=widening)
            p_in, p_edges, p_steps = _fixpoint(flow, bi)
            p_folded = _fold_each(p_in, analysis)
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
