"""Independent reference semantics used to check the solvers.

Two oracles live here:

* :func:`mips_free_meets` walks the bounded path tree of one procedure,
  prunes every branch the moment a detected infeasible segment completes,
  and meets the propagated values at each node and edge.  On acyclic
  programs the walk is exhaustive, so for distributive analyses its meets
  equal the ideal feasible-path solution.  The walk comes in two parts:
  :func:`path_tree` enumerates the tree, which depends on the CFG and the
  segments but on no lattice value, and :meth:`PathTree.meets` evaluates
  one analysis over it.  ``oracle-check`` enumerates each procedure's tree
  once and evaluates it for every analysis.

* :func:`execute_all` runs programs concretely over a small input box,
  forking on every source of nondeterminism, and returns per-activation
  edge traces.  Its traces witness that detected segments never occur in
  a real execution.

Both raise :class:`Explosion` instead of running unbounded.
"""

from __future__ import annotations

from typing import NamedTuple

from .frontend import (
    Cfg,
    Cond,
    Expr,
    LabelKind,
    MiniIrProgram,
    Procedure,
    StKind,
)
from .mips import MipsUniverse


class Explosion(RuntimeError):
    """The bounded exploration outgrew its budget."""


# ---------------------------------------------------------------------------
# Bounded path-tree meets with segment pruning
# ---------------------------------------------------------------------------

class OracleMeets(NamedTuple):
    """Meets over explored feasible (segment-free) bounded paths."""

    node_in: dict[int, object]
    edge_values: dict[int, object]
    keyed: dict[tuple[int, frozenset[int]], object]
    expansions: int
    truncated: bool


def _advance(starts, progress: tuple, edge_id: int):
    """Move the ``(segment, matched length)`` pairs in ``progress`` across
    an edge; ``starts`` maps an edge to the segments it starts.

    Segment edges are pairwise distinct, so a segment that fails to extend
    drops out and can only come back by restarting at its start edge.
    Returns None when some segment completes (the path became infeasible).
    """
    out = []
    for seg, matched in (*progress, *((seg, 0) for seg in
                                      starts.get(edge_id, ()))):
        if seg.edges[matched] == edge_id:
            matched += 1
            if matched == len(seg.edges):
                return None
            out.append((seg, matched))
    return tuple(out)


class PathTree(NamedTuple):
    """The bounded segment-free path tree of one procedure, in walk order.

    Expansion ``i`` is ``steps[i] == (node, edges)``: it reaches ``node``
    and leaves it along ``edges``, in the order the walk takes them; its
    children are the expansions those edges lead to.  ``keys`` holds, per
    taken edge in walk order, the edge id and the ids of the segments in
    progress after it, or is None when they were not collected.
    """

    steps: list[tuple[int, tuple]]
    keys: list[tuple[int, frozenset[int]]] | None
    truncated: bool

    def meets(self, *, boundary, meet, node_transfer,
              refine) -> OracleMeets:
        """Propagate ``boundary`` down the tree and meet the values at
        each node entry and after each edge, in the walk's order.

        ``node_transfer(node_id, value)`` runs once per expansion that
        takes an edge, ``refine(edge, value)`` once per taken edge.
        """
        node_in: dict[int, object] = {}
        edge_values: dict[int, object] = {}
        outs = None if self.keys is None else []
        # Children are pushed in the order their edges were taken and
        # popped last first, which replays the walk's expansion order.
        stack = [boundary]
        for node, edges in self.steps:
            value = stack.pop()
            node_in[node] = (meet(node_in[node], value) if node in node_in
                             else value)
            if not edges:
                continue
            transferred = node_transfer(node, value)
            for edge in edges:
                out = refine(edge, transferred)
                eid = edge.id
                edge_values[eid] = (meet(edge_values[eid], out)
                                    if eid in edge_values else out)
                if outs is not None:
                    outs.append(out)
                stack.append(out)
        keyed: dict[tuple[int, frozenset[int]], object] = {}
        if outs is not None:
            for key, out in zip(self.keys, outs):
                keyed[key] = meet(keyed[key], out) if key in keyed else out
        return OracleMeets(node_in, edge_values, keyed, len(self.steps),
                           self.truncated)


def path_tree(
    cfg: Cfg,
    universe: MipsUniverse,
    proc_name: str,
    *,
    max_len: int | None = None,
    edge_cap: int = 2,
    limit: int = 1_000_000,
    collect_keys: bool = False,
) -> PathTree:
    """Enumerate the bounded path tree of one procedure.

    A path ends at ``max_len`` edges (default: twice the edge count), an
    edge is taken at most ``edge_cap`` times per path, and a branch is
    pruned the moment a detected infeasible segment completes on it.
    Pruning depends on the CFG and the segments only, so one tree serves
    every analysis.  Raises :class:`Explosion` past ``limit`` expansions.
    """
    starts: dict[int, list] = {}
    for seg in universe.for_proc(proc_name):
        starts.setdefault(seg.start, []).append(seg)
    if max_len is None:
        max_len = 2 * len(cfg.edges)
    steps: list[tuple[int, tuple]] = []
    # One tuple per distinct step: a tree near the limit holds a million
    # expansions but few distinct steps.
    shared: dict[tuple, tuple] = {}
    keys = [] if collect_keys else None
    stack = [(cfg.start, (), {}, 0)]
    truncated = False
    while stack:
        node, progress, counts, length = stack.pop()
        if len(steps) == limit:
            raise Explosion(
                f"path tree of {proc_name} exceeded {limit} expansions")
        if length >= max_len:
            truncated = True
            steps.append(shared.setdefault((node, ()), (node, ())))
            continue
        edges = []
        for edge in reversed(cfg.out_edges(node)):
            eid = edge.id
            if counts.get(eid, 0) >= edge_cap:
                truncated = True
                continue
            advanced = _advance(starts, progress, eid)
            if advanced is None:
                continue  # completing a segment: path infeasible
            edges.append(edge)
            if keys is not None:
                keys.append((eid, frozenset(seg.id for seg, _ in advanced)))
            new_counts = dict(counts)
            new_counts[eid] = new_counts.get(eid, 0) + 1
            stack.append((edge.target, advanced, new_counts, length + 1))
        step = (node, tuple(edges))
        steps.append(shared.setdefault(step, step))
    return PathTree(steps, keys, truncated)


def mips_free_meets(
    cfg: Cfg,
    universe: MipsUniverse,
    proc_name: str,
    *,
    boundary,
    top,
    meet,
    node_transfer,
    refine,
    max_len: int | None = None,
    edge_cap: int = 2,
    limit: int = 1_000_000,
    collect_keys: bool = False,
) -> OracleMeets:
    """Meet propagated values over bounded segment-free paths.

    ``node_transfer(node_id, value)`` and ``refine(edge, value)`` supply the
    semantics (typically borrowed from a solved analysis so call nodes use
    its summaries); values are met at each node entry and after each edge.
    With ``collect_keys`` the edge meets are additionally grouped by the
    set of segments in progress, which is the decomposition the lifted
    solver keys its pairs by.  This is :func:`path_tree` followed by
    :meth:`PathTree.meets`; ``top`` is not needed by either.
    """
    tree = path_tree(cfg, universe, proc_name, max_len=max_len,
                     edge_cap=edge_cap, limit=limit,
                     collect_keys=collect_keys)
    return tree.meets(boundary=boundary, meet=meet,
                      node_transfer=node_transfer, refine=refine)


def solution_semantics(solution, proc: Procedure):
    """Node-transfer and refine callbacks borrowed from a solved analysis.

    Call nodes use the solution's interprocedural transfer, so the oracle
    measures path sensitivity only, not summary quality.
    """
    cfg = proc.cfg
    analysis = solution.analysis

    def node_transfer(node_id: int, value):
        return solution.node_transfer(cfg.nodes[node_id], value)

    def refine(edge, value):
        return analysis.refine(edge, cfg.nodes[edge.source], value)

    return node_transfer, refine


# ---------------------------------------------------------------------------
# Concrete execution over an input box
# ---------------------------------------------------------------------------

class Trace(NamedTuple):
    """Edge trail of one procedure activation."""

    proc: str
    edges: tuple[int, ...]


def contains_segment(trace_edges, segment_edges) -> bool:
    """Contiguous containment of a segment in an activation trace."""
    seg = tuple(segment_edges)
    trail = tuple(trace_edges)
    span = len(seg)
    return any(trail[i:i + span] == seg
               for i in range(len(trail) - span + 1))


class _Frame:
    def __init__(self, proc: Procedure, node: int, env: dict[str, int],
                 trace: list[int], visits: dict[int, int]) -> None:
        self.proc = proc
        self.node = node
        self.env = env
        self.trace = trace
        self.visits = visits


class _Machine:
    def __init__(self, program: MiniIrProgram, frames, globals_env) -> None:
        self.program = program
        self.frames = frames
        self.globals_env = globals_env
        self.done: list[Trace] = []

    @classmethod
    def initial(cls, program: MiniIrProgram):
        entry = program.by_name[program.entry]
        frame = _Frame(entry, entry.cfg.start, {}, [], {})
        return cls(program, [frame], {})

    def fork(self) -> "_Machine":
        clone = _Machine(
            self.program,
            [_Frame(f.proc, f.node, dict(f.env), list(f.trace),
                    dict(f.visits)) for f in self.frames],
            dict(self.globals_env),
        )
        clone.done = list(self.done)
        return clone

    def finish(self) -> list[Trace]:
        traces = list(self.done)
        for frame in self.frames:
            traces.append(Trace(frame.proc.name, tuple(frame.trace)))
        return traces

    # -- variable access ----------------------------------------------------

    def lookup(self, frame: _Frame, var: str):
        """Value of a variable, or None when a choice must be made."""
        if var in self.program.globals:
            return self.globals_env.get(var)
        return frame.env.get(var)

    def store(self, frame: _Frame, var: str, value: int) -> None:
        if var in self.program.globals:
            self.globals_env[var] = value
        else:
            frame.env[var] = value

    def free_variable(self, frame: _Frame, st) -> str | None:
        """First variable the statement uses that has no value yet."""
        for var in sorted(st.uses()):
            if self.lookup(frame, var) is None:
                return var
        return None

    # -- expression and condition evaluation --------------------------------

    def eval_expr(self, frame: _Frame, expr: Expr) -> int:
        if expr.kind == "const":
            return expr.value
        if expr.kind == "var":
            return self.lookup(frame, expr.name)
        left = self.eval_expr(frame, expr.left)
        right = self.eval_expr(frame, expr.right)
        return {"+": left + right, "-": left - right,
                "*": left * right}[expr.op]

    def eval_cond(self, frame: _Frame, cond: Cond) -> bool:
        if cond.op == "&&":
            return self.eval_cond(frame, cond.left) \
                and self.eval_cond(frame, cond.right)
        if cond.op == "||":
            return self.eval_cond(frame, cond.left) \
                or self.eval_cond(frame, cond.right)
        if cond.op == "var":
            return self.lookup(frame, cond.var) != 0
        left = self.lookup(frame, cond.var)
        right = cond.rhs if isinstance(cond.rhs, int) \
            else self.lookup(frame, cond.rhs)
        return {"<": left < right, "<=": left <= right,
                ">": left > right, ">=": left >= right,
                "==": left == right, "!=": left != right}[cond.op]


class _Choice:
    """A value the top frame needs before it can continue.

    ``move_after`` distinguishes ``read`` (store, then step past the node)
    from a first use of a never-assigned variable (store, then re-execute
    the same statement, which now finds the value).
    """

    def __init__(self, var: str, move_after: bool) -> None:
        self.var = var
        self.move_after = move_after


def execute_all(
    program: MiniIrProgram,
    *,
    lo: int = -3,
    hi: int = 3,
    loop_cap: int = 64,
    run_limit: int = 1_000_000,
) -> list[list[Trace]]:
    """Concretely run the program over every choice in the input box.

    Nondeterminism — ``read`` statements and first uses of variables that
    never received a value — forks one run per box value; each completed
    (or capped) run yields the edge traces of all its activations.
    """
    box = range(lo, hi + 1)
    runs: list[list[Trace]] = []

    def take(machine: _Machine) -> None:
        if len(runs) >= run_limit:
            raise Explosion(f"execution exceeded {run_limit} runs")
        result = _advance_machine(machine, loop_cap)
        if isinstance(result, _Choice):
            for value in box:
                fork = machine.fork()
                frame = fork.frames[-1]
                fork.store(frame, result.var, value)
                if result.move_after:
                    _move(frame, _sole_edge(frame.proc.cfg, frame.node))
                take(fork)
        else:
            runs.append(result)

    take(_Machine.initial(program))
    return runs


def _advance_machine(machine: _Machine, loop_cap: int):
    """Run until completion, truncation, or the next required choice."""
    program = machine.program
    while machine.frames:
        frame = machine.frames[-1]
        cfg = frame.proc.cfg
        visits = frame.visits.get(frame.node, 0) + 1
        if visits > loop_cap:
            return machine.finish()  # capped: keep the partial trace
        frame.visits[frame.node] = visits
        st = cfg.nodes[frame.node].statement

        if st.kind == StKind.EXIT:
            machine.done.append(Trace(frame.proc.name, tuple(frame.trace)))
            machine.frames.pop()
            if machine.frames:
                caller = machine.frames[-1]
                _move(caller, _sole_edge(caller.proc.cfg, caller.node))
            continue

        if st.kind == StKind.READ:
            return _Choice(st.var, move_after=True)

        needed = machine.free_variable(frame, st)
        if needed is not None:
            return _Choice(needed, move_after=False)

        if st.kind == StKind.ASSIGN:
            machine.store(frame, st.var, machine.eval_expr(frame, st.expr))
            _move(frame, _sole_edge(cfg, frame.node))
        elif st.kind in (StKind.PRINT, StKind.SKIP):
            _move(frame, _sole_edge(cfg, frame.node))
        elif st.kind == StKind.ASSERT:
            if not machine.eval_cond(frame, st.cond):
                return machine.finish()  # assumption violated: stop run
            _move(frame, _sole_edge(cfg, frame.node))
        elif st.kind == StKind.BRANCH:
            taken = machine.eval_cond(frame, st.cond)
            wanted = LabelKind.TRUE if taken else LabelKind.FALSE
            (edge,) = [e for e in cfg.out_edges(frame.node)
                       if e.label.kind == wanted]
            _move(frame, edge)
        elif st.kind == StKind.SWITCH:
            value = machine.lookup(frame, st.var)
            arms = cfg.out_edges(frame.node)
            match = [e for e in arms if e.label.kind == LabelKind.CASE
                     and e.label.value == value]
            if not match:
                match = [e for e in arms
                         if e.label.kind == LabelKind.DEFAULT]
            if not match:
                return machine.finish()  # no arm applies: stuck
            _move(frame, match[0])
        elif st.kind == StKind.CALL:
            if st.callee in program.externs:
                # Externs are modeled as no-ops here; detection already
                # treats them as clobbering globals, so no segment spans
                # an extern call either way.
                _move(frame, _sole_edge(cfg, frame.node))
            else:
                callee = program.by_name[st.callee]
                machine.frames.append(
                    _Frame(callee, callee.cfg.start, {}, [], {}))
        else:  # pragma: no cover - parser admits no other kinds
            raise AssertionError(st.kind)
    return machine.finish()


def _sole_edge(cfg: Cfg, node: int):
    (edge,) = cfg.out_edges(node)
    return edge


def _move(frame: _Frame, edge) -> None:
    frame.trace.append(edge.id)
    frame.node = edge.target
