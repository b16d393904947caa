"""Detection of minimal infeasible path segments (MIPS).

A MIPS is an edge path whose start edge contradicts the branch decision at
its end edge: every concrete execution that follows the whole segment would
have to evaluate the end branch the other way.  Detection runs in two steps:

1.  Each conditional arm raises a query ("does this condition evaluate to
    this outcome?") that propagates backwards edge by edge.  An edge answers
    TRUE/FALSE when its branch assertion or its source statement decides the
    outcome (both sides reasoned over one-dimensional integer sets), UNDEF
    when the source statement destroys the variable's value, and otherwise
    stays unresolved and keeps propagating.
2.  FALSE edges seed start points which are hoisted forward across nodes
    whose incoming edges are all starts; unresolved edges downstream of a
    start become inner edges.  Start-to-origin walks along inner edges
    materialize the segments.  Step 1 records what each query reached, so
    step 2 reads one query's answers directly and sweeps only the nodes of
    that query's region: its cost follows the region, not the CFG.

Detected segments are cycle-free, so an edge determines its position in a
segment — which is what lets the in-progress tracking in the lifted solver
work on plain sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .frontend import (
    CallGraph,
    Cond,
    Expr,
    LabelKind,
    MiniIrProgram,
    Procedure,
    StKind,
    build_call_graph,
)


class EdgeNotInMips(ValueError):
    """The edge does not lie on the segment."""


# ---------------------------------------------------------------------------
# One-dimensional integer sets
# ---------------------------------------------------------------------------

INF = float("inf")


@dataclass(frozen=True)
class Interval1D:
    """Closed integer interval [lo, hi] with optionally infinite endpoints."""

    lo: float
    hi: float


@dataclass(frozen=True)
class CoPoint:
    """All integers except one."""

    k: int


OneDSet = Interval1D | CoPoint


def subset(a: OneDSet, b: OneDSet) -> bool:
    if isinstance(a, Interval1D):
        if isinstance(b, Interval1D):
            return b.lo <= a.lo and a.hi <= b.hi
        return not (a.lo <= b.k <= a.hi)
    if isinstance(b, CoPoint):
        return a.k == b.k
    return b.lo == -INF and b.hi == INF


def disjoint(a: OneDSet, b: OneDSet) -> bool:
    if isinstance(a, Interval1D) and isinstance(b, Interval1D):
        return a.hi < b.lo or b.hi < a.lo
    if isinstance(a, Interval1D):
        return a.lo == a.hi == b.k
    if isinstance(b, Interval1D):
        return b.lo == b.hi == a.k
    return False  # two co-points always share values


def contains(a: OneDSet, k: int) -> bool:
    if isinstance(a, Interval1D):
        return a.lo <= k <= a.hi
    return k != a.k


# The comparison that holds exactly when the keyed one fails.
_NEGATED = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=",
            "!=": "=="}


def outcome_set(cond: Cond, taken: bool) -> OneDSet | None:
    """Values of ``cond.var`` for which the condition evaluates to ``taken``.

    None when the condition is opaque, two-variable, or compound.
    """
    if not cond.is_simple() or isinstance(cond.rhs, str):
        return None
    if cond.op == "var":
        return CoPoint(0) if taken else Interval1D(0, 0)
    c = cond.rhs
    op = cond.op if taken else _NEGATED[cond.op]
    if op == "<":
        return Interval1D(-INF, c - 1)
    if op == "<=":
        return Interval1D(-INF, c)
    if op == ">":
        return Interval1D(c + 1, INF)
    if op == ">=":
        return Interval1D(c, INF)
    if op == "==":
        return Interval1D(c, c)
    return CoPoint(c)


# ---------------------------------------------------------------------------
# Queries and answers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Query:
    """One conditional arm's question, propagated backwards.

    ``sat`` is the set of values of ``var`` that take the arm at ``origin``.
    """

    origin: int
    var: str
    sat: OneDSet


class Answer(Enum):
    TRUE = "true"
    FALSE = "false"
    UNDEF = "undef"


def arm_queries(proc: Procedure) -> list[Query]:
    """Queries raised by the procedure's conditional arms, in edge order."""
    queries: list[Query] = []
    cfg = proc.cfg
    for nid in cfg.node_ids():
        st = cfg.nodes[nid].statement
        if st.kind == StKind.BRANCH:
            for e in cfg.out_edges(nid):
                taken = e.label.kind == LabelKind.TRUE
                sat = outcome_set(st.cond, taken)
                if sat is not None:
                    queries.append(Query(e.id, st.cond.var, sat))
        elif st.kind == StKind.SWITCH:
            for e in cfg.out_edges(nid):
                if e.label.kind == LabelKind.CASE:
                    queries.append(Query(
                        e.id, st.var,
                        Interval1D(e.label.value, e.label.value)))
                # No query for the default arm.
    return queries


def edge_assertion(cfg, edge, var: str) -> OneDSet | None:
    """What taking ``edge`` asserts about ``var``, if representable."""
    st = cfg.nodes[edge.source].statement
    if st.kind == StKind.BRANCH:
        if st.cond.is_simple() and not isinstance(st.cond.rhs, str) \
                and st.cond.var == var:
            return outcome_set(st.cond, edge.label.kind == LabelKind.TRUE)
        return None
    if st.kind == StKind.SWITCH and st.var == var:
        if edge.label.kind == LabelKind.CASE:
            return Interval1D(edge.label.value, edge.label.value)
        cases = [e.label.value for e in cfg.out_edges(edge.source)
                 if e.label.kind == LabelKind.CASE]
        if len(cases) == 1:
            return CoPoint(cases[0])
    return None


def const_value(expr: Expr) -> int | None:
    """Fold an all-constant expression; None if any variable occurs."""
    if expr.kind == "const":
        return expr.value
    if expr.kind == "var":
        return None
    left, right = const_value(expr.left), const_value(expr.right)
    if left is None or right is None:
        return None
    return {"+": left + right, "-": left - right,
            "*": left * right}[expr.op]


class _Resolver:
    def __init__(self, program: MiniIrProgram, proc: Procedure,
                 call_graph: CallGraph) -> None:
        self.program = program
        self.proc = proc
        self.cfg = proc.cfg
        self.cg = call_graph

    def resolve(self, edge, query: Query) -> Answer | None:
        """Edge-local answer for a query, None when it propagates on."""
        assertion = edge_assertion(self.cfg, edge, query.var)
        if assertion is not None:
            if subset(assertion, query.sat):
                return Answer.TRUE
            if disjoint(assertion, query.sat):
                return Answer.FALSE
        st = self.cfg.nodes[edge.source].statement
        if st.kind in (StKind.ASSIGN, StKind.READ) and st.var == query.var:
            if st.kind == StKind.ASSIGN:
                k = const_value(st.expr)
                if k is not None:
                    return Answer.TRUE if contains(query.sat, k) \
                        else Answer.FALSE
            return Answer.UNDEF
        if st.kind == StKind.CALL and self._call_may_modify(st.callee,
                                                           query.var):
            return Answer.UNDEF
        return None

    def _call_may_modify(self, callee: str, var: str) -> bool:
        if var not in self.program.globals:
            return False
        if callee in self.program.externs:
            return True
        return var in self.cg.may_modify[callee]


@dataclass
class Step1Result:
    """Backward propagation state: what each query reached.

    ``reached[query]`` maps every edge the query reached to that edge's
    answer, or to None where it stayed unresolved and propagated on.
    """

    queries: list[Query]
    reached: dict[Query, dict[int, Answer | None]]

    @property
    def answers(self) -> dict[tuple[int, Query], Answer]:
        """Every resolved (edge, query) pair and its answer."""
        return {(eid, query): answer
                for query, reach in self.reached.items()
                for eid, answer in reach.items() if answer is not None}


def detect_step1(program: MiniIrProgram, proc: Procedure,
                 call_graph: CallGraph) -> Step1Result:
    cfg = proc.cfg
    resolver = _Resolver(program, proc, call_graph)
    queries = arm_queries(proc)
    reached: dict[Query, dict[int, Answer | None]] = {}
    for query in queries:
        reach: dict[int, Answer | None] = {}
        origin = cfg.edges[query.origin]
        stack = [e.id for e in reversed(cfg.in_edges(origin.source))]
        while stack:
            eid = stack.pop()
            if eid in reach:
                continue
            edge = cfg.edges[eid]
            answer = resolver.resolve(edge, query)
            reach[eid] = answer
            if answer is None:
                stack.extend(
                    e.id for e in reversed(cfg.in_edges(edge.source)))
        reached[query] = reach
    return Step1Result(queries, reached)


# ---------------------------------------------------------------------------
# Step 2: start hoisting, inner marking, materialization
# ---------------------------------------------------------------------------

def detect_step2(proc: Procedure, query: Query,
                 step1: Step1Result) -> list[tuple[int, ...]]:
    """Edge paths of all segments ending at the query's origin.

    Each sweep visits, in reverse postorder, only the nodes with an
    unresolved out-edge for this query: at any other node a sweep of the
    whole CFG changes nothing, so skipping it leaves every sweep's result,
    and the number of sweeps, as they were.
    """
    cfg = proc.cfg
    reach = step1.reached[query]
    start = {eid for eid, answer in reach.items() if answer is Answer.FALSE}
    if not start:
        return []
    outs_at: dict[int, list[int]] = {}
    for eid, answer in reach.items():
        if answer is None:
            outs_at.setdefault(cfg.edges[eid].source, []).append(eid)
    pos = cfg.rpo_position()
    region = [(outs_at[n], [e.id for e in cfg.in_edges(n)])
              for n in sorted(outs_at, key=pos.__getitem__)]
    inner: set[int] = set()
    for _ in range(len(cfg.nodes) + 2):
        changed = False
        for outs, ins in region:
            if ins and all(i in start for i in ins):
                for o in outs:
                    if o not in start:
                        start.add(o)
                        changed = True
                    inner.discard(o)
                for i in ins:
                    start.discard(i)
                changed = True
            elif any(i in start or i in inner for i in ins):
                for o in outs:
                    if o not in start and o not in inner:
                        inner.add(o)
                        changed = True
        if not changed:
            break
    return _materialize(cfg, query, start, inner)


def _materialize(cfg, query: Query, start: set[int],
                 inner: set[int]) -> list[tuple[int, ...]]:
    origin_source = cfg.edges[query.origin].source
    paths: list[tuple[int, ...]] = []
    for s in sorted(start):
        first = cfg.edges[s]
        stack: list[tuple[list[int], frozenset[int]]] = [
            ([s], frozenset((first.source, first.target)))
        ]
        while stack:
            path, visited = stack.pop()
            tail = cfg.edges[path[-1]]
            if tail.target == origin_source:
                paths.append(tuple(path) + (query.origin,))
                continue  # stop this branch at emission
            for e in reversed(cfg.out_edges(tail.target)):
                if e.id in inner and e.target not in visited:
                    stack.append((path + [e.id], visited | {e.target}))
    return paths


# ---------------------------------------------------------------------------
# The universe of detected segments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mips:
    id: int
    proc: str
    edges: tuple[int, ...]
    satisfies_p: bool = True

    @property
    def start(self) -> int:
        return self.edges[0]

    @property
    def end(self) -> int:
        return self.edges[-1]

    @property
    def inner(self) -> tuple[int, ...]:
        return self.edges[1:-1]

    def position(self, edge_id: int) -> int:
        try:
            return self.edges.index(edge_id)
        except ValueError:
            raise EdgeNotInMips(f"e{edge_id} not in segment {self.id}") \
                from None

    def to_json(self):
        return {
            "id": self.id,
            "proc": self.proc,
            "edges": [f"e{e}" for e in self.edges],
            "start": f"e{self.start}",
            "inner": [f"e{e}" for e in self.inner],
            "end": f"e{self.end}",
            "satisfies_p": self.satisfies_p,
        }


class MipsUniverse:
    """All detected segments of a program, with per-edge tracking tables."""

    def __init__(self, program: MiniIrProgram, all_mips: list[Mips]) -> None:
        self.program = program
        self.all = tuple(all_mips)
        self.by_id = {m.id: m for m in self.all}
        grouped: dict[str, list[Mips]] = {}
        for m in self.all:
            grouped.setdefault(m.proc, []).append(m)
        self._by_proc: dict[str, tuple[Mips, ...]] = {
            proc.name: tuple(grouped.get(proc.name, ()))
            for proc in program.procedures}
        starts: dict[int, set[int]] = {}
        continues: dict[int, set[int]] = {}
        ends: dict[int, set[int]] = {}
        for m in self.all:
            starts.setdefault(m.start, set()).add(m.id)
            ends.setdefault(m.end, set()).add(m.id)
            for e in m.edges[1:]:
                continues.setdefault(e, set()).add(m.id)
        # Every end edge is a start or a continuing edge of its segment.
        self._crossing: dict[int, tuple[frozenset[int], ...]] = {
            e: (frozenset(starts.get(e, ())), frozenset(continues.get(e, ())),
                frozenset(ends.get(e, ())))
            for e in starts.keys() | continues.keys()
        }
        empty: frozenset[int] = frozenset()
        self._untouched = (empty, empty, empty)
        self._cso_cache: dict[tuple[int, int], frozenset[int]] = {}

    def __len__(self) -> int:
        return len(self.all)

    def for_proc(self, name: str) -> tuple[Mips, ...]:
        return self._by_proc.get(name, ())

    def crossing(self, edge_id: int) -> tuple[frozenset[int], ...]:
        """Segments that start at, continue over and end at an edge.

        A tracked set ``t`` crosses the edge as ``starts | (t & continues)``:
        segments starting there join unconditionally, and tracked segments
        survive exactly when the edge is their next (position-determined)
        edge, which for cycle-free segments is membership past the start.
        The pair is blocked when that set meets ``ends``.
        """
        return self._crossing.get(edge_id, self._untouched)

    def cso(self, edge_id: int, mips: Mips) -> frozenset[int]:
        """Segments whose remaining path is an initial run of this one's.

        A segment qualifies when its route from this edge to its own end is
        a prefix of ``mips``'s remaining route, so it completes at or before
        the moment ``mips`` does whenever both continue past this edge.
        Blocking at its end is then subsumed by tracking ``mips`` alone.
        The relation is reflexive but not symmetric: a shorter segment that
        peels off early never covers the longer one's tail.
        """
        cached = self._cso_cache.get((edge_id, mips.id))
        if cached is not None:
            return cached
        pos = mips.position(edge_id)
        suffix = mips.edges[pos:]
        out = set()
        for other in self.for_proc(mips.proc):
            try:
                opos = other.position(edge_id)
            except EdgeNotInMips:
                continue
            osuffix = other.edges[opos:]
            if suffix[:len(osuffix)] == osuffix:
                out.add(other.id)
        result = frozenset(out)
        self._cso_cache[(edge_id, mips.id)] = result
        return result

    def to_json(self):
        return [m.to_json() for m in self.all]


def detect_mips(program: MiniIrProgram,
                call_graph: CallGraph | None = None) -> MipsUniverse:
    """Run both detection steps over every procedure."""
    cg = call_graph or build_call_graph(program)
    proc_order = {p.name: i for i, p in enumerate(program.procedures)}
    found: list[tuple[str, tuple[int, ...]]] = []
    for proc in program.procedures:
        step1 = detect_step1(program, proc, cg)
        for query in step1.queries:
            for path in detect_step2(proc, query, step1):
                found.append((proc.name, path))
    found.sort(key=lambda item: (
        proc_order[item[0]], item[1][-1], item[1][0], item[1]))
    universe = [
        Mips(i + 1, proc_name, path)
        for i, (proc_name, path) in enumerate(found)
    ]
    return MipsUniverse(program, universe)
