"""Analysis domains: reaching definitions, must-defined, intervals.

All analyses are forward meet-semilattice problems.  Values descend from an
analysis-specific top during iteration; ``meet`` combines values at join
points and ``leq`` is the precision order (lower = less precise).

Bit-vector analyses represent sets as Python int masks over program-wide fact
tables.  The interval analysis maps variables to ``(lo, hi)`` pairs with
``float('inf')`` endpoints; an absent variable is the per-variable top (the
empty interval), which deliberately does not poison the rest of the state — a
never-assigned variable in a branch condition behaves nondeterministically.
"""

from __future__ import annotations

import abc
from typing import Callable

from .frontend import (
    Cond,
    Expr,
    LabelKind,
    MiniIrProgram,
    Node,
    Procedure,
    StKind,
)

INF = float("inf")

IntervalValue = dict[str, tuple[float, float]]


class Analysis(abc.ABC):
    """One registered data-flow analysis, instantiated per program."""

    name: str
    kind: str  # "bitvector" | "interval"
    is_distributive: bool

    def __init__(self, program: MiniIrProgram) -> None:
        self.program = program

    @abc.abstractmethod
    def top(self):
        """Initial value at non-boundary nodes; neutral element of meet."""

    @abc.abstractmethod
    def meet(self, a, b):
        ...

    @abc.abstractmethod
    def leq(self, a, b) -> bool:
        ...

    @abc.abstractmethod
    def transfer(self, node: Node, value):
        """Statement transfer; call nodes are handled by the solvers."""

    def refine(self, edge, source_node: Node, value):
        """Branch-arm tightening along ``edge``; identity by default."""
        return value

    @abc.abstractmethod
    def entry_boundary(self, proc: Procedure):
        """Boundary value for the program entry (and unreachable procedures)."""

    @abc.abstractmethod
    def callee_boundary(self, proc: Procedure, met_callsite_value):
        """Boundary for a called procedure given met call-site values."""

    @abc.abstractmethod
    def to_json(self, value):
        ...

    def json_views(self) -> Callable[[object], object]:
        """``to_json`` that returns one shared view per distinct value.

        A report built from these views holds each distinct value once,
        and the CLI's writer encodes a shared container once.  The views
        are read-only and live as long as the returned function.
        """
        views: dict = {}
        key_of = self._view_key

        def view(value):
            key = key_of(value)
            out = views.get(key)
            if out is None:
                out = views[key] = self.to_json(value)
            return out
        return view

    @staticmethod
    def _view_key(value):
        """A hashable key equal for equal values."""
        return value

    @abc.abstractmethod
    def format(self, value) -> str:
        ...


# ---------------------------------------------------------------------------
# Bit-vector analyses
# ---------------------------------------------------------------------------

def _set_bits(value: int):
    """Indices of the set bits of ``value``, lowest first."""
    while value:
        low = value & -value
        yield low.bit_length() - 1
        value ^= low


class BitvectorAnalysis(Analysis):
    """Set-valued analysis over a fixed program-wide fact table.

    ``union_meet`` selects may (union) or must (intersection) combination.
    """

    kind = "bitvector"
    union_meet: bool

    def __init__(self, program: MiniIrProgram) -> None:
        super().__init__(program)
        self.gen: dict[int, int] = {}
        self.kill: dict[int, int] = {}
        self.full_mask = 0
        self.globals_mask = 0
        self._build_tables()

    @abc.abstractmethod
    def _build_tables(self) -> None:
        ...

    def top(self) -> int:
        return 0 if self.union_meet else self.full_mask

    def meet(self, a: int, b: int) -> int:
        return (a | b) if self.union_meet else (a & b)

    def leq(self, a: int, b: int) -> bool:
        # May: lower = larger set.  Must: lower = smaller set.
        return (a & b) == b if self.union_meet else (a & b) == a

    def transfer(self, node: Node, value: int) -> int:
        return (value & ~self.kill.get(node.id, 0)) | self.gen.get(node.id, 0)

    def kill_mask(self, node_id: int) -> int:
        return self.kill.get(node_id, 0)


class ReachingDefinitions(BitvectorAnalysis):
    """Which definition sites may reach a point.

    Facts are ``(variable, node id)`` for every assignment and ``read`` in the
    program, ordered by node id, so bit order is decode order.
    """

    name = "rd"
    union_meet = True
    is_distributive = True

    def _build_tables(self) -> None:
        self.facts: list[tuple[str, int]] = []
        for proc in self.program.procedures:
            cfg = proc.cfg
            for nid in cfg.node_ids():
                st = cfg.nodes[nid].statement
                if st.kind in (StKind.ASSIGN, StKind.READ):
                    self.facts.append((st.var, nid))
        self.facts.sort(key=lambda f: (f[1], f[0]))
        self._fact_views = [[var, nid] for var, nid in self.facts]
        self.fact_bit = {fact: i for i, fact in enumerate(self.facts)}
        self.full_mask = (1 << len(self.facts)) - 1
        var_mask: dict[str, int] = {}
        for (var, nid), i in self.fact_bit.items():
            var_mask[var] = var_mask.get(var, 0) | (1 << i)
        self.var_mask = var_mask
        for (var, nid), i in self.fact_bit.items():
            self.gen[nid] = 1 << i
            self.kill[nid] = var_mask[var]
        for (var, nid), i in self.fact_bit.items():
            if var in self.program.globals:
                self.globals_mask |= 1 << i

    def entry_boundary(self, proc: Procedure) -> int:
        return 0

    def callee_boundary(self, proc: Procedure, met_callsite_value: int) -> int:
        return met_callsite_value & self.globals_mask

    def decode(self, value: int) -> list[tuple[str, int]]:
        facts = self.facts
        return [facts[i] for i in _set_bits(value)]

    def to_json(self, value: int):
        # One shared, read-only [var, node] list per fact.
        views = self._fact_views
        return [views[i] for i in _set_bits(value)]

    def format(self, value: int) -> str:
        facts = self.decode(value)
        if not facts:
            return "{}"
        return ", ".join(f"{var}@n{nid}" for var, nid in facts)


class MustDefined(BitvectorAnalysis):
    """Which variables are definitely assigned on every path to a point.

    Facts are variable names program-wide.  Calls to unknown procedures
    neither define nor kill.
    """

    name = "must-defined"
    union_meet = False
    is_distributive = True

    def _build_tables(self) -> None:
        names: set[str] = set(self.program.globals)
        for proc in self.program.procedures:
            names.update(proc.params)
            for node in proc.cfg.nodes.values():
                st = node.statement
                names.update(st.defs() | st.uses())
        self.vars = sorted(names)
        self.var_bit = {v: i for i, v in enumerate(self.vars)}
        self.full_mask = (1 << len(self.vars)) - 1
        for proc in self.program.procedures:
            for node in proc.cfg.nodes.values():
                st = node.statement
                if st.kind in (StKind.ASSIGN, StKind.READ):
                    self.gen[node.id] = 1 << self.var_bit[st.var]
        for g in self.program.globals:
            self.globals_mask |= 1 << self.var_bit[g]

    def _params_mask(self, proc: Procedure) -> int:
        mask = 0
        for p in proc.params:
            mask |= 1 << self.var_bit[p]
        return mask

    def entry_boundary(self, proc: Procedure) -> int:
        return self._params_mask(proc)

    def callee_boundary(self, proc: Procedure, met_callsite_value: int) -> int:
        return (met_callsite_value & self.globals_mask) | self._params_mask(proc)

    def decode(self, value: int) -> list[str]:
        names = self.vars
        return [names[i] for i in _set_bits(value)]

    def to_json(self, value: int):
        return self.decode(value)

    def format(self, value: int) -> str:
        names = self.decode(value)
        return "{" + ", ".join(names) + "}" if names else "{}"


# ---------------------------------------------------------------------------
# Interval analysis
# ---------------------------------------------------------------------------

def interval_meet(a: IntervalValue, b: IntervalValue) -> IntervalValue:
    """Pointwise convex hull; an absent variable is the empty interval."""
    out = dict(a)
    for var, (lo, hi) in b.items():
        if var in out:
            alo, ahi = out[var]
            out[var] = (min(alo, lo), max(ahi, hi))
        else:
            out[var] = (lo, hi)
    return out


def interval_leq(a: IntervalValue, b: IntervalValue) -> bool:
    """Wider is lower: every interval of ``b`` is contained in ``a``'s."""
    for var, (lo, hi) in b.items():
        if var not in a:
            return False
        alo, ahi = a[var]
        if not (alo <= lo and ahi >= hi):
            return False
    return True


def eval_expr(expr: Expr, value: IntervalValue) -> tuple[float, float] | None:
    """Interval of an expression; None when any operand is empty."""
    if expr.kind == "const":
        return (expr.value, expr.value)
    if expr.kind == "var":
        return value.get(expr.name)
    left = eval_expr(expr.left, value)
    right = eval_expr(expr.right, value)
    if left is None or right is None:
        return None
    (alo, ahi), (blo, bhi) = left, right
    if expr.op == "+":
        return (alo + blo, ahi + bhi)
    if expr.op == "-":
        return (alo - bhi, ahi - blo)
    if alo == ahi and blo == bhi and alo not in (INF, -INF) \
            and blo not in (INF, -INF):
        return (alo * blo, alo * blo)
    return (-INF, INF)


# (op, taken-branch) -> constraining interval factory over the constant.
_COMPARE_CONSTRAINTS = {
    ("<", True): lambda c: (-INF, c - 1),
    ("<", False): lambda c: (c, INF),
    ("<=", True): lambda c: (-INF, c),
    ("<=", False): lambda c: (c + 1, INF),
    (">", True): lambda c: (c + 1, INF),
    (">", False): lambda c: (-INF, c),
    (">=", True): lambda c: (c, INF),
    (">=", False): lambda c: (-INF, c - 1),
    ("==", True): lambda c: (c, c),
    ("!=", False): lambda c: (c, c),
}


def constraint_for(cond: Cond, taken: bool) -> tuple[float, float] | None:
    """1-D constraint on ``cond.var`` implied by taking the given branch.

    None when the branch outcome is not representable as one interval
    (``!=`` taken, ``==`` not taken, a truthy bare variable) or the condition
    is opaque.
    """
    if not cond.is_simple():
        return None
    if cond.op == "var":
        return (0, 0) if not taken else None
    if isinstance(cond.rhs, str):
        return None
    factory = _COMPARE_CONSTRAINTS.get((cond.op, taken))
    return factory(cond.rhs) if factory else None


def _intersect_var(value: IntervalValue, var: str,
                   lo: float, hi: float) -> IntervalValue:
    out = dict(value)
    if var not in out:
        return out  # empty stays empty
    clo, chi = out[var]
    nlo, nhi = max(clo, lo), min(chi, hi)
    if nlo > nhi:
        del out[var]
    else:
        out[var] = (nlo, nhi)
    return out


class IntervalAnalysis(Analysis):
    """Variable ranges with branch-arm refinement.

    Non-distributive: the meet of two states can evaluate more precisely than
    the hull of the per-state evaluations.
    """

    name = "interval"
    kind = "interval"
    is_distributive = False

    def __init__(self, program: MiniIrProgram) -> None:
        super().__init__(program)
        # One shared, read-only [lo, hi] list per bound pair.
        self._pair_views: dict[tuple[float, float], list] = {}

    def top(self) -> IntervalValue:
        return {}

    def meet(self, a: IntervalValue, b: IntervalValue) -> IntervalValue:
        return interval_meet(a, b)

    def leq(self, a: IntervalValue, b: IntervalValue) -> bool:
        return interval_leq(a, b)

    def transfer(self, node: Node, value: IntervalValue) -> IntervalValue:
        st = node.statement
        if st.kind == StKind.ASSIGN:
            out = dict(value)
            out.pop(st.var, None)
            iv = eval_expr(st.expr, value)
            if iv is not None:
                out[st.var] = iv
            return out
        if st.kind == StKind.READ:
            out = dict(value)
            out[st.var] = (-INF, INF)
            return out
        return value

    def refine(self, edge, source_node: Node, value: IntervalValue) -> IntervalValue:
        st = source_node.statement
        label = edge.label
        if st.kind == StKind.SWITCH:
            if label.kind == LabelKind.CASE:
                return _intersect_var(value, st.var, label.value, label.value)
            return value
        if st.kind != StKind.BRANCH or label.kind not in (
                LabelKind.TRUE, LabelKind.FALSE):
            return value
        cond = st.cond
        taken = label.kind == LabelKind.TRUE
        if cond.is_simple() and isinstance(cond.rhs, str):
            # var == var' taken (or var != var' not taken): both get the
            # intersection of the two current intervals.
            equal = (cond.op == "==" and taken) or (cond.op == "!=" and not taken)
            if not equal:
                return value
            a = value.get(cond.var)
            b = value.get(cond.rhs)
            out = dict(value)
            if a is None or b is None:
                out.pop(cond.var, None)
                out.pop(cond.rhs, None)
                return out
            lo, hi = max(a[0], b[0]), min(a[1], b[1])
            if lo > hi:
                out.pop(cond.var, None)
                out.pop(cond.rhs, None)
            else:
                out[cond.var] = (lo, hi)
                out[cond.rhs] = (lo, hi)
            return out
        constraint = constraint_for(cond, taken)
        if constraint is None:
            return value
        return _intersect_var(value, cond.var, *constraint)

    def entry_boundary(self, proc: Procedure) -> IntervalValue:
        return {p: (-INF, INF) for p in proc.params}

    def callee_boundary(self, proc: Procedure,
                        met_callsite_value: IntervalValue) -> IntervalValue:
        out = {v: iv for v, iv in met_callsite_value.items()
               if v in self.program.globals}
        for p in proc.params:
            out[p] = (-INF, INF)
        return out

    def apply_call(self, value: IntervalValue, callee_exit: IntervalValue,
                   modified_globals: frozenset[str]) -> IntervalValue:
        """Substitute the callee's exit intervals for modified globals."""
        out = dict(value)
        for g in modified_globals:
            iv = callee_exit.get(g)
            if iv is None:
                out.pop(g, None)
            else:
                out[g] = iv
        return out

    def havoc_globals(self, value: IntervalValue) -> IntervalValue:
        out = dict(value)
        for g in self.program.globals:
            out[g] = (-INF, INF)
        return out

    @staticmethod
    def _bound_json(bound: float):
        if bound == INF:
            return "+inf"
        if bound == -INF:
            return "-inf"
        return int(bound)

    def to_json(self, value: IntervalValue):
        views = self._pair_views
        out = {}
        for var, pair in sorted(value.items()):
            view = views.get(pair)
            if view is None:
                lo, hi = pair
                view = views[pair] = [self._bound_json(lo),
                                      self._bound_json(hi)]
            out[var] = view
        return out

    @staticmethod
    def _view_key(value: IntervalValue):
        return frozenset(value.items())

    def format(self, value: IntervalValue) -> str:
        if not value:
            return "{}"

        def text(bound: float) -> str:
            if bound == INF:
                return "+inf"
            if bound == -INF:
                return "-inf"
            return str(int(bound))

        return ", ".join(
            f"{var}: [{text(lo)}, {text(hi)}]"
            for var, (lo, hi) in sorted(value.items())
        )


# ---------------------------------------------------------------------------
# Widening
# ---------------------------------------------------------------------------

WIDEN_THRESHOLD = 4


class WideningState:
    """Per-run interval widening on loop back edges.

    Counts strict bound movements of the folded value flowing through each
    back edge, per variable and side; after ``WIDEN_THRESHOLD`` movements the
    side is forced to the corresponding infinity for the rest of the run.
    Both solvers use the same mechanism (a plain value is its own fold), which
    keeps their loop bounds aligned.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self._last: dict[tuple[int, str], tuple[float, float]] = {}
        self._count: dict[tuple[int, str, str], int] = {}
        self._forced: set[tuple[int, str, str]] = set()

    def observe(self, edge_id: int, folded: IntervalValue) -> None:
        if not self.enabled:
            return
        for var, (lo, hi) in folded.items():
            key = (edge_id, var)
            prev = self._last.get(key)
            self._last[key] = (lo, hi)
            if prev is None:
                continue
            if lo < prev[0]:
                self._bump(edge_id, var, "lo")
            if hi > prev[1]:
                self._bump(edge_id, var, "hi")

    def _bump(self, edge_id: int, var: str, side: str) -> None:
        key = (edge_id, var, side)
        count = self._count.get(key, 0) + 1
        self._count[key] = count
        if count >= WIDEN_THRESHOLD:
            self._forced.add(key)

    def apply(self, edge_id: int, value: IntervalValue) -> IntervalValue:
        if not self.enabled or not self._forced:
            return value
        out = None
        for var, (lo, hi) in value.items():
            flo = (edge_id, var, "lo") in self._forced
            fhi = (edge_id, var, "hi") in self._forced
            if flo or fhi:
                if out is None:
                    out = dict(value)
                out[var] = (-INF if flo else lo, INF if fhi else hi)
        return value if out is None else out


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

ANALYSES: dict[str, type[Analysis]] = {
    ReachingDefinitions.name: ReachingDefinitions,
    MustDefined.name: MustDefined,
    IntervalAnalysis.name: IntervalAnalysis,
}


def make_analysis(name: str, program: MiniIrProgram) -> Analysis:
    try:
        cls = ANALYSES[name]
    except KeyError:
        known = ", ".join(sorted(ANALYSES))
        raise ValueError(f"unknown analysis '{name}' (known: {known})") from None
    return cls(program)
