"""The interval analysis and its widening, which only interval runs load.

Values map variables to ``(lo, hi)`` pairs with ``float('inf')`` endpoints;
an absent variable is the per-variable top (the empty interval), which
deliberately does not poison the rest of the state — a never-assigned
variable in a branch condition behaves nondeterministically.
"""

from __future__ import annotations

from functools import cached_property

from . import EncodedDict, Memo
from .frontend import Expr, LabelKind, MiniIrProgram, Node, Procedure, StKind
from .lattice import Analysis, _joined, _nested
from .mips import INF, Interval1D, arm_set

IntervalValue = dict[str, tuple[float, float]]


def interval_meet(a: IntervalValue, b: IntervalValue) -> IntervalValue:
    """Pointwise convex hull; an absent variable is the empty interval.

    Returns ``a`` itself when ``b`` adds nothing to it, and otherwise a
    copy of ``a`` made at the first variable that changes.  Sharing ``a``
    (and ``b``'s pairs) is safe because no code mutates an interval value
    in place: every function that derives a value copies first.
    """
    if a is b:
        return a
    out = None
    for var, pair in b.items():
        mine = a.get(var)
        if mine is pair:
            continue
        if mine is not None:
            lo, hi = pair
            alo, ahi = mine
            if lo < alo:
                pair = (lo, hi if hi > ahi else ahi)
            elif hi > ahi:
                pair = (alo, hi)
            else:
                continue
        if out is None:
            out = dict(a)
        out[var] = pair
    return a if out is None else out


def interval_leq(a: IntervalValue, b: IntervalValue) -> bool:
    """Wider is lower: every interval of ``b`` is contained in ``a``'s."""
    if a == b:  # one C-level comparison decides the common equal case
        return True
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


def _bound_json(bound: float):
    if bound == INF:
        return "+inf"
    if bound == -INF:
        return "-inf"
    return int(bound)


def _new_item_views() -> Memo:
    """A cache of (var, (lo, hi)) items' views: the pair's read-only
    [lo, hi] list, shared by every item with that pair, and the item's
    '"var": [...]' line."""
    from .jsontext import scalar_text

    def pair_view(pair) -> tuple[list, str]:
        element = [_bound_json(pair[0]), _bound_json(pair[1])]
        return element, _nested(element, scalar_text)
    pair_views = Memo(pair_view)

    def item_view(item) -> tuple[list, str]:
        var, pair = item
        element, text = pair_views[pair]
        return element, scalar_text(var) + ": " + text
    return Memo(item_view)


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
        # Sorted, so havocked values list the globals in one order.
        self._globals = sorted(program.globals)
        # Per edge id: what ``refine`` does there (``_refine_rule``).
        self._refine_rules: dict[int, tuple] = {}

    def top(self) -> IntervalValue:
        return {}

    meet = staticmethod(interval_meet)
    leq = staticmethod(interval_leq)

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
        # What an edge refines depends on the edge alone: work it out once.
        rule = self._refine_rules.get(edge.id)
        if rule is None:
            rule = self._refine_rules[edge.id] = self._refine_rule(
                edge, source_node)
        if not rule:
            return value
        if len(rule) == 3:
            return _intersect_var(value, *rule)
        # var == var' holds on this arm: both get the intersection of the
        # two current intervals.
        var, other = rule
        a = value.get(var)
        b = value.get(other)
        out = dict(value)
        if a is None or b is None:
            out.pop(var, None)
            out.pop(other, None)
            return out
        lo, hi = max(a[0], b[0]), min(a[1], b[1])
        if lo > hi:
            out.pop(var, None)
            out.pop(other, None)
        else:
            out[var] = (lo, hi)
            out[other] = (lo, hi)
        return out

    @staticmethod
    def _refine_rule(edge, source_node: Node) -> tuple:
        """``refine``'s work on one edge: ``()`` for none, ``(var, lo,
        hi)`` to intersect ``var`` with [lo, hi], or ``(var, other)`` when
        the arm makes two variables equal.  An arm whose ``arm_set`` is one
        interval intersects with it; other one-variable sets are not
        intervals and refine nothing."""
        st = source_node.statement
        arm = arm_set(st, edge.label)
        if arm is not None:
            var, sat = arm
            return (var, sat.lo, sat.hi) if isinstance(sat, Interval1D) else ()
        cond = st.cond
        if st.kind == StKind.BRANCH and cond.is_simple() \
                and isinstance(cond.rhs, str):
            taken = edge.label.kind == LabelKind.TRUE
            equal = (cond.op == "==" and taken) or (cond.op == "!=" and not taken)
            return (cond.var, cond.rhs) if equal else ()
        return ()

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
                   modified_globals: list[str]) -> IntervalValue:
        """Substitute the callee's exit intervals for modified globals,
        in the order the list gives them."""
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
        for g in self._globals:
            out[g] = (-INF, INF)
        return out

    @cached_property
    def _item_views(self) -> Memo:
        # Built on the first view, so a run that builds none loads no
        # ``jsontext``.  The cache's functions do not hold the analysis,
        # so an instance is in no reference cycle and reference counting
        # frees it without the cyclic collector.
        return _new_item_views()

    def _encode(self, value: IntervalValue) -> EncodedDict:
        items = self._item_views
        out = EncodedDict()
        lines = []
        # Names are unique: sorting them orders the items as sorting the
        # items would, without comparing tuples.
        for var in sorted(value):
            pair, line = items[var, value[var]]
            out[var] = pair
            lines.append(line)
        out.text = _joined(lines, "{}")
        return out

    @staticmethod
    def _view_key(value: IntervalValue):
        # Insertion order is part of the key: an equal value built in
        # another order gets a second view with the same text.  Two flat
        # tuples compare as the tuple of items does, without a 2-tuple
        # per variable.
        return (tuple(value), tuple(value.values()))

    def format(self, value: IntervalValue) -> str:
        if not value:
            return "{}"
        bound = _bound_json
        return ", ".join(f"{var}: [{bound(lo)}, {bound(hi)}]"
                         for var, (lo, hi) in sorted(value.items()))


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
    keeps their loop bounds aligned.  Only a run of an analysis that widens
    (the interval analysis) builds one.
    """

    def __init__(self) -> None:
        self._last: dict[tuple[int, str], tuple[float, float]] = {}
        self._count: dict[tuple[int, str, str], int] = {}
        self._forced: set[tuple[int, str, str]] = set()

    def observe(self, edge_id: int, folded: IntervalValue) -> None:
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
        if not self._forced:
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
