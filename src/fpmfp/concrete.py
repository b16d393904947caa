"""Concrete execution over an input box, the second reference oracle.

:func:`execute_all` runs a program concretely once per sequence of
choices from a small input box and yields each run's per-activation
edge traces as the run finishes.
Each run is replayed from the program's start, as in stateless search
(Godefroid, VeriSoft, POPL 1997): nothing is copied at a choice.  A run
takes the values of its choice tuple in order; at each later choice it
takes the first ``_BOX`` value and leaves the tuple of every other value
on an explicit stack, so runs come out depth first in box order.  A run
is cut short, keeping its partial traces, when one activation visits a
node more than ``_LOOP_CAP`` times or the activation stack would grow
past ``_LOOP_CAP``.  The traces witness that detected segments never
occur in a real execution.  Past ``_RUN_LIMIT`` runs it raises
:class:`fpmfp.oracle.Explosion` instead of running unbounded.  No
subcommand runs it, so no subcommand loads it.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Callable, Iterator

from .frontend import Cfg, Cond, Expr, LabelKind, MiniIrProgram, StKind
from .oracle import Explosion


class Trace(namedtuple("Trace", "proc edges")):
    """Edge trail of one activation of procedure ``proc``: its edge
    ids, in the order taken."""

    __slots__ = ()


# Visits of one node per activation, and activations on the stack, past
# which a run is cut short.
_LOOP_CAP = 64
# The input box: the values a nondeterministic choice ranges over.
_BOX = range(-3, 4)
# Yielded runs after which ``execute_all`` raises ``Explosion``.
_RUN_LIMIT = 1_000_000


def execute_all(program: MiniIrProgram) -> Iterator[list[Trace]]:
    """Concretely run the program over every choice in the input box.

    Nondeterminism — ``read`` statements and first uses of variables that
    never received a value — takes each ``_BOX`` value in turn; each
    completed (or capped) run is yielded as it finishes, as the edge
    traces of all its activations, so no run is kept.  Past
    ``_RUN_LIMIT`` yielded runs it raises ``Explosion``.
    """
    # Each statement's variables in name order, by program-wide node id.
    uses = {nid: sorted(node.statement.uses())
            for proc in program.procedures
            for nid, node in proc.cfg.nodes.items()}
    pending: list[tuple[int, ...]] = [()]
    runs = 0
    while pending:
        if runs >= _RUN_LIMIT:
            raise Explosion(f"execution exceeded {_RUN_LIMIT} runs")
        runs += 1
        yield _run(program, uses, pending.pop(), pending)


def _run(program: MiniIrProgram, uses: dict[int, list[str]],
         choices: tuple[int, ...],
         pending: list[tuple[int, ...]]) -> list[Trace]:
    """One run from the start that takes ``choices`` at its first choices.

    Each later choice takes ``_BOX[0]`` and pushes onto ``pending`` the
    choice tuple of every other box value, last value first.
    """
    globals_env: dict[str, int] = {}
    done: list[Trace] = []
    callers = []  # (proc, node, env, trace, visits) of each suspended caller
    proc = program.by_name[program.entry]
    node, env, trace, visits = proc.cfg.start, {}, [], {}
    taken = 0

    def scope(var: str) -> dict[str, int]:
        return globals_env if var in program.globals else env

    def lookup(var: str) -> int | None:  # None: a choice must be made
        return scope(var).get(var)

    def choose(var: str) -> None:
        nonlocal choices, taken
        if taken == len(choices):
            pending.extend(choices + (value,) for value in reversed(_BOX[1:]))
            choices += (_BOX[0],)
        scope(var)[var] = choices[taken]
        taken += 1

    def cut() -> list[Trace]:  # a run stopped short keeps partial traces
        return done + [Trace(p.name, tuple(t)) for p, _, _, t, _ in callers] \
            + [Trace(proc.name, tuple(trace))]

    while True:
        cfg = proc.cfg
        visits[node] = visits.get(node, 0) + 1
        if visits[node] > _LOOP_CAP:
            return cut()
        st = cfg.nodes[node].statement
        needed = next((var for var in uses[node] if lookup(var) is None), None)
        if needed is not None:
            # A first use of a never-assigned variable: choose its value,
            # then run the same node again, at the cost of one more visit.
            choose(needed)
            continue
        if st.kind == StKind.EXIT:
            done.append(Trace(proc.name, tuple(trace)))
            if not callers:
                return done
            proc, node, env, trace, visits = callers.pop()
            edge = _sole_edge(proc.cfg, node)
        elif st.kind == StKind.READ:
            choose(st.var)
            edge = _sole_edge(cfg, node)
        elif st.kind == StKind.ASSIGN:
            scope(st.var)[st.var] = _value(st.expr, lookup)
            edge = _sole_edge(cfg, node)
        elif st.kind == StKind.ASSERT:
            if not _holds(st.cond, lookup):
                return cut()  # assumption violated: stop run
            edge = _sole_edge(cfg, node)
        elif st.kind == StKind.BRANCH:
            wanted = LabelKind.TRUE if _holds(st.cond, lookup) \
                else LabelKind.FALSE
            (edge,) = [e for e in cfg.out_of[node]
                       if e.label.kind == wanted]
        elif st.kind == StKind.SWITCH:
            value = lookup(st.var)
            arms = cfg.out_of[node]
            # The parser gives every switch a default arm.
            match = [e for e in arms if e.label.kind == LabelKind.CASE
                     and e.label.value == value] \
                or [e for e in arms if e.label.kind == LabelKind.DEFAULT]
            edge = match[0]
        elif st.kind == StKind.CALL and st.callee not in program.externs:
            if len(callers) + 1 == _LOOP_CAP:
                return cut()  # one more activation would pass the cap
            callers.append((proc, node, env, trace, visits))
            proc = program.by_name[st.callee]
            node, env, trace, visits = proc.cfg.start, {}, [], {}
            continue
        elif st.kind in (StKind.PRINT, StKind.SKIP, StKind.CALL):
            # Externs are modeled as no-ops here; detection already treats
            # them as clobbering globals, so no segment spans an extern
            # call either way.
            edge = _sole_edge(cfg, node)
        else:  # pragma: no cover - parser admits no other kinds
            raise AssertionError(st.kind)
        trace.append(edge.id)
        node = edge.target


def _value(expr: Expr, lookup: Callable[[str], int]) -> int:
    """Value of a constant, a variable or ``atom op atom``."""
    if expr.kind != "bin":
        return _atom(expr, lookup)
    left, right = _atom(expr.left, lookup), _atom(expr.right, lookup)
    return {"+": left + right, "-": left - right, "*": left * right}[expr.op]


def _atom(expr: Expr, lookup: Callable[[str], int]) -> int:
    return expr.value if expr.kind == "const" else lookup(expr.name)


def _holds(cond: Cond, lookup: Callable[[str], int]) -> bool:
    """Truth of a condition, its ``&&``/``||`` tree walked by a stack.

    Every operand's variables have values, so evaluating both sides of
    ``&&`` and ``||`` gives the short-circuit result.
    """
    values: list[bool] = []
    todo: list[Cond | str] = [cond]
    while todo:
        item = todo.pop()
        if isinstance(item, str):  # both operands are on ``values``
            right, left = values.pop(), values.pop()
            values.append(left and right if item == "&&" else left or right)
        elif item.op in ("&&", "||"):
            todo += [item.op, item.right, item.left]
        elif item.op == "var":
            values.append(lookup(item.var) != 0)
        else:
            left = lookup(item.var)
            right = lookup(item.rhs) if isinstance(item.rhs, str) else item.rhs
            values.append({"<": left < right, "<=": left <= right,
                           ">": left > right, ">=": left >= right,
                           "==": left == right, "!=": left != right}[item.op])
    (value,) = values
    return value


def _sole_edge(cfg: Cfg, node: int):
    (edge,) = cfg.out_of[node]
    return edge
