"""Concrete execution over an input box, the second reference oracle.

:func:`execute_all` runs programs concretely over a small input box,
forking on every source of nondeterminism, and returns per-activation
edge traces.  Its traces witness that detected segments never occur in a
real execution.  It raises :class:`fpmfp.oracle.Explosion` instead of
running unbounded.  No subcommand runs it, so no subcommand loads it.
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
from .oracle import Explosion


class Trace(NamedTuple):
    """Edge trail of one procedure activation."""

    proc: str
    edges: tuple[int, ...]


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


# Visits of one node per activation after which a run is cut short.
_LOOP_CAP = 64
# The input box: the values a nondeterministic choice forks over.
_BOX = range(-3, 4)
# Runs after which ``execute_all`` raises ``Explosion``.
_RUN_LIMIT = 1_000_000


def execute_all(program: MiniIrProgram) -> list[list[Trace]]:
    """Concretely run the program over every choice in the input box.

    Nondeterminism — ``read`` statements and first uses of variables that
    never received a value — forks one run per ``_BOX`` value; each
    completed (or capped) run yields the edge traces of all its
    activations.  Past ``_RUN_LIMIT`` runs it raises ``Explosion``.
    """
    runs: list[list[Trace]] = []

    def take(machine: _Machine) -> None:
        if len(runs) >= _RUN_LIMIT:
            raise Explosion(f"execution exceeded {_RUN_LIMIT} runs")
        result = _advance_machine(machine)
        if isinstance(result, _Choice):
            for value in _BOX:
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


def _advance_machine(machine: _Machine):
    """Run until completion, truncation, or the next required choice."""
    program = machine.program
    while machine.frames:
        frame = machine.frames[-1]
        cfg = frame.proc.cfg
        visits = frame.visits.get(frame.node, 0) + 1
        if visits > _LOOP_CAP:
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
