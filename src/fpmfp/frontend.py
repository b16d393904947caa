"""MiniIR frontend: lexing, parsing, CFG construction, call graph.

A program is a sequence of ``global``/``extern`` declarations followed by
procedures.  Each statement becomes one CFG node (a compound ``&&``/``||``
condition one node per operand); every procedure gets a single synthetic exit
node.  Each CFG is built while its procedure is parsed, with no syntax tree
in between, so node and edge ids are global, 1-based, and deterministic:
nodes are numbered in source-statement order (procedures in file order,
nested bodies inline, the exit node after the body), and edges are numbered
by scanning nodes in id order and emitting each node's out-edges in a
canonical order (true arm before false arm; switch cases in source order,
default last).  A node's out-edges are made with the node; one whose target
comes later stays *dangling* until that target is allocated.  The start
node must have no incoming edges: when the body is empty or its first node
is an edge target (a loop head), a ``skip`` start node is added after the
exit node.  A call to a procedure neither defined nor declared extern raises
``UnresolvedCall``; a statement no path reaches, ``UnreachableNode``.  A
procedure may not be both defined and declared extern: the later of the two
declarations is a ``ParseError``.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterator
from functools import cached_property
from itertools import islice


class ParseError(SyntaxError):
    """Syntax error with 1-based line and column."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{message} (line {line}, col {col})")


class UnresolvedCall(Exception):
    """A call names a procedure that is neither defined nor declared extern."""

    def __init__(self, name: str) -> None:
        super().__init__(f"call to undefined procedure '{name}'")
        self.name = name


class UnreachableNode(Exception):
    """A statement node cannot be reached from the procedure's start node."""

    def __init__(self, node_id: int) -> None:
        super().__init__(f"node n{node_id} is unreachable")


# ---------------------------------------------------------------------------
# Expressions and conditions
# ---------------------------------------------------------------------------

class Expr(namedtuple("Expr", "kind value name op left right",
                       defaults=(None,) * 5)):
    """Arithmetic expression: a constant, a variable, or ``atom op atom``.

    ``kind`` is "const" (``value``), "var" (``name``) or "bin" (``left
    op right``, ``op`` one of "+", "-", "*").
    """

    __slots__ = ()

    def variables(self) -> frozenset[str]:
        if self.kind == "var":
            return frozenset((self.name,))
        if self.kind == "bin":
            return self.left.variables() | self.right.variables()
        return frozenset()


CONST_EXPR_OPS = {"+", "-", "*"}
# Deepest block nesting the parser accepts.  The descent, which builds the
# CFG as it parses, recurses once per level, so the bound keeps it well
# inside Python's default recursion limit.
MAX_NESTING = 200
# Most operands one ``&&``/``||`` condition may have.  Conditions are wired
# and compared by recursion once per operand; the bound keeps that inside
# the recursion limit, also on top of the deepest nesting.
MAX_OPERANDS = 200


class Cond(namedtuple("Cond", "op var rhs left right atomic",
                       defaults=(None, None, None, None, False))):
    """Branch condition.

    ``op`` is a comparison ("<", "<=", ">", ">=", "==", "!="), "var" for a bare
    variable (truthy iff nonzero), or "&&"/"||" for a compound condition of
    ``left`` and ``right``.  A comparison tests ``var`` against ``rhs``, a
    constant, or for "=="/"!=" also a variable name.  ``atomic`` marks an
    ``@atomic_cond`` condition that analyses must treat as opaque.
    """

    __slots__ = ()

    def variables(self) -> frozenset[str]:
        if self.op in ("&&", "||"):
            return self.left.variables() | self.right.variables()
        out = {self.var}
        if isinstance(self.rhs, str):
            out.add(self.rhs)
        return frozenset(out)

    def is_simple(self) -> bool:
        """True for a non-compound, non-atomic condition usable 1-D."""
        return not self.atomic and self.op not in ("&&", "||")


# ---------------------------------------------------------------------------
# Statements and CFG
# ---------------------------------------------------------------------------

class StKind:
    """Statement kinds.  Plain string constants, not an ``Enum``: reading
    a class attribute and comparing two strings stay cheap on the
    solvers' per-node paths."""

    ASSIGN = "assign"
    READ = "read"
    PRINT = "print"
    ASSERT = "assert"
    BRANCH = "branch"
    SWITCH = "switch"
    CALL = "call"
    SKIP = "skip"
    EXIT = "exit"


class Statement(namedtuple("Statement", "kind var expr cond callee is_loop",
                            defaults=(None, None, None, None, False))):
    """One CFG node's statement: ``kind`` is a ``StKind`` constant; ``var``
    is an assign or read target or a switch selector, ``expr`` an assign's
    right side or a print's argument, ``cond`` an assert or branch
    condition, ``callee`` a call's target; ``is_loop`` marks the branch
    heading a while."""

    __slots__ = ()

    def defs(self) -> frozenset[str]:
        """Variables this statement (re)defines; calls are handled separately."""
        if self.kind in (StKind.ASSIGN, StKind.READ):
            return frozenset((self.var,))
        return frozenset()

    def uses(self) -> frozenset[str]:
        if self.kind == StKind.ASSIGN:
            return self.expr.variables()
        if self.kind == StKind.PRINT:
            return self.expr.variables()
        if self.kind in (StKind.ASSERT, StKind.BRANCH):
            return self.cond.variables()
        if self.kind == StKind.SWITCH:
            return frozenset((self.var,))
        return frozenset()


class LabelKind:
    """Edge label kinds, plain string constants like :class:`StKind`."""

    NONE = "none"
    TRUE = "true"
    FALSE = "false"
    CASE = "case"
    DEFAULT = "default"


# ``kind`` is a LabelKind constant, ``value`` a case constant.
EdgeLabel = namedtuple("EdgeLabel", "kind value", defaults=(None,))


NO_LABEL = EdgeLabel(LabelKind.NONE)
TRUE = EdgeLabel(LabelKind.TRUE)
FALSE = EdgeLabel(LabelKind.FALSE)
DEFAULT = EdgeLabel(LabelKind.DEFAULT)


Node = namedtuple("Node", "id statement")
Edge = namedtuple("Edge", "id source target label", defaults=(NO_LABEL,))


class CfgPlan(namedtuple("CfgPlan", "order outs")):
    """What the fixpoint engine reads of one CFG, built once per CFG and
    read by every solve over it.

    ``order`` holds every node id in reverse postorder, the order the
    engine's worklist sweeps.  ``outs`` maps each node id to the node and
    its out-edges, each as ``(edge, edge id, target, target RPO
    position)``.
    """

    __slots__ = ()


class Cfg:
    """Control-flow graph of one procedure.

    Exactly one start node with no incoming edges, exactly one exit node with
    no outgoing edges, and every node reachable from the start.  ``out_of``
    and ``into`` list each node's out- and in-edges in id order.  One
    depth-first walk from the start, over each node's out-edges in id
    order, gives the reverse postorder ``rpo`` (``rpo_pos`` maps a node to
    its index there) and the ids of the ``back`` edges, those entering an
    ancestor in the walk's spanning tree, when the CFG is built.
    """

    def __init__(self, proc_name: str, nodes: dict[int, Node],
                 edges: dict[int, Edge], start: int, exit: int) -> None:
        self.proc_name = proc_name
        self.nodes = nodes
        self.edges = edges
        self.start = start
        self.exit = exit
        self.out_of: dict[int, list[Edge]] = {n: [] for n in nodes}
        self.into: dict[int, list[Edge]] = {n: [] for n in nodes}
        for e in edges.values():  # in id order
            self.out_of[e.source].append(e)
            self.into[e.target].append(e)
        self.rpo, self.back = self._walk()
        self.rpo_pos = {n: i for i, n in enumerate(self.rpo)}

    def _walk(self) -> tuple[list[int], frozenset[int]]:
        """Reverse postorder and back edges: a back edge enters a node
        that is still on the walk's stack."""
        on_stack = {self.start: True}  # False once the node is done
        post: list[int] = []
        back: set[int] = set()
        stack = [(self.start, iter(self.out_of[self.start]))]
        while stack:
            node, outs = stack[-1]
            for e in outs:
                state = on_stack.get(e.target)
                if state is None:
                    on_stack[e.target] = True
                    stack.append((e.target, iter(self.out_of[e.target])))
                    break
                if state:
                    back.add(e.id)
            else:
                on_stack[node] = False
                post.append(node)
                stack.pop()
        post.reverse()
        return post, frozenset(back)

    @cached_property
    def plan(self) -> CfgPlan:
        """The fixpoint engine's view of this CFG, built on first use:
        every solve over the CFG, in any mode, reads this one plan."""
        pos = self.rpo_pos
        return CfgPlan(
            tuple(self.rpo),
            {n: (node, tuple([(e, e.id, e.target, pos[e.target])
                              for e in self.out_of[n]]))
             for n, node in self.nodes.items()})


Procedure = namedtuple("Procedure", "name params cfg")


class CallGraph:
    """Call relations, SCC condensation in bottom-up order, and modify sets.

    ``calls[p]`` lists the call nodes of procedure ``p`` as ``(node id,
    callee)`` in id order, externs included; ``callees`` and ``callers``
    name only defined procedures.  ``reachable`` holds the procedures the
    entry reaches through calls, the entry included.
    """

    def __init__(self, program: "MiniIrProgram") -> None:
        self.calls: dict[str, tuple[tuple[int, str], ...]] = {}
        self.callees: dict[str, frozenset[str]] = {}
        self.callers: dict[str, set[str]] = {p.name: set() for p in program.procedures}
        for proc in program.procedures:
            calls = self.calls[proc.name] = tuple([
                (node.id, node.statement.callee)
                for node in proc.cfg.nodes.values()  # in id order
                if node.statement.kind == StKind.CALL])
            direct = frozenset(callee for _, callee in calls
                               if callee not in program.externs)
            self.callees[proc.name] = direct
            for c in direct:
                self.callers[c].add(proc.name)
        self.sccs = self._tarjan([p.name for p in program.procedures])
        self.may_modify = self._modify_sets(program)

    def _tarjan(self, names: list[str]) -> list[tuple[str, ...]]:
        """SCCs in bottom-up (callees-first) order; also sets ``reachable``.

        The depth-first search keeps its own stack of (procedure, iterator
        over its sorted callees), so a call chain of any length fits.  Its
        first root is the entry, ``names[0]``.
        """
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on: set[str] = set()
        stack: list[str] = []
        work: list[tuple[str, Iterator[str]]] = []
        out: list[tuple[str, ...]] = []

        def visit(v: str) -> None:
            index[v] = low[v] = len(index)
            stack.append(v)
            on.add(v)
            work.append((v, iter(sorted(self.callees[v]))))

        for name in names:
            if name in index:
                continue
            visit(name)
            while work:
                v, callees = work[-1]
                for w in callees:
                    if w not in index:
                        visit(w)
                        break
                    if w in on:
                        low[v] = min(low[v], index[w])
                else:
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        low[parent] = min(low[parent], low[v])
                    if low[v] == index[v]:
                        scc: list[str] = []
                        while True:
                            w = stack.pop()
                            on.discard(w)
                            scc.append(w)
                            if w == v:
                                break
                        out.append(tuple(sorted(scc)))
            if name == names[0]:
                self.reachable = frozenset(index)
        return out

    def _modify_sets(self, program: "MiniIrProgram") -> dict[str, frozenset[str]]:
        """Globals each procedure may (transitively) assign.

        Locals never escape a procedure, so only globals matter to callers.
        Extern callees conservatively modify every global.  One pass over
        the SCCs, callees first: every callee outside an SCC is done by
        then, and the members of an SCC reach each other, so they share
        one set.
        """
        out: dict[str, frozenset[str]] = {}
        for scc in self.sccs:
            mods: set[str] = set()
            for name in scc:
                for node in program.by_name[name].cfg.nodes.values():
                    mods |= node.statement.defs()
                if any(c in program.externs for _, c in self.calls[name]):
                    mods |= program.globals
                for callee in self.callees[name]:
                    mods |= out.get(callee, frozenset())
            shared = frozenset(mods & program.globals)
            for name in scc:
                out[name] = shared
        return out


class MiniIrProgram:
    def __init__(self, procedures: list[Procedure], globals: frozenset[str],
                 externs: frozenset[str]) -> None:
        self.procedures = procedures
        self.globals = globals
        self.externs = externs
        self.by_name = {p.name: p for p in self.procedures}
        self.entry = self.procedures[0].name


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_TOKENS = r"\d+|@?[A-Za-z_][A-Za-z_0-9]*|<=|>=|==|!=|&&|\|\||[<>=+\-*(){};:,]"
# One match per token: whitespace and comments before it, then the token,
# the empty end token at the end of input, or, at a character no token
# starts with, the rest of the input.  A lexer that stops at the first
# illegal character therefore needs to look at one text only.
_TOKEN_RE = re.compile(rf"(?:\s+|//[^\n]*)*({_TOKENS}|\Z|(?s:.+))")
_LEGAL_RE = re.compile(_TOKENS)
_NAME_START = frozenset(
    "@_abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")

KEYWORDS = {
    "proc", "global", "extern", "if", "else", "while", "switch", "case",
    "default", "read", "print", "assert", "skip", "exit",
}


def _is_name(text: str) -> bool:
    return text[:1] in _NAME_START and text not in KEYWORDS


def _is_int(text: str) -> bool:
    return text[:1].isdecimal()


def _position(source: str, offset: int) -> tuple[int, int]:
    """1-based line and column of a character offset."""
    return (source.count("\n", 0, offset) + 1,
            offset - source.rfind("\n", 0, offset))


def _tokens(source: str) -> list[str]:
    """Token texts in order; the end of input is ``""``, maybe twice."""
    tokens = _TOKEN_RE.findall(source)
    rest = tokens[-2] if len(tokens) > 1 else ""
    if rest and _LEGAL_RE.fullmatch(rest) is None:
        offset = len(source) - len(rest)
        raise ParseError(f"unexpected character {rest[0]!r}",
                         *_position(source, offset))
    return tokens


# ---------------------------------------------------------------------------
# Parser and CFG construction
# ---------------------------------------------------------------------------

class _Parser:
    """Recursive descent over token texts that builds each procedure's CFG
    as it goes; ``""`` is the end of input.

    Each statement's node is allocated when the descent reaches it, together
    with its out-slots ``[label, target]`` in canonical order.  A slot whose
    target is not known yet is *dangling*: block and statement parsers take
    the dangling slots that enter them and return those that leave, and
    each is pointed at the next node allocated, at the loop head for the end
    of a loop body, or at the exit node for ``exit;``.
    """

    def __init__(self, source: str) -> None:
        self.source = source
        self.tokens = _tokens(source)
        self.pos = 0
        self.depth = 0
        self.operands = 0  # operands of the condition being parsed
        self.next_node = 1
        self.next_edge = 1

    def peek(self) -> str:
        return self.tokens[self.pos]

    def next(self) -> str:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, at: int | None = None) -> ParseError:
        """A ParseError at token ``at`` (default: the next token), located
        by scanning the source again up to it."""
        index = self.pos if at is None else at
        match = next(islice(_TOKEN_RE.finditer(self.source), index, None))
        return ParseError(message, *_position(self.source, match.start(1)))

    def expect(self, text: str) -> str:
        tok = self.tokens[self.pos]
        if tok != text:
            raise self.error(f"expected {text!r}, found {tok!r}")
        self.pos += 1
        return tok

    def expect_name(self) -> str:
        tok = self.tokens[self.pos]
        if not _is_name(tok):
            raise self.error(f"expected 'name', found {tok!r}")
        self.pos += 1
        return tok

    def accept(self, text: str) -> bool:
        if self.tokens[self.pos] == text:
            self.pos += 1
            return True
        return False

    def node(self, statement: Statement, dangling: list[list],
             *labels: EdgeLabel) -> list[list]:
        """Allocate a node entered by ``dangling``; returns its out-slots,
        one new dangling slot per label."""
        nid = self.next_node
        self.next_node += 1
        self.nodes[nid] = Node(nid, statement)
        for slot in dangling:
            slot[1] = nid
        self.slots[nid] = out = [[label, None] for label in labels]
        return out

    # -- program structure ------------------------------------------------

    def parse_program(self) -> tuple[list[Procedure], set[str], set[str]]:
        globals_: set[str] = set()
        externs: set[str] = set()
        procs: list[Procedure] = []
        names: set[str] = set()

        def defined_extern(name: str, at: int) -> ParseError:
            return self.error(
                f"procedure '{name}' is both defined and declared extern",
                at)

        while (tok := self.peek()) != "":
            if tok in ("global", "extern"):
                self.next()
                name = self.expect_name()
                if tok == "extern" and name in names:
                    raise defined_extern(name, self.pos - 1)
                (globals_ if tok == "global" else externs).add(name)
                self.expect(";")
            elif tok == "proc":
                name = self.tokens[self.pos + 1]
                if name in names:
                    raise self.error(f"duplicate procedure '{name}'",
                                     self.pos + 1)
                if name in externs:
                    raise defined_extern(name, self.pos + 1)
                names.add(name)
                procs.append(self.parse_proc())
            else:
                raise self.error("expected 'proc', 'global', or 'extern'")
        if not procs:
            raise self.error("program has no procedures")
        return procs, globals_, externs

    def parse_proc(self) -> Procedure:
        self.expect("proc")
        name = self.expect_name()
        self.expect("(")
        params: list[str] = []
        if _is_name(self.peek()):
            params.append(self.next())
            while self.accept(","):
                params.append(self.expect_name())
        self.expect(")")
        self.nodes: dict[int, Node] = {}
        self.slots: dict[int, list[list]] = {}  # in node id order
        self.exits: list[list] = []  # the slots of ``exit;`` statements
        entry = self.next_node
        dangling = self.parse_block([])
        exit_id = self.next_node
        self.node(Statement(StKind.EXIT), dangling + self.exits)

        # The start node must have no incoming edges; synthesize one if the
        # body is empty or its first node is a slot target (a loop head).
        if entry == exit_id or any(target == entry
                                   for slots in self.slots.values()
                                   for _, target in slots):
            (slot,) = self.node(Statement(StKind.SKIP), [], NO_LABEL)
            slot[1], entry = entry, exit_id + 1

        # Edge ids: nodes in id order, each node's slots in canonical order.
        edges: dict[int, Edge] = {}
        for nid, slots in self.slots.items():
            for label, target in slots:
                edges[self.next_edge] = Edge(self.next_edge, nid, target, label)
                self.next_edge += 1
        cfg = Cfg(name, self.nodes, edges, entry, exit_id)
        return Procedure(name, tuple(params), cfg)

    def parse_block(self, dangling: list[list]) -> list[list]:
        brace = self.pos
        self.expect("{")
        if self.depth == MAX_NESTING:
            raise self.error(f"blocks nested deeper than {MAX_NESTING}",
                             brace)
        self.depth += 1
        while not self.accept("}"):
            if self.peek() == "":
                raise self.error("unterminated block")
            dangling = self.parse_stmt(dangling)
        self.depth -= 1
        return dangling

    # -- statements -------------------------------------------------------

    def parse_stmt(self, dangling: list[list]) -> list[list]:
        tok = self.peek()
        if tok in KEYWORDS:
            handler = getattr(self, f"_stmt_{tok}", None)
            if handler is None:
                raise self.error(f"unexpected keyword {tok!r}")
            return handler(dangling)
        if _is_name(tok):
            self.next()
            if self.accept("("):
                self.expect(")")
                self.expect(";")
                statement = Statement(StKind.CALL, callee=tok)
            else:
                self.expect("=")
                expr = self.parse_expr()
                self.expect(";")
                statement = Statement(StKind.ASSIGN, var=tok, expr=expr)
            return self.node(statement, dangling, NO_LABEL)
        raise self.error(f"unexpected token {tok!r}")

    def _stmt_read(self, dangling: list[list]) -> list[list]:
        self.next()
        var = self.expect_name()
        self.expect(";")
        return self.node(Statement(StKind.READ, var=var), dangling, NO_LABEL)

    def _stmt_print(self, dangling: list[list]) -> list[list]:
        self.next()
        expr = self.parse_expr()
        self.expect(";")
        return self.node(Statement(StKind.PRINT, expr=expr), dangling,
                         NO_LABEL)

    def _stmt_assert(self, dangling: list[list]) -> list[list]:
        self.next()
        self.expect("(")
        cond = self.parse_cond()
        self.expect(")")
        self.expect(";")
        return self.node(Statement(StKind.ASSERT, cond=cond), dangling,
                         NO_LABEL)

    def _stmt_if(self, dangling: list[list]) -> list[list]:
        self.next()
        self.expect("(")
        cond = self.parse_cond()
        self.expect(")")
        true, false = self.branch(cond, dangling)
        out = self.parse_block(true)
        if self.accept("else"):
            return out + self.parse_block(false)
        return out + false

    def branch(self, cond: Cond,
               dangling: list[list]) -> tuple[list[list], list[list]]:
        """One node per operand of a compound condition, in source order,
        wired by short-circuit: ``a && b`` enters b on a's TRUE arm,
        ``a || b`` on its FALSE arm.  Returns the (true, false) slots."""
        if cond.op in ("&&", "||") and not cond.atomic:
            true, false = self.branch(cond.left, dangling)
            if cond.op == "&&":
                right_true, right_false = self.branch(cond.right, true)
                return right_true, false + right_false
            right_true, right_false = self.branch(cond.right, false)
            return true + right_true, right_false
        true, false = self.node(Statement(StKind.BRANCH, cond=cond),
                                dangling, TRUE, FALSE)
        return [true], [false]

    def _stmt_while(self, dangling: list[list]) -> list[list]:
        at = self.pos
        self.next()
        self.expect("(")
        cond = self.parse_cond()
        self.expect(")")
        if not (cond.is_simple() or cond.atomic):
            raise self.error("compound loop condition; use @atomic_cond", at)
        head = self.next_node
        true, false = self.node(
            Statement(StKind.BRANCH, cond=cond, is_loop=True), dangling,
            TRUE, FALSE)
        for slot in self.parse_block([true]):
            slot[1] = head
        return [false]

    def _stmt_switch(self, dangling: list[list]) -> list[list]:
        """The switch node's slots grow by one per arm as the arms are
        parsed, so cases stay in source order and the default comes last."""
        at = self.pos
        self.next()
        self.expect("(")
        var = self.expect_name()
        self.expect(")")
        self.expect("{")
        arms = self.node(Statement(StKind.SWITCH, var=var), dangling)
        out: list[list] = []
        while not self.accept("}"):
            if self.accept("case"):
                label = EdgeLabel(LabelKind.CASE, self.parse_int())
            elif self.accept("default"):
                label = DEFAULT
            else:
                raise self.error("expected 'case' or 'default'")
            self.expect(":")
            arm = [label, None]
            out += self.parse_block([arm])
            if arms and arms[-1][0] == DEFAULT:
                raise self.error("duplicate default" if label == DEFAULT
                                 else "case after default", at)
            if any(label == seen for seen, _ in arms):
                raise self.error(f"duplicate case {label.value}", at)
            arms.append(arm)
        if not arms or arms[-1][0] != DEFAULT:
            raise self.error("switch without default arm", at)
        if len(arms) == 1:
            raise self.error("switch needs at least one case", at)
        return out

    def _stmt_skip(self, dangling: list[list]) -> list[list]:
        kind = StKind.EXIT if self.next() == StKind.EXIT else StKind.SKIP
        self.expect(";")
        out = self.node(Statement(kind), dangling, NO_LABEL)
        if kind == StKind.EXIT:
            self.exits += out
            return []
        return out

    _stmt_exit = _stmt_skip

    # -- expressions and conditions --------------------------------------

    def parse_int(self) -> int:
        neg = self.accept("-")
        tok = self.peek()
        if not _is_int(tok):
            raise self.error(f"expected 'int', found {tok!r}")
        self.pos += 1
        return -int(tok) if neg else int(tok)

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok == "-" or _is_int(tok):
            return Expr("const", value=self.parse_int())
        if _is_name(tok):
            return Expr("var", name=self.next())
        raise self.error(f"expected expression, found {tok!r}")

    def parse_expr(self) -> Expr:
        left = self.parse_atom()
        if self.peek() in CONST_EXPR_OPS:
            op = self.next()
            right = self.parse_atom()
            return Expr("bin", op=op, left=left, right=right)
        return left

    def parse_cond(self) -> Cond:
        atomic = self.accept("@atomic_cond")
        self.operands = 0
        cond = self.parse_cond_or()
        return cond._replace(atomic=True) if atomic else cond

    def parse_cond_or(self) -> Cond:
        left = self.parse_cond_and()
        while self.accept("||"):
            left = Cond("||", left=left, right=self.parse_cond_and())
        return left

    def parse_cond_and(self) -> Cond:
        left = self.parse_cond_atom()
        while self.accept("&&"):
            left = Cond("&&", left=left, right=self.parse_cond_atom())
        return left

    def parse_cond_atom(self) -> Cond:
        at = self.pos
        var = self.expect_name()
        self.operands += 1
        if self.operands > MAX_OPERANDS:
            raise self.error(
                f"condition has more than {MAX_OPERANDS} operands", at)
        if self.peek() in ("<", "<=", ">", ">=", "==", "!="):
            op = self.next()
            if _is_name(self.peek()):
                if op not in ("==", "!="):
                    raise self.error("variable comparison requires == or !=")
                return Cond(op, var=var, rhs=self.next())
            return Cond(op, var=var, rhs=self.parse_int())
        return Cond("var", var=var)


def _validate(program: MiniIrProgram) -> None:
    defined = {p.name for p in program.procedures}
    for proc in program.procedures:
        cfg = proc.cfg
        for node in cfg.nodes.values():
            st = node.statement
            if st.kind == StKind.CALL:
                if st.callee not in defined and st.callee not in program.externs:
                    raise UnresolvedCall(st.callee)
        seen = set(cfg.rpo)  # the nodes reachable from the start
        for nid in sorted(cfg.nodes):
            if nid not in seen:
                raise UnreachableNode(nid)


def parse_program(source: str) -> MiniIrProgram:
    """Parse MiniIR source into a validated program with CFGs."""
    procedures, globals_, externs = _Parser(source).parse_program()
    program = MiniIrProgram(procedures, frozenset(globals_), frozenset(externs))
    _validate(program)
    return program


def build_call_graph(program: MiniIrProgram) -> CallGraph:
    return CallGraph(program)
