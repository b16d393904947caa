"""MiniIR frontend: lexing, parsing, CFG construction, call graph, DOT output.

A program is a sequence of ``global``/``extern`` declarations followed by
procedures.  Each statement becomes one CFG node (a compound ``&&``/``||``
condition one node per operand); every procedure gets a single synthetic exit
node.  Each CFG is built in one pass over the procedure body in source order,
so node and edge ids are global, 1-based, and deterministic: nodes are
numbered in source-statement order (procedures in file order, nested bodies
inline, the exit node after the body), and edges are numbered by scanning
nodes in id order and emitting each node's out-edges in a canonical order
(true arm before false arm; switch cases in source order, default last).  A
node's out-edges are made with the node; one whose target comes later stays
*dangling* until that target is allocated.  The start node must have no
incoming edges: when the body is empty or its first node is an edge target
(a loop head), a ``skip`` start node is added after the exit node.  A call to
a procedure neither defined nor declared extern raises ``UnresolvedCall``; a
statement no path reaches, ``UnreachableNode``.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from enum import Enum
from itertools import islice
from typing import NamedTuple


class ParseError(SyntaxError):
    """Syntax error with 1-based line and column."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col


class UnresolvedCall(Exception):
    """A call names a procedure that is neither defined nor declared extern."""

    def __init__(self, name: str) -> None:
        super().__init__(f"call to undefined procedure '{name}'")
        self.name = name


class UnreachableNode(Exception):
    """A statement node cannot be reached from the procedure's start node."""

    def __init__(self, node_id: int) -> None:
        super().__init__(f"node n{node_id} is unreachable")
        self.node_id = node_id


# ---------------------------------------------------------------------------
# Expressions and conditions
# ---------------------------------------------------------------------------

class Expr(NamedTuple):
    """Arithmetic expression: a constant, a variable, or ``atom op atom``."""

    kind: str  # "const" | "var" | "bin"
    value: int | None = None
    name: str | None = None
    op: str | None = None  # "+", "-", "*"
    left: "Expr | None" = None
    right: "Expr | None" = None

    def variables(self) -> frozenset[str]:
        if self.kind == "var":
            return frozenset((self.name,))
        if self.kind == "bin":
            return self.left.variables() | self.right.variables()
        return frozenset()

    def to_text(self) -> str:
        if self.kind == "const":
            return str(self.value)
        if self.kind == "var":
            return self.name
        return f"{self.left.to_text()} {self.op} {self.right.to_text()}"


CONST_EXPR_OPS = {"+", "-", "*"}
# Deepest block nesting the parser accepts.  Parsing and CFG construction
# recurse once per level, so the bound keeps them well inside Python's
# default recursion limit.
MAX_NESTING = 200
# Most operands one ``&&``/``||`` condition may have.  Conditions are wired
# and compared by recursion once per operand; the bound keeps that inside
# the recursion limit, also at the deepest nesting.
MAX_OPERANDS = 200


class Cond(NamedTuple):
    """Branch condition.

    ``op`` is a comparison ("<", "<=", ">", ">=", "==", "!="), "var" for a bare
    variable (truthy iff nonzero), or "&&"/"||" for a compound condition.
    Comparisons are variable-vs-constant except "=="/"!=", which also allow a
    variable on the right.  ``atomic`` marks an ``@atomic_cond`` condition that
    analyses must treat as opaque.
    """

    op: str
    var: str | None = None
    rhs: int | str | None = None
    left: "Cond | None" = None
    right: "Cond | None" = None
    atomic: bool = False

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

    def to_text(self) -> str:
        if self.op in ("&&", "||"):
            text = f"{self.left.to_text()} {self.op} {self.right.to_text()}"
        elif self.op == "var":
            text = self.var
        else:
            text = f"{self.var} {self.op} {self.rhs}"
        return f"@atomic_cond {text}" if self.atomic else text


# ---------------------------------------------------------------------------
# Statements and CFG
# ---------------------------------------------------------------------------

class StKind(Enum):
    ASSIGN = "assign"
    READ = "read"
    PRINT = "print"
    ASSERT = "assert"
    BRANCH = "branch"
    SWITCH = "switch"
    CALL = "call"
    SKIP = "skip"
    EXIT = "exit"


class Statement(NamedTuple):
    kind: StKind
    var: str | None = None  # assign/read target, switch selector
    expr: Expr | None = None  # assign rhs, print argument
    cond: Cond | None = None  # assert/branch condition
    callee: str | None = None
    is_loop: bool = False  # branch node heading a while

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

    def to_text(self) -> str:
        k = self.kind
        if k == StKind.ASSIGN:
            return f"{self.var} = {self.expr.to_text()};"
        if k == StKind.READ:
            return f"read {self.var};"
        if k == StKind.PRINT:
            return f"print {self.expr.to_text()};"
        if k == StKind.ASSERT:
            return f"assert({self.cond.to_text()});"
        if k == StKind.BRANCH:
            head = "while" if self.is_loop else "if"
            return f"{head} ({self.cond.to_text()})"
        if k == StKind.SWITCH:
            return f"switch ({self.var})"
        if k == StKind.CALL:
            return f"{self.callee}();"
        if k == StKind.SKIP:
            return "skip;"
        return "exit;"


class LabelKind(Enum):
    NONE = "none"
    TRUE = "true"
    FALSE = "false"
    CASE = "case"
    DEFAULT = "default"


class EdgeLabel(NamedTuple):
    kind: LabelKind
    value: int | None = None  # case constant

    def to_text(self) -> str:
        if self.kind == LabelKind.CASE:
            return f"case {self.value}"
        return self.kind.value


NO_LABEL = EdgeLabel(LabelKind.NONE)
TRUE = EdgeLabel(LabelKind.TRUE)
FALSE = EdgeLabel(LabelKind.FALSE)
DEFAULT = EdgeLabel(LabelKind.DEFAULT)


class Node(NamedTuple):
    id: int
    statement: Statement


class Edge(NamedTuple):
    id: int
    source: int
    target: int
    label: EdgeLabel = NO_LABEL


class Cfg:
    """Control-flow graph of one procedure.

    Exactly one start node with no incoming edges, exactly one exit node with
    no outgoing edges, and every node reachable from the start.
    """

    def __init__(self, proc_name: str, nodes: dict[int, Node],
                 edges: dict[int, Edge], start: int, exit: int) -> None:
        self.proc_name = proc_name
        self.nodes = nodes
        self.edges = edges
        self.start = start
        self.exit = exit
        self._out: dict[int, list[Edge]] = {n: [] for n in nodes}
        self._in: dict[int, list[Edge]] = {n: [] for n in nodes}
        for e in edges.values():  # in id order
            self._out[e.source].append(e)
            self._in[e.target].append(e)
        self._rpo: list[int] | None = None
        self._rpo_pos: dict[int, int] | None = None
        self._back: frozenset[int] | None = None

    def out_edges(self, node_id: int) -> list[Edge]:
        return self._out[node_id]

    def in_edges(self, node_id: int) -> list[Edge]:
        return self._in[node_id]

    def node_ids(self) -> list[int]:
        return sorted(self.nodes)

    def edge_ids(self) -> list[int]:
        return sorted(self.edges)

    def rpo(self) -> list[int]:
        """Reverse postorder from the start node (deterministic)."""
        if self._rpo is None:
            seen: set[int] = set()
            order: list[int] = []
            stack: list[tuple[int, int]] = [(self.start, 0)]
            seen.add(self.start)
            while stack:
                node, idx = stack[-1]
                outs = self._out[node]
                if idx < len(outs):
                    stack[-1] = (node, idx + 1)
                    nxt = outs[idx].target
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append((nxt, 0))
                else:
                    order.append(node)
                    stack.pop()
            self._rpo = list(reversed(order))
        return self._rpo

    def rpo_position(self) -> dict[int, int]:
        """Each node's index in ``rpo()``."""
        if self._rpo_pos is None:
            self._rpo_pos = {n: i for i, n in enumerate(self.rpo())}
        return self._rpo_pos

    def back_edges(self) -> frozenset[int]:
        """Edges whose target is an ancestor in the DFS spanning tree."""
        if self._back is None:
            color: dict[int, int] = {self.start: 1}  # 1 = on stack, 2 = done
            back: set[int] = set()
            stack: list[tuple[int, int]] = [(self.start, 0)]
            while stack:
                node, idx = stack[-1]
                outs = self._out[node]
                if idx < len(outs):
                    stack[-1] = (node, idx + 1)
                    e = outs[idx]
                    c = color.get(e.target, 0)
                    if c == 0:
                        color[e.target] = 1
                        stack.append((e.target, 0))
                    elif c == 1:
                        back.add(e.id)
                else:
                    color[node] = 2
                    stack.pop()
            self._back = frozenset(back)
        return self._back


class Procedure(NamedTuple):
    name: str
    params: tuple[str, ...]
    cfg: Cfg
    body: list  # AST block, kept for pretty-printing


class CallGraph:
    """Call relations, SCC condensation in bottom-up order, and modify sets."""

    def __init__(self, program: "MiniIrProgram") -> None:
        self.callees: dict[str, frozenset[str]] = {}
        self.callers: dict[str, set[str]] = {p.name: set() for p in program.procedures}
        extern_called: dict[str, set[str]] = {}
        for proc in program.procedures:
            direct: set[str] = set()
            externs: set[str] = set()
            for node in proc.cfg.nodes.values():
                st = node.statement
                if st.kind == StKind.CALL:
                    if st.callee in program.externs:
                        externs.add(st.callee)
                    else:
                        direct.add(st.callee)
            self.callees[proc.name] = frozenset(direct)
            extern_called[proc.name] = externs
            for c in direct:
                self.callers[c].add(proc.name)
        self.extern_callees = {p: frozenset(v) for p, v in extern_called.items()}
        self.sccs = self._tarjan([p.name for p in program.procedures])
        self.recursive: frozenset[str] = frozenset(
            name for scc in self.sccs for name in scc
            if len(scc) > 1 or name in self.callees[name]
        )
        self.may_modify = self._modify_sets(program)

    def _tarjan(self, names: list[str]) -> list[tuple[str, ...]]:
        """SCCs in bottom-up (callees-first) order."""
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on: set[str] = set()
        stack: list[str] = []
        out: list[tuple[str, ...]] = []
        counter = [0]

        def strong(v: str) -> None:
            index[v] = low[v] = counter[0]
            counter[0] += 1
            stack.append(v)
            on.add(v)
            for w in sorted(self.callees[v]):
                if w not in index:
                    strong(w)
                    low[v] = min(low[v], low[w])
                elif w in on:
                    low[v] = min(low[v], index[w])
            if low[v] == index[v]:
                scc: list[str] = []
                while True:
                    w = stack.pop()
                    on.discard(w)
                    scc.append(w)
                    if w == v:
                        break
                out.append(tuple(sorted(scc)))

        for name in names:
            if name not in index:
                strong(name)
        return out

    def _modify_sets(self, program: "MiniIrProgram") -> dict[str, frozenset[str]]:
        """Globals each procedure may (transitively) assign.

        Locals never escape a procedure, so only globals matter to callers.
        Extern callees conservatively modify every global.
        """
        gvars = set(program.globals)
        direct: dict[str, set[str]] = {}
        for proc in program.procedures:
            mods: set[str] = set()
            for node in proc.cfg.nodes.values():
                mods |= node.statement.defs()
            if self.extern_callees[proc.name]:
                mods |= gvars
            direct[proc.name] = mods & gvars
        changed = True
        while changed:
            changed = False
            for proc in program.procedures:
                for callee in self.callees[proc.name]:
                    if not direct[callee] <= direct[proc.name]:
                        direct[proc.name] |= direct[callee]
                        changed = True
        return {p: frozenset(v) for p, v in direct.items()}


class MiniIrProgram:
    def __init__(self, procedures: list[Procedure], globals: frozenset[str],
                 externs: frozenset[str]) -> None:
        self.procedures = procedures
        self.globals = globals
        self.externs = externs
        self.by_name = {p.name: p for p in self.procedures}
        self.entry = self.procedures[0].name
        self._node_proc: dict[int, str] = {}
        for proc in self.procedures:
            for nid in proc.cfg.nodes:
                self._node_proc[nid] = proc.name

    def proc_of_node(self, node_id: int) -> Procedure:
        return self.by_name[self._node_proc[node_id]]

    def node(self, node_id: int) -> Node:
        return self.proc_of_node(node_id).cfg.nodes[node_id]


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
# Parser (AST stage)
# ---------------------------------------------------------------------------

class AstStmt(NamedTuple):
    """A compound statement: a branch or loop with its blocks, or a switch
    with its arms.  A simple statement is parsed straight into the
    ``Statement`` its CFG node carries, so a block is a sequence of both;
    a block a statement does not have is the empty tuple."""

    kind: StKind
    var: str | None = None  # switch selector
    cond: Cond | None = None
    is_loop: bool = False
    body: Block = ()
    orelse: Block = ()
    cases: Sequence[tuple[int, Block]] = ()
    default: Block = ()


Block = Sequence["AstStmt | Statement"]


class AstProc(NamedTuple):
    name: str
    params: tuple[str, ...]
    body: Block


class _Parser:
    """Recursive descent over token texts; ``""`` is the end of input."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.tokens = _tokens(source)
        self.pos = 0
        self.depth = 0
        self.operands = 0  # operands of the condition being parsed

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

    # -- program structure ------------------------------------------------

    def parse_program(self) -> tuple[list[AstProc], set[str], set[str]]:
        globals_: set[str] = set()
        externs: set[str] = set()
        procs: list[AstProc] = []
        while (tok := self.peek()) != "":
            if tok in ("global", "extern"):
                self.next()
                (globals_ if tok == "global" else externs).add(
                    self.expect_name())
                self.expect(";")
            elif tok == "proc":
                procs.append(self.parse_proc())
            else:
                raise self.error("expected 'proc', 'global', or 'extern'")
        if not procs:
            raise self.error("program has no procedures")
        return procs, globals_, externs

    def parse_proc(self) -> AstProc:
        self.expect("proc")
        name = self.expect_name()
        self.expect("(")
        params: list[str] = []
        if _is_name(self.peek()):
            params.append(self.next())
            while self.accept(","):
                params.append(self.expect_name())
        self.expect(")")
        return AstProc(name, tuple(params), self.parse_block())

    def parse_block(self) -> Block:
        brace = self.pos
        self.expect("{")
        if self.depth == MAX_NESTING:
            raise self.error(f"blocks nested deeper than {MAX_NESTING}",
                             brace)
        self.depth += 1
        stmts: list[AstStmt | Statement] = []
        while not self.accept("}"):
            if self.peek() == "":
                raise self.error("unterminated block")
            stmts.append(self.parse_stmt())
        self.depth -= 1
        return stmts

    # -- statements -------------------------------------------------------

    def parse_stmt(self) -> AstStmt | Statement:
        tok = self.peek()
        if tok in KEYWORDS:
            handler = getattr(self, f"_stmt_{tok}", None)
            if handler is None:
                raise self.error(f"unexpected keyword {tok!r}")
            return handler()
        if _is_name(tok):
            self.next()
            if self.accept("("):
                self.expect(")")
                self.expect(";")
                return Statement(StKind.CALL, callee=tok)
            self.expect("=")
            expr = self.parse_expr()
            self.expect(";")
            return Statement(StKind.ASSIGN, var=tok, expr=expr)
        raise self.error(f"unexpected token {tok!r}")

    def _stmt_read(self) -> Statement:
        self.next()
        var = self.expect_name()
        self.expect(";")
        return Statement(StKind.READ, var=var)

    def _stmt_print(self) -> Statement:
        self.next()
        expr = self.parse_expr()
        self.expect(";")
        return Statement(StKind.PRINT, expr=expr)

    def _stmt_assert(self) -> Statement:
        self.next()
        self.expect("(")
        cond = self.parse_cond()
        self.expect(")")
        self.expect(";")
        return Statement(StKind.ASSERT, cond=cond)

    def _stmt_if(self) -> AstStmt:
        self.next()
        self.expect("(")
        cond = self.parse_cond()
        self.expect(")")
        body = self.parse_block()
        orelse = self.parse_block() if self.accept("else") else ()
        return AstStmt(StKind.BRANCH, cond=cond, body=body, orelse=orelse)

    def _stmt_while(self) -> AstStmt:
        head = self.pos
        self.next()
        self.expect("(")
        cond = self.parse_cond()
        self.expect(")")
        if not (cond.is_simple() or cond.atomic):
            raise self.error("compound loop condition; use @atomic_cond",
                             head)
        body = self.parse_block()
        return AstStmt(StKind.BRANCH, cond=cond, body=body, is_loop=True)

    def _stmt_switch(self) -> AstStmt:
        head = self.pos
        self.next()
        self.expect("(")
        var = self.expect_name()
        self.expect(")")
        self.expect("{")
        cases: list[tuple[int, Block]] = []
        default: Block | None = None
        while not self.accept("}"):
            if self.accept("case"):
                value = self.parse_int()
                self.expect(":")
                body = self.parse_block()
                if default is not None:
                    raise self.error("case after default", head)
                if any(value == v for v, _ in cases):
                    raise self.error(f"duplicate case {value}", head)
                cases.append((value, body))
            elif self.accept("default"):
                self.expect(":")
                default = self.parse_block()
            else:
                raise self.error("expected 'case' or 'default'")
        if default is None:
            raise self.error("switch without default arm", head)
        if not cases:
            raise self.error("switch needs at least one case", head)
        return AstStmt(StKind.SWITCH, var=var, cases=cases, default=default)

    def _stmt_skip(self) -> Statement:
        kind = StKind(self.next())  # "skip" or "exit"
        self.expect(";")
        return Statement(kind)

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


# ---------------------------------------------------------------------------
# CFG construction
# ---------------------------------------------------------------------------

class _CfgBuilder:
    """One pass over a procedure body in source order.

    Each statement's node is allocated when the walk reaches it, together
    with its out-slots ``[label, target]`` in canonical order.  A slot
    whose target is not known yet is *dangling*: it is handed on and
    pointed at the next node allocated, at the loop head for the end of a
    loop body, or at the exit node for ``exit;``.
    """

    def __init__(self, next_node: int) -> None:
        self.next_node = next_node
        self.nodes: dict[int, Node] = {}
        self.slots: dict[int, list[list]] = {}  # in node id order
        self.exits: list[list] = []  # the slots of ``exit;`` statements

    def node(self, statement: Statement, dangling: list[list],
             *labels: EdgeLabel) -> tuple[int, list[list]]:
        """Allocate a node entered by ``dangling``; returns its id and one
        new dangling slot per label."""
        nid = self.next_node
        self.next_node += 1
        self.nodes[nid] = Node(nid, statement)
        for slot in dangling:
            slot[1] = nid
        self.slots[nid] = out = [[label, None] for label in labels]
        return nid, out

    def block(self, block: Block, dangling: list[list]) -> list[list]:
        for stmt in block:
            dangling = self.stmt(stmt, dangling)
        return dangling

    def stmt(self, stmt: AstStmt | Statement,
             dangling: list[list]) -> list[list]:
        kind = stmt.kind
        if kind == StKind.BRANCH:
            head = self.next_node
            true, false = self.cond(stmt.cond, stmt.is_loop, dangling)
            if not stmt.is_loop:
                return (self.block(stmt.body, true)
                        + self.block(stmt.orelse, false))
            for slot in self.block(stmt.body, true):
                slot[1] = head
            return false
        if kind == StKind.SWITCH:
            _, out = self.node(
                Statement(StKind.SWITCH, var=stmt.var), dangling,
                *(EdgeLabel(LabelKind.CASE, value) for value, _ in stmt.cases),
                DEFAULT)
            arms = [body for _, body in stmt.cases] + [stmt.default]
            return [slot for arm, entry in zip(arms, out)
                    for slot in self.block(arm, [entry])]
        _, out = self.node(stmt, dangling, NO_LABEL)
        if kind == StKind.EXIT:
            self.exits += out
            return []
        return out

    def cond(self, cond: Cond, is_loop: bool,
             dangling: list[list]) -> tuple[list[list], list[list]]:
        """One node per operand of a compound condition, in source order,
        wired by short-circuit: ``a && b`` enters b on a's TRUE arm,
        ``a || b`` on its FALSE arm.  Returns the (true, false) slots."""
        if cond.op in ("&&", "||") and not cond.atomic:
            true, false = self.cond(cond.left, is_loop, dangling)
            if cond.op == "&&":
                right_true, right_false = self.cond(cond.right, is_loop, true)
                return right_true, false + right_false
            right_true, right_false = self.cond(cond.right, is_loop, false)
            return true + right_true, right_false
        _, (true, false) = self.node(
            Statement(StKind.BRANCH, cond=cond, is_loop=is_loop), dangling,
            TRUE, FALSE)
        return [true], [false]


def _build_cfg(proc: AstProc, next_node: int, next_edge: int) -> tuple[Cfg, int, int]:
    builder = _CfgBuilder(next_node)
    dangling = builder.block(proc.body, [])
    exit_id, _ = builder.node(Statement(StKind.EXIT), dangling + builder.exits)

    # The start node must have no incoming edges; synthesize one if the body
    # is empty or its first node is a wire target (a loop head).
    entry = next_node
    if entry == exit_id or any(target == entry
                               for slots in builder.slots.values()
                               for _, target in slots):
        start_id, (slot,) = builder.node(Statement(StKind.SKIP), [], NO_LABEL)
        slot[1] = entry
        entry = start_id

    # Edge ids: nodes in id order, each node's slots in canonical order.
    edges: dict[int, Edge] = {}
    eid = next_edge
    for nid, slots in builder.slots.items():
        for label, target in slots:
            edges[eid] = Edge(eid, nid, target, label)
            eid += 1
    cfg = Cfg(proc.name, builder.nodes, edges, entry, exit_id)
    return cfg, builder.next_node, eid


def _validate(program: MiniIrProgram) -> None:
    defined = {p.name for p in program.procedures}
    for proc in program.procedures:
        cfg = proc.cfg
        for node in cfg.nodes.values():
            st = node.statement
            if st.kind == StKind.CALL:
                if st.callee not in defined and st.callee not in program.externs:
                    raise UnresolvedCall(st.callee)
        seen = set(cfg.rpo())  # the nodes reachable from the start
        for nid in sorted(cfg.nodes):
            if nid not in seen:
                raise UnreachableNode(nid)


def parse_program(source: str) -> MiniIrProgram:
    """Parse MiniIR source into a validated program with CFGs."""
    procs, globals_, externs = _Parser(source).parse_program()
    names = [p.name for p in procs]
    if len(names) != len(set(names)):
        dup = next(n for n in names if names.count(n) > 1)
        raise ParseError(f"duplicate procedure '{dup}'", 1, 1)
    procedures: list[Procedure] = []
    next_node, next_edge = 1, 1
    for ast in procs:
        cfg, next_node, next_edge = _build_cfg(ast, next_node, next_edge)
        procedures.append(Procedure(ast.name, ast.params, cfg, ast.body))
    program = MiniIrProgram(procedures, frozenset(globals_), frozenset(externs))
    _validate(program)
    return program


def build_call_graph(program: MiniIrProgram) -> CallGraph:
    return CallGraph(program)


# ---------------------------------------------------------------------------
# DOT output
# ---------------------------------------------------------------------------

def emit_dot_program(program: MiniIrProgram,
                     annotations: dict[int, str] | None = None) -> str:
    """One digraph with a cluster per procedure."""
    annotations = annotations or {}
    lines = ["digraph program {", "  node [shape=box];"]
    for idx, proc in enumerate(program.procedures):
        cfg = proc.cfg
        lines.append(f"  subgraph cluster_{idx} {{")
        lines.append(f'    label="{proc.name}";')
        for nid in cfg.node_ids():
            st = cfg.nodes[nid].statement
            text = st.to_text().replace('"', '\\"')
            lines.append(f'    n{nid} [label="n{nid}: {text}"];')
        for eid in cfg.edge_ids():
            e = cfg.edges[eid]
            parts = []
            if e.label.kind != LabelKind.NONE:
                parts.append(e.label.to_text())
            if eid in annotations:
                parts.append(annotations[eid])
            label = f"e{eid}"
            if parts:
                label += ": " + ", ".join(parts)
            lines.append(f'    n{e.source} -> n{e.target} [label="{label}"];')
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
