"""MiniIR frontend: lexing, parsing, CFG construction, call graph, DOT output.

A program is a sequence of ``global``/``extern`` declarations followed by
procedures.  Each statement becomes one CFG node; every procedure gets a single
synthetic exit node.  Node and edge ids are global, 1-based, and deterministic:
nodes are numbered in source-statement order (procedures in file order, nested
bodies inline, the exit node last per procedure), and edges are numbered by
scanning nodes in id order and emitting each node's out-edges in a canonical
order (true arm before false arm; switch cases in source order, default last).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from enum import Enum


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

@dataclass(frozen=True)
class Expr:
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
# Most operands one ``&&``/``||`` condition may have.  Conditions are
# flattened, wired and compared by recursion once per operand; the bound
# keeps that inside the recursion limit, also at the deepest nesting.
MAX_OPERANDS = 200


@dataclass(frozen=True)
class Cond:
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


@dataclass(frozen=True)
class Statement:
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


@dataclass(frozen=True)
class EdgeLabel:
    kind: LabelKind
    value: int | None = None  # case constant

    def to_text(self) -> str:
        if self.kind == LabelKind.CASE:
            return f"case {self.value}"
        return self.kind.value


NO_LABEL = EdgeLabel(LabelKind.NONE)


@dataclass(frozen=True)
class Node:
    id: int
    statement: Statement


@dataclass(frozen=True)
class Edge:
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
        for e in sorted(edges.values(), key=lambda e: e.id):
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


@dataclass
class Procedure:
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


@dataclass
class MiniIrProgram:
    procedures: list[Procedure]
    globals: frozenset[str]
    externs: frozenset[str]

    def __post_init__(self) -> None:
        self.by_name = {p.name: p for p in self.procedures}
        self.entry = self.procedures[0].name
        self._node_proc: dict[int, str] = {}
        self._edge_proc: dict[int, str] = {}
        for proc in self.procedures:
            for nid in proc.cfg.nodes:
                self._node_proc[nid] = proc.name
            for eid in proc.cfg.edges:
                self._edge_proc[eid] = proc.name

    def proc_of_node(self, node_id: int) -> Procedure:
        return self.by_name[self._node_proc[node_id]]

    def proc_of_edge(self, edge_id: int) -> Procedure:
        return self.by_name[self._edge_proc[edge_id]]

    def node(self, node_id: int) -> Node:
        return self.proc_of_node(node_id).cfg.nodes[node_id]

    def edge(self, edge_id: int) -> Edge:
        return self.proc_of_edge(edge_id).cfg.edges[edge_id]

    def locals_of(self, proc: Procedure) -> frozenset[str]:
        """Variables referenced by the procedure that are not globals."""
        names: set[str] = set(proc.params)
        for node in proc.cfg.nodes.values():
            st = node.statement
            names |= st.defs() | st.uses()
        return frozenset(names - set(self.globals))

    def variables_of(self, proc: Procedure) -> frozenset[str]:
        return self.locals_of(proc) | self.globals


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<int>\d+)
  | (?P<name>@?[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|>=|==|!=|&&|\|\||[<>=+\-*(){};:,])
    """,
    re.VERBOSE,
)

KEYWORDS = {
    "proc", "global", "extern", "if", "else", "while", "switch", "case",
    "default", "read", "print", "assert", "skip", "exit",
}


@dataclass(frozen=True)
class Token:
    kind: str  # "int" | "name" | "op" | "kw" | "eof"
    text: str
    line: int
    col: int


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line, col)
        text = m.group(0)
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            if kind == "name" and text in KEYWORDS:
                kind = "kw"
            tokens.append(Token(kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser (AST stage)
# ---------------------------------------------------------------------------

@dataclass
class AstStmt:
    kind: StKind
    line: int
    var: str | None = None
    expr: Expr | None = None
    cond: Cond | None = None
    callee: str | None = None
    is_loop: bool = False
    body: list["AstStmt"] = field(default_factory=list)
    orelse: list["AstStmt"] = field(default_factory=list)
    cases: list[tuple[int, list["AstStmt"]]] = field(default_factory=list)
    default: list["AstStmt"] = field(default_factory=list)


@dataclass
class AstProc:
    name: str
    params: tuple[str, ...]
    body: list[AstStmt]
    line: int


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.operands = 0  # operands of the condition being parsed

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, tok.line, tok.col)

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise self.error(f"expected {want!r}, found {tok.text!r}")
        return self.next()

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        tok = self.peek()
        if tok.kind == kind and (text is None or tok.text == text):
            return self.next()
        return None

    # -- program structure ------------------------------------------------

    def parse_program(self) -> tuple[list[AstProc], set[str], set[str]]:
        globals_: set[str] = set()
        externs: set[str] = set()
        procs: list[AstProc] = []
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind == "kw" and tok.text == "global":
                self.next()
                name = self.expect("name")
                self.expect("op", ";")
                globals_.add(name.text)
            elif tok.kind == "kw" and tok.text == "extern":
                self.next()
                name = self.expect("name")
                self.expect("op", ";")
                externs.add(name.text)
            elif tok.kind == "kw" and tok.text == "proc":
                procs.append(self.parse_proc())
            else:
                raise self.error("expected 'proc', 'global', or 'extern'")
        if not procs:
            raise self.error("program has no procedures")
        return procs, globals_, externs

    def parse_proc(self) -> AstProc:
        head = self.expect("kw", "proc")
        name = self.expect("name")
        self.expect("op", "(")
        params: list[str] = []
        if self.peek().kind == "name":
            params.append(self.next().text)
            while self.accept("op", ","):
                params.append(self.expect("name").text)
        self.expect("op", ")")
        body = self.parse_block()
        return AstProc(name.text, tuple(params), body, head.line)

    def parse_block(self) -> list[AstStmt]:
        brace = self.expect("op", "{")
        if self.depth == MAX_NESTING:
            raise self.error(f"blocks nested deeper than {MAX_NESTING}",
                             brace)
        self.depth += 1
        stmts: list[AstStmt] = []
        while not self.accept("op", "}"):
            if self.peek().kind == "eof":
                raise self.error("unterminated block")
            stmts.append(self.parse_stmt())
        self.depth -= 1
        return stmts

    # -- statements -------------------------------------------------------

    def parse_stmt(self) -> AstStmt:
        tok = self.peek()
        if tok.kind == "kw":
            handler = {
                "read": self._stmt_read,
                "print": self._stmt_print,
                "assert": self._stmt_assert,
                "if": self._stmt_if,
                "while": self._stmt_while,
                "switch": self._stmt_switch,
                "skip": self._stmt_skip,
                "exit": self._stmt_exit,
            }.get(tok.text)
            if handler is None:
                raise self.error(f"unexpected keyword {tok.text!r}")
            return handler()
        if tok.kind == "name":
            name = self.next()
            if self.accept("op", "("):
                self.expect("op", ")")
                self.expect("op", ";")
                return AstStmt(StKind.CALL, name.line, callee=name.text)
            self.expect("op", "=")
            expr = self.parse_expr()
            self.expect("op", ";")
            return AstStmt(StKind.ASSIGN, name.line, var=name.text, expr=expr)
        raise self.error(f"unexpected token {tok.text!r}")

    def _stmt_read(self) -> AstStmt:
        tok = self.next()
        var = self.expect("name")
        self.expect("op", ";")
        return AstStmt(StKind.READ, tok.line, var=var.text)

    def _stmt_print(self) -> AstStmt:
        tok = self.next()
        expr = self.parse_expr()
        self.expect("op", ";")
        return AstStmt(StKind.PRINT, tok.line, expr=expr)

    def _stmt_assert(self) -> AstStmt:
        tok = self.next()
        self.expect("op", "(")
        cond = self.parse_cond()
        self.expect("op", ")")
        self.expect("op", ";")
        return AstStmt(StKind.ASSERT, tok.line, cond=cond)

    def _stmt_if(self) -> AstStmt:
        tok = self.next()
        self.expect("op", "(")
        cond = self.parse_cond()
        self.expect("op", ")")
        body = self.parse_block()
        orelse: list[AstStmt] = []
        if self.accept("kw", "else"):
            orelse = self.parse_block()
        return AstStmt(StKind.BRANCH, tok.line, cond=cond, body=body, orelse=orelse)

    def _stmt_while(self) -> AstStmt:
        tok = self.next()
        self.expect("op", "(")
        cond = self.parse_cond()
        self.expect("op", ")")
        if not (cond.is_simple() or cond.atomic):
            raise self.error("compound loop condition; use @atomic_cond", tok)
        body = self.parse_block()
        return AstStmt(StKind.BRANCH, tok.line, cond=cond, body=body,
                       is_loop=True)

    def _stmt_switch(self) -> AstStmt:
        tok = self.next()
        self.expect("op", "(")
        var = self.expect("name")
        self.expect("op", ")")
        self.expect("op", "{")
        cases: list[tuple[int, list[AstStmt]]] = []
        default: list[AstStmt] | None = None
        while not self.accept("op", "}"):
            if self.accept("kw", "case"):
                value = self.parse_int()
                self.expect("op", ":")
                body = self.parse_block()
                if default is not None:
                    raise self.error("case after default", tok)
                if any(value == v for v, _ in cases):
                    raise self.error(f"duplicate case {value}", tok)
                cases.append((value, body))
            elif self.accept("kw", "default"):
                self.expect("op", ":")
                default = self.parse_block()
            else:
                raise self.error("expected 'case' or 'default'")
        if default is None:
            raise self.error("switch without default arm", tok)
        if not cases:
            raise self.error("switch needs at least one case", tok)
        return AstStmt(StKind.SWITCH, tok.line, var=var.text, cases=cases,
                       default=default)

    def _stmt_skip(self) -> AstStmt:
        tok = self.next()
        self.expect("op", ";")
        return AstStmt(StKind.SKIP, tok.line)

    def _stmt_exit(self) -> AstStmt:
        tok = self.next()
        self.expect("op", ";")
        return AstStmt(StKind.EXIT, tok.line)

    # -- expressions and conditions --------------------------------------

    def parse_int(self) -> int:
        neg = self.accept("op", "-") is not None
        tok = self.expect("int")
        value = int(tok.text)
        return -value if neg else value

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "int" or (tok.kind == "op" and tok.text == "-"):
            return Expr("const", value=self.parse_int())
        if tok.kind == "name":
            return Expr("var", name=self.next().text)
        raise self.error(f"expected expression, found {tok.text!r}")

    def parse_expr(self) -> Expr:
        left = self.parse_atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text in CONST_EXPR_OPS:
            op = self.next().text
            right = self.parse_atom()
            return Expr("bin", op=op, left=left, right=right)
        return left

    def parse_cond(self) -> Cond:
        atomic = False
        tok = self.peek()
        if tok.kind == "name" and tok.text == "@atomic_cond":
            self.next()
            atomic = True
        self.operands = 0
        cond = self.parse_cond_or()
        if atomic:
            cond = _mark_atomic(cond)
        return cond

    def parse_cond_or(self) -> Cond:
        left = self.parse_cond_and()
        while self.accept("op", "||"):
            right = self.parse_cond_and()
            left = Cond("||", left=left, right=right)
        return left

    def parse_cond_and(self) -> Cond:
        left = self.parse_cond_atom()
        while self.accept("op", "&&"):
            right = self.parse_cond_atom()
            left = Cond("&&", left=left, right=right)
        return left

    def parse_cond_atom(self) -> Cond:
        var = self.expect("name")
        self.operands += 1
        if self.operands > MAX_OPERANDS:
            raise self.error(
                f"condition has more than {MAX_OPERANDS} operands", var)
        tok = self.peek()
        if tok.kind == "op" and tok.text in ("<", "<=", ">", ">=", "==", "!="):
            op = self.next().text
            rhs_tok = self.peek()
            if rhs_tok.kind == "name":
                if op not in ("==", "!="):
                    raise self.error("variable comparison requires == or !=")
                return Cond(op, var=var.text, rhs=self.next().text)
            return Cond(op, var=var.text, rhs=self.parse_int())
        return Cond("var", var=var.text)


def _mark_atomic(cond: Cond) -> Cond:
    return replace(cond, atomic=True)


# ---------------------------------------------------------------------------
# CFG construction
# ---------------------------------------------------------------------------

class _CfgBuilder:
    """Two passes: allocate node ids in source order, then wire edges."""

    def __init__(self, next_node: int, next_edge: int) -> None:
        self.next_node = next_node
        self.next_edge = next_edge
        self.nodes: dict[int, Node] = {}
        # out-slot lists per node in canonical order: (label, target)
        self.slots: dict[int, list[tuple[EdgeLabel, int]]] = {}
        self.node_of_stmt: dict[int, int] = {}  # id(AstStmt) -> first node id
        self.cond_nodes: dict[int, list[tuple[int, Cond]]] = {}

    def allocate(self, block: list[AstStmt]) -> None:
        for stmt in block:
            if stmt.kind == StKind.BRANCH:
                # One node per atomic conjunct/disjunct, in source order.
                conds = _flatten_cond(stmt.cond)
                ids: list[tuple[int, Cond]] = []
                for c in conds:
                    nid = self._new_node(Statement(
                        StKind.BRANCH, cond=c, is_loop=stmt.is_loop))
                    ids.append((nid, c))
                self.node_of_stmt[id(stmt)] = ids[0][0]
                self.cond_nodes[id(stmt)] = ids
                self.allocate(stmt.body)
                self.allocate(stmt.orelse)
            elif stmt.kind == StKind.SWITCH:
                nid = self._new_node(Statement(StKind.SWITCH, var=stmt.var))
                self.node_of_stmt[id(stmt)] = nid
                for _, body in stmt.cases:
                    self.allocate(body)
                self.allocate(stmt.default)
            else:
                st = Statement(stmt.kind, var=stmt.var, expr=stmt.expr,
                               cond=stmt.cond, callee=stmt.callee)
                self.node_of_stmt[id(stmt)] = self._new_node(st)

    def _new_node(self, statement: Statement) -> int:
        nid = self.next_node
        self.next_node += 1
        self.nodes[nid] = Node(nid, statement)
        self.slots[nid] = []
        return nid

    # -- wiring -----------------------------------------------------------

    def wire_block(self, block: list[AstStmt], cont: int, exit_node: int) -> int:
        """Wire a block; returns its entry node (or ``cont`` when empty)."""
        entry = cont
        for stmt in reversed(block):
            entry = self.wire_stmt(stmt, entry, exit_node)
        return entry

    def wire_stmt(self, stmt: AstStmt, cont: int, exit_node: int) -> int:
        nid = self.node_of_stmt[id(stmt)]
        kind = stmt.kind
        if kind == StKind.BRANCH:
            conds = self.cond_nodes[id(stmt)]
            head = conds[0][0]
            if stmt.is_loop:
                body_entry = self.wire_block(stmt.body, head, exit_node)
                self._wire_cond_chain(stmt.cond, conds, body_entry, cont)
            else:
                then_entry = self.wire_block(stmt.body, cont, exit_node)
                else_entry = self.wire_block(stmt.orelse, cont, exit_node)
                self._wire_cond_chain(stmt.cond, conds, then_entry, else_entry)
            return head
        if kind == StKind.SWITCH:
            for value, body in stmt.cases:
                target = self.wire_block(body, cont, exit_node)
                self.slots[nid].append((EdgeLabel(LabelKind.CASE, value), target))
            target = self.wire_block(stmt.default, cont, exit_node)
            self.slots[nid].append((EdgeLabel(LabelKind.DEFAULT), target))
            return nid
        if kind == StKind.EXIT:
            self.slots[nid].append((NO_LABEL, exit_node))
            return nid
        self.slots[nid].append((NO_LABEL, cont))
        return nid

    def _wire_cond_chain(self, cond: Cond, allocated: list[tuple[int, Cond]],
                         true_target: int, false_target: int) -> None:
        """Wire the nodes of a (possibly compound) condition.

        ``allocated`` lists (node id, atomic cond) in source order; the chain
        is wired by short-circuit structure: ``a && b`` falls through to b's
        node on true, ``a || b`` on false.
        """
        id_by_cond: dict[int, int] = {}
        for (nid, _), c in zip(allocated, _flatten_cond(cond)):
            id_by_cond[id(c)] = nid

        def wire(c: Cond, t_target: int, f_target: int) -> int:
            if c.op in ("&&", "||") and not c.atomic:
                right_entry = wire(c.right, t_target, f_target)
                if c.op == "&&":
                    return wire(c.left, right_entry, f_target)
                return wire(c.left, t_target, right_entry)
            nid = id_by_cond[id(c)]
            self.slots[nid].append((EdgeLabel(LabelKind.TRUE), t_target))
            self.slots[nid].append((EdgeLabel(LabelKind.FALSE), f_target))
            return nid

        wire(cond, true_target, false_target)


def _flatten_cond(cond: Cond) -> list[Cond]:
    """Atomic conditions of a compound condition, in source order."""
    if cond.op in ("&&", "||") and not cond.atomic:
        return _flatten_cond(cond.left) + _flatten_cond(cond.right)
    return [cond]


def _build_cfg(proc: AstProc, next_node: int, next_edge: int) -> tuple[Cfg, int, int]:
    builder = _CfgBuilder(next_node, next_edge)
    builder.allocate(proc.body)
    exit_id = builder._new_node(Statement(StKind.EXIT))
    entry = builder.wire_block(proc.body, exit_id, exit_id)
    if not proc.body:
        entry = exit_id

    # The start node must have no incoming edges; synthesize one if the first
    # statement is a loop head (or otherwise a wire target).
    incoming_to_entry = any(
        target == entry
        for slots in builder.slots.values() for _, target in slots
    )
    if incoming_to_entry or entry == exit_id:
        start_id = builder._new_node(Statement(StKind.SKIP))
        builder.slots[start_id].append((NO_LABEL, entry))
        entry = start_id

    # Edge ids: scan nodes in id order, slots in canonical order.
    edges: dict[int, Edge] = {}
    eid = next_edge
    for nid in sorted(builder.nodes):
        for label, target in builder.slots[nid]:
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
        # Reachability from start.
        seen: set[int] = set()
        stack = [cfg.start]
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            for e in cfg.out_edges(n):
                stack.append(e.target)
        for nid in sorted(cfg.nodes):
            if nid not in seen:
                raise UnreachableNode(nid)
        # Structural invariants (guaranteed by construction; assert cheaply).
        assert not cfg.in_edges(cfg.start), "start node has incoming edges"
        assert not cfg.out_edges(cfg.exit), "exit node has outgoing edges"
        for node in cfg.nodes.values():
            outs = cfg.out_edges(node.id)
            kinds = [e.label.kind for e in outs]
            if node.statement.kind == StKind.BRANCH:
                assert kinds == [LabelKind.TRUE, LabelKind.FALSE]
            elif node.statement.kind == StKind.SWITCH:
                assert kinds[-1] == LabelKind.DEFAULT
                assert all(k == LabelKind.CASE for k in kinds[:-1])
                assert len(kinds) >= 2


def parse_program(source: str) -> MiniIrProgram:
    """Parse MiniIR source into a validated program with CFGs."""
    procs, globals_, externs = _Parser(tokenize(source)).parse_program()
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

def emit_dot(cfg: Cfg, annotations: dict[int, str] | None = None) -> str:
    """Graphviz text for one CFG; edge labels are ``e<id>[: <annotation>]``.

    Branch labels are the default annotation; entries in ``annotations``
    (keyed by edge id) are appended after them.
    """
    annotations = annotations or {}
    lines = [f'digraph "{cfg.proc_name}" {{', "  node [shape=box];"]
    for nid in cfg.node_ids():
        st = cfg.nodes[nid].statement
        text = st.to_text().replace('"', '\\"')
        lines.append(f'  n{nid} [label="n{nid}: {text}"];')
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
        lines.append(f'  n{e.source} -> n{e.target} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


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
