"""Frontend tests: parsing, CFG shape, ids, call graph, errors, DOT."""
from __future__ import annotations

import pytest

from fpmfp.frontend import (
    MAX_NESTING,
    MAX_OPERANDS,
    AstStmt,
    Cfg,
    LabelKind,
    MiniIrProgram,
    ParseError,
    Statement,
    StKind,
    UnreachableNode,
    UnresolvedCall,
    build_call_graph,
    emit_dot,
    parse_program,
)

from conftest import fixture_program, fixture_text


def pretty_print(program: MiniIrProgram) -> str:
    """MiniIR source text of a parsed program."""
    out: list[str] = []
    for name in sorted(program.globals):
        out.append(f"global {name};")
    for name in sorted(program.externs):
        out.append(f"extern {name};")
    if program.globals or program.externs:
        out.append("")
    for proc in program.procedures:
        params = ", ".join(proc.params)
        out.append(f"proc {proc.name}({params}) {{")
        _pp_block(proc.body, out, 1)
        out.append("}")
        out.append("")
    return "\n".join(out).rstrip() + "\n"


def _pp_block(block: list[AstStmt], out: list[str], depth: int) -> None:
    pad = "  " * depth
    for stmt in block:
        if stmt.kind == StKind.BRANCH:
            head = "while" if stmt.is_loop else "if"
            out.append(f"{pad}{head} ({stmt.cond.to_text()}) {{")
            _pp_block(stmt.body, out, depth + 1)
            if stmt.orelse:
                out.append(f"{pad}}} else {{")
                _pp_block(stmt.orelse, out, depth + 1)
            out.append(f"{pad}}}")
        elif stmt.kind == StKind.SWITCH:
            out.append(f"{pad}switch ({stmt.var}) {{")
            for value, body in stmt.cases:
                out.append(f"{pad}  case {value}: {{")
                _pp_block(body, out, depth + 2)
                out.append(f"{pad}  }}")
            out.append(f"{pad}  default: {{")
            _pp_block(stmt.default, out, depth + 2)
            out.append(f"{pad}  }}")
            out.append(f"{pad}}}")
        else:
            st = Statement(stmt.kind, var=stmt.var, expr=stmt.expr,
                           cond=stmt.cond, callee=stmt.callee)
            out.append(f"{pad}{st.to_text()}")


def edge_table(cfg: Cfg) -> list[tuple[int, int, int, str]]:
    return [
        (e.id, e.source, e.target, e.label.to_text())
        for e in (cfg.edges[i] for i in cfg.edge_ids())
    ]


def stmt_texts(cfg: Cfg) -> dict[int, str]:
    return {n: cfg.nodes[n].statement.to_text() for n in cfg.node_ids()}


class TestFixtureShapes:
    """Node/edge numbering is part of the external contract; freeze it."""

    def test_two_diamonds(self):
        cfg = fixture_program("fig2.mir").procedures[0].cfg
        assert stmt_texts(cfg) == {
            1: "a = 0;",
            2: "if (x >= 0)",
            3: "a = a + 5;",
            4: "print x;",
            5: "if (x == 5)",
            6: "assert(a != 0);",
            7: "exit;",
        }
        assert edge_table(cfg) == [
            (1, 1, 2, "none"),
            (2, 2, 3, "true"),
            (3, 2, 4, "false"),
            (4, 3, 4, "none"),
            (5, 4, 5, "none"),
            (6, 5, 6, "true"),
            (7, 5, 7, "false"),
            (8, 6, 7, "none"),
        ]
        assert cfg.start == 1 and cfg.exit == 7

    def test_branch_first_statement(self):
        cfg = fixture_program("fig3.mir").procedures[0].cfg
        assert edge_table(cfg) == [
            (1, 1, 2, "true"),
            (2, 1, 3, "false"),
            (3, 2, 4, "none"),
            (4, 3, 4, "none"),
            (5, 4, 5, "none"),
            (6, 5, 6, "true"),
            (7, 5, 7, "false"),
            (8, 6, 7, "none"),
        ]
        assert cfg.start == 1

    def test_double_switch(self):
        cfg = fixture_program("fig4.mir").procedures[0].cfg
        assert edge_table(cfg) == [
            (1, 1, 2, "none"),
            (2, 2, 3, "case 0"),
            (3, 2, 4, "default"),
            (4, 3, 4, "none"),
            (5, 4, 5, "case 1"),
            (6, 4, 6, "case 2"),
            (7, 4, 7, "default"),
            (8, 5, 7, "none"),
            (9, 6, 7, "none"),
        ]

    def test_two_procedures(self):
        program = fixture_program("fig7.mir")
        assert [p.name for p in program.procedures] == ["p", "q"]
        assert program.entry == "p"
        p_cfg, q_cfg = (proc.cfg for proc in program.procedures)
        assert p_cfg.node_ids() == [1, 2, 3, 4, 5, 6, 7]
        assert q_cfg.node_ids() == [8, 9, 10]
        assert edge_table(q_cfg) == [(8, 8, 9, "none"), (9, 9, 10, "none")]
        assert p_cfg.nodes[4].statement.kind == StKind.CALL
        assert p_cfg.nodes[4].statement.callee == "q"
        assert program.globals == frozenset({"l"})

    def test_switch_then_branch(self):
        cfg = fixture_program("fig8.mir").procedures[0].cfg
        assert edge_table(cfg) == [
            (1, 1, 2, "none"),
            (2, 2, 3, "case 1"),
            (3, 2, 4, "case 2"),
            (4, 2, 5, "default"),
            (5, 3, 5, "none"),
            (6, 4, 5, "none"),
            (7, 5, 6, "none"),
            (8, 6, 8, "true"),
            (9, 6, 7, "false"),
            (10, 7, 8, "none"),
        ]

    def test_empty_then_arm_goes_direct(self):
        cfg = fixture_program("fig8.mir").procedures[0].cfg
        e8 = cfg.edges[8]
        assert (e8.source, e8.target, e8.label.kind) == (6, 8, LabelKind.TRUE)

    def test_nondet_branch_program(self):
        cfg = fixture_program("fig12.mir").procedures[0].cfg
        assert stmt_texts(cfg)[4] == "read a;"
        assert edge_table(cfg) == [
            (1, 1, 2, "none"),
            (2, 2, 3, "true"),
            (3, 2, 5, "false"),
            (4, 3, 4, "none"),
            (5, 4, 5, "none"),
            (6, 5, 6, "none"),
            (7, 6, 7, "none"),
            (8, 7, 8, "true"),
            (9, 7, 9, "false"),
            (10, 8, 9, "none"),
        ]

    def test_loop_back_edge(self):
        cfg = fixture_program("loop.mir").procedures[0].cfg
        assert edge_table(cfg) == [
            (1, 1, 2, "none"),
            (2, 2, 3, "true"),
            (3, 2, 4, "false"),
            (4, 3, 2, "none"),
            (5, 4, 5, "none"),
        ]
        assert cfg.back_edges() == frozenset({4})
        assert cfg.nodes[2].statement.is_loop

    def test_interprocedural_pair(self):
        program = fixture_program("summary_block.mir")
        main_cfg = program.by_name["main"].cfg
        helper_cfg = program.by_name["helper"].cfg
        assert main_cfg.node_ids() == [1, 2, 3, 4]
        assert helper_cfg.node_ids() == [5, 6, 7, 8, 9, 10, 11, 12]
        assert helper_cfg.edge_ids() == [4, 5, 6, 7, 8, 9, 10, 11, 12]
        assert program.globals == frozenset({"g"})
        assert program.locals_of(program.by_name["helper"]) == frozenset({"h", "t"})


class TestProgramIndex:
    def test_global_lookups(self):
        program = fixture_program("fig7.mir")
        assert program.proc_of_node(9).name == "q"
        assert program.proc_of_edge(9).name == "q"
        assert program.node(6).statement.to_text() == "print a;"
        assert program.edge(5).label.kind == LabelKind.TRUE

    def test_variables_of(self):
        program = fixture_program("fig7.mir")
        p = program.by_name["p"]
        assert program.locals_of(p) == frozenset({"a"})
        assert program.variables_of(p) == frozenset({"a", "l"})


class TestRpo:
    def test_rpo_starts_at_start_node(self):
        cfg = fixture_program("fig2.mir").procedures[0].cfg
        order = cfg.rpo()
        assert order[0] == cfg.start
        assert order[-1] == cfg.exit
        assert sorted(order) == cfg.node_ids()

    def test_rpo_respects_forward_edges(self):
        cfg = fixture_program("loop.mir").procedures[0].cfg
        pos = {n: i for i, n in enumerate(cfg.rpo())}
        for e in cfg.edges.values():
            if e.id not in cfg.back_edges():
                assert pos[e.source] < pos[e.target]


class TestSyntheticNodes:
    def test_synthetic_start_before_leading_loop(self):
        program = parse_program(
            "proc main() { while (x < 3) { x = x + 1; } }"
        )
        cfg = program.procedures[0].cfg
        start = cfg.nodes[cfg.start]
        assert start.statement.kind == StKind.SKIP
        assert not cfg.in_edges(cfg.start)

    def test_no_synthetic_start_when_unneeded(self):
        cfg = fixture_program("fig3.mir").procedures[0].cfg
        assert cfg.nodes[cfg.start].statement.kind == StKind.BRANCH

    def test_exit_statement_jumps_to_proc_exit(self):
        program = parse_program(
            "proc main() { x = 1; if (x > 0) { exit; } print x; }"
        )
        cfg = program.procedures[0].cfg
        exit_stmts = [
            n for n in cfg.nodes.values() if n.statement.kind == StKind.EXIT
        ]
        # The explicit `exit;` plus the synthetic exit node.
        assert len(exit_stmts) == 2
        explicit = min(n.id for n in exit_stmts)
        (out,) = cfg.out_edges(explicit)
        assert out.target == cfg.exit

    def test_statement_after_exit_is_unreachable(self):
        with pytest.raises(UnreachableNode):
            parse_program("proc main() { exit; print x; }")


class TestCompoundConditions:
    def test_and_desugars_to_nested_branches(self):
        program = parse_program(
            "proc main() { if (x > 0 && y > 0) { z = 1; } print z; }"
        )
        cfg = program.procedures[0].cfg
        branches = [
            n.id for n in cfg.nodes.values()
            if n.statement.kind == StKind.BRANCH
        ]
        assert len(branches) == 2
        first, second = sorted(branches)
        outs1 = {e.label.kind: e.target for e in cfg.out_edges(first)}
        print_node = next(
            n.id for n in cfg.nodes.values()
            if n.statement.kind == StKind.PRINT
        )
        assert outs1[LabelKind.TRUE] == second
        assert outs1[LabelKind.FALSE] == print_node

    def test_or_desugars_to_nested_branches(self):
        program = parse_program(
            "proc main() { if (x > 0 || y > 0) { z = 1; } print z; }"
        )
        cfg = program.procedures[0].cfg
        first, second = sorted(
            n.id for n in cfg.nodes.values()
            if n.statement.kind == StKind.BRANCH
        )
        outs1 = {e.label.kind: e.target for e in cfg.out_edges(first)}
        assign = next(
            n.id for n in cfg.nodes.values()
            if n.statement.kind == StKind.ASSIGN
        )
        assert outs1[LabelKind.TRUE] == assign
        assert outs1[LabelKind.FALSE] == second

    def test_atomic_cond_stays_one_node(self):
        program = parse_program(
            "proc main() { if (@atomic_cond x > 0 && y > 0) { z = 1; } print z; }"
        )
        cfg = program.procedures[0].cfg
        branches = [
            n for n in cfg.nodes.values() if n.statement.kind == StKind.BRANCH
        ]
        assert len(branches) == 1
        assert branches[0].statement.cond.atomic


class TestErrors:
    def test_unterminated_block(self):
        with pytest.raises(ParseError):
            parse_program("proc main() { x = 1;")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse_program("proc main() {\n  x = ;\n}")
        assert info.value.line == 2
        assert isinstance(info.value, SyntaxError)

    def test_switch_without_default(self):
        with pytest.raises(ParseError):
            parse_program(
                "proc main() { switch (x) { case 1: { skip; } } }"
            )

    def test_switch_without_cases(self):
        with pytest.raises(ParseError):
            parse_program(
                "proc main() { switch (x) { default: { skip; } } }"
            )

    def test_unresolved_call(self):
        with pytest.raises(UnresolvedCall):
            parse_program("proc main() { ghost(); }")

    def test_extern_call_resolves(self):
        program = parse_program("extern lib; proc main() { lib(); }")
        assert program.externs == frozenset({"lib"})

    def test_duplicate_procedure(self):
        with pytest.raises(ParseError):
            parse_program("proc main() { skip; } proc main() { skip; }")

    def test_compound_while_condition_rejected(self):
        with pytest.raises(ParseError):
            parse_program(
                "proc main() { while (x > 0 && y > 0) { x = 0; } }"
            )

    def test_nesting_is_bounded(self):
        def nested(ifs: int) -> str:
            return ("proc main() { read x; "
                    + "if (x > 0) { " * ifs + "print x; " + "} " * ifs + "}")

        # The procedure body is the first level.  Nodes: the read, one
        # branch per if, the print and the exit.
        program = parse_program(nested(MAX_NESTING - 1))
        assert len(program.procedures[0].cfg.nodes) == MAX_NESTING + 2
        with pytest.raises(ParseError, match="nested deeper than"):
            parse_program(nested(MAX_NESTING))

    @pytest.mark.parametrize("op", ["&&", "||"])
    def test_condition_operands_are_bounded(self, op):
        def chain(operands: int) -> str:
            return ("proc main() { read x; if ("
                    + f" {op} ".join(["x > 1"] * operands)
                    + ") { print x; } }")

        # One branch node per operand, plus the read, the print and the
        # exit.
        program = parse_program(chain(MAX_OPERANDS))
        assert len(program.procedures[0].cfg.nodes) == MAX_OPERANDS + 3
        with pytest.raises(ParseError, match="more than 200 operands"):
            parse_program(chain(MAX_OPERANDS + 1))

    def test_variable_compare_requires_equality(self):
        with pytest.raises(ParseError):
            parse_program("proc main() { if (x < y) { skip; } print x; }")


class TestCallGraph:
    def test_fixture_call_graph(self):
        program = fixture_program("fig7.mir")
        cg = build_call_graph(program)
        assert cg.callees["p"] == frozenset({"q"})
        assert cg.callees["q"] == frozenset()
        assert cg.callers["q"] == {"p"}
        assert cg.recursive == frozenset()
        # Bottom-up: q's SCC before p's.
        assert cg.sccs.index(("q",)) < cg.sccs.index(("p",))
        assert cg.may_modify["q"] == frozenset({"l"})
        assert cg.may_modify["p"] == frozenset({"l"})

    def test_recursion_detected(self):
        program = parse_program(
            "proc a() { b(); } proc b() { a(); } proc c() { c(); }"
        )
        cg = build_call_graph(program)
        assert cg.recursive == frozenset({"a", "b", "c"})
        assert ("a", "b") in cg.sccs

    def test_extern_modifies_all_globals(self):
        program = parse_program(
            "global g; global h; extern lib;\n"
            "proc main() { lib(); print g; }"
        )
        cg = build_call_graph(program)
        assert cg.may_modify["main"] == frozenset({"g", "h"})

    def test_may_modify_excludes_locals(self):
        program = fixture_program("summary_block.mir")
        cg = build_call_graph(program)
        assert cg.may_modify["helper"] == frozenset({"g"})


class TestRoundTrip:
    @pytest.mark.parametrize("name", [
        "fig2.mir", "fig3.mir", "fig4.mir", "fig7.mir", "fig8.mir",
        "fig10.mir", "fig11.mir", "fig12.mir", "loop.mir", "straight.mir",
        "summary_block.mir", "call_a.mir", "call_b.mir",
        "nlkain_like.mir", "stripcc_like.mir", "sphinx_like.mir",
    ])
    def test_pretty_print_reparses_to_same_cfg(self, name):
        program = fixture_program(name)
        reparsed = parse_program(pretty_print(program))
        for proc, reproc in zip(program.procedures, reparsed.procedures):
            assert stmt_texts(proc.cfg) == stmt_texts(reproc.cfg)
            assert edge_table(proc.cfg) == edge_table(reproc.cfg)
        assert reparsed.globals == program.globals
        assert reparsed.externs == program.externs


class TestDot:
    def test_dot_labels(self):
        cfg = fixture_program("fig3.mir").procedures[0].cfg
        dot = emit_dot(cfg)
        assert 'n1 [label="n1: if (z < 1)"];' in dot
        assert 'n1 -> n2 [label="e1: true"];' in dot
        assert 'n2 -> n4 [label="e3"];' in dot

    def test_dot_annotations_appended(self):
        cfg = fixture_program("fig3.mir").procedures[0].cfg
        dot = emit_dot(cfg, annotations={3: "z: [-inf, 0]"})
        assert 'n2 -> n4 [label="e3: z: [-inf, 0]"];' in dot

    def test_dot_is_deterministic(self):
        cfg = fixture_program("fig8.mir").procedures[0].cfg
        assert emit_dot(cfg) == emit_dot(cfg)
