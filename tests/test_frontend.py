"""Frontend tests: parsing, CFG shape, ids, call graph, errors, DOT."""
from __future__ import annotations

import pytest

from fpmfp.frontend import (
    MAX_NESTING,
    MAX_OPERANDS,
    Cfg,
    LabelKind,
    ParseError,
    Statement,
    StKind,
    UnreachableNode,
    UnresolvedCall,
    build_call_graph,
    parse_program,
)
from fpmfp.progen import generate_multi_program, generate_program
from fpmfp.render import emit_dot_program, label_text, statement_text

from conftest import (
    FIXTURES, corpus_programs, fixture_program, fixture_text, node_of)


def edge_table(cfg: Cfg) -> list[tuple[int, int, int, str]]:
    return [
        (e.id, e.source, e.target, label_text(e.label))
        for e in (cfg.edges[i] for i in sorted(cfg.edges))
    ]


def stmt_texts(cfg: Cfg) -> dict[int, str]:
    return {n: statement_text(cfg.nodes[n].statement) for n in sorted(cfg.nodes)}


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
        assert sorted(p_cfg.nodes) == [1, 2, 3, 4, 5, 6, 7]
        assert sorted(q_cfg.nodes) == [8, 9, 10]
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
        assert cfg.back == frozenset({4})
        assert cfg.nodes[2].statement.is_loop

    def test_interprocedural_pair(self):
        program = fixture_program("summary_block.mir")
        main_cfg = program.by_name["main"].cfg
        helper_cfg = program.by_name["helper"].cfg
        assert sorted(main_cfg.nodes) == [1, 2, 3, 4]
        assert sorted(helper_cfg.nodes) == [5, 6, 7, 8, 9, 10, 11, 12]
        assert sorted(helper_cfg.edges) == [4, 5, 6, 7, 8, 9, 10, 11, 12]
        assert program.globals == frozenset({"g"})


class TestProgramIndex:
    def test_global_lookups(self):
        program = fixture_program("fig7.mir")
        assert 9 in program.by_name["q"].cfg.nodes
        assert statement_text(node_of(program, 6).statement) == "print a;"


class TestRecords:
    """CFG records are read-only values."""

    def test_fields_cannot_be_assigned(self):
        cfg = fixture_program("fig2.mir").procedures[0].cfg
        edge = cfg.edges[1]
        statement = cfg.nodes[edge.source].statement
        for record, field in ((edge, "target"), (edge, "label"),
                              (statement, "var"), (statement, "kind")):
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        assert cfg.edges[1] == edge


class TestRpo:
    def test_rpo_starts_at_start_node(self):
        cfg = fixture_program("fig2.mir").procedures[0].cfg
        order = cfg.rpo
        assert order[0] == cfg.start
        assert order[-1] == cfg.exit
        assert sorted(order) == sorted(cfg.nodes)

    def test_rpo_respects_forward_edges(self):
        cfg = fixture_program("loop.mir").procedures[0].cfg
        pos = {n: i for i, n in enumerate(cfg.rpo)}
        for e in cfg.edges.values():
            if e.id not in cfg.back:
                assert pos[e.source] < pos[e.target]


def reference_rpo(cfg: Cfg) -> list[int]:
    """Reverse postorder from a depth-first walk of its own."""
    seen = {cfg.start}
    order: list[int] = []
    stack = [(cfg.start, 0)]
    while stack:
        node, idx = stack[-1]
        outs = cfg.out_of[node]
        if idx < len(outs):
            stack[-1] = (node, idx + 1)
            nxt = outs[idx].target
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, 0))
        else:
            order.append(node)
            stack.pop()
    return order[::-1]


def reference_back(cfg: Cfg) -> frozenset[int]:
    """Edges into a node on the stack of a second depth-first walk."""
    color = {cfg.start: 1}  # 1 = on stack, 2 = done
    back: set[int] = set()
    stack = [(cfg.start, 0)]
    while stack:
        node, idx = stack[-1]
        outs = cfg.out_of[node]
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
    return frozenset(back)


class TestCfgWalk:
    """The one walk a CFG makes equals two separate walks."""

    def test_rpo_and_back_edges_match_two_walks(self):
        loops = 0
        for name, program in corpus_programs():
            for proc in program.procedures:
                cfg = proc.cfg
                assert cfg.rpo == reference_rpo(cfg), (name, proc.name)
                assert cfg.back == reference_back(cfg), \
                    (name, proc.name)
                assert cfg.rpo_pos == {
                    n: i for i, n in enumerate(cfg.rpo)}
                loops += bool(cfg.back)
        assert loops > 200


class TestSyntheticNodes:
    def test_synthetic_start_before_leading_loop(self):
        program = parse_program(
            "proc main() { while (x < 3) { x = x + 1; } }"
        )
        cfg = program.procedures[0].cfg
        start = cfg.nodes[cfg.start]
        assert start.statement.kind == StKind.SKIP
        assert not cfg.into[cfg.start]

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
        (out,) = cfg.out_of[explicit]
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
        outs1 = {e.label.kind: e.target for e in cfg.out_of[first]}
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
        outs1 = {e.label.kind: e.target for e in cfg.out_of[first]}
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
        assert "(line 2, col " in str(info.value)
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

    def test_duplicate_default(self):
        # Accepted, a second default arm would replace the first, whose
        # statements would get no node.  Located at the switch keyword.
        with pytest.raises(ParseError,
                           match=r"^duplicate default \(line 1, col 23\)$"):
            parse_program(
                "proc main() { read s; switch (s) { case 1: { print s; } "
                "default: { x = 1; } default: { y = 2; } } print x; }"
            )

    def test_duplicate_default_after_bad_arm_keeps_arm_error(self):
        # The duplicate is found after the arm's body is parsed.
        with pytest.raises(ParseError, match="expected expression"):
            parse_program(
                "proc main() { switch (s) { case 1: { skip; } "
                "default: { skip; } default: { x = ; } } }"
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

    def test_duplicate_procedure_points_at_second_name(self):
        # Reported before the second body is parsed, so its syntax error
        # does not hide the duplicate.
        source = "proc main() { skip; }\n\nproc  main() { x = ; }\n"
        with pytest.raises(ParseError, match=r"^duplicate procedure 'main' "
                                             r"\(line 3, col 7\)$"):
            parse_program(source)

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
        # Bottom-up: q's SCC before p's.
        assert cg.sccs.index(("q",)) < cg.sccs.index(("p",))
        assert cg.may_modify["q"] == frozenset({"l"})
        assert cg.may_modify["p"] == frozenset({"l"})

    def test_recursion_detected(self):
        program = parse_program(
            "proc a() { b(); } proc b() { a(); } proc c() { c(); }"
        )
        cg = build_call_graph(program)
        assert ("a", "b") in cg.sccs
        assert ("c",) in cg.sccs and "c" in cg.callees["c"]

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


def reference_may_modify(program) -> dict[str, frozenset[str]]:
    """Modify sets by round-robin closure: direct globals (every global
    under an extern call), then callees' sets until nothing changes."""
    direct: dict[str, set[str]] = {}
    for proc in program.procedures:
        mods: set[str] = set()
        for node in proc.cfg.nodes.values():
            st = node.statement
            mods |= st.defs()
            if st.kind == StKind.CALL and st.callee in program.externs:
                mods |= program.globals
        direct[proc.name] = mods & program.globals
    cg = build_call_graph(program)
    changed = True
    while changed:
        changed = False
        for proc in program.procedures:
            for callee in cg.callees[proc.name]:
                if not direct[callee] <= direct[proc.name]:
                    direct[proc.name] |= direct[callee]
                    changed = True
    return {name: frozenset(mods) for name, mods in direct.items()}


def reference_reachable(program) -> set[str]:
    cg = build_call_graph(program)
    seen = {program.entry}
    stack = [program.entry]
    while stack:
        for callee in cg.callees[stack.pop()]:
            if callee not in seen:
                seen.add(callee)
                stack.append(callee)
    return seen


class TestCallGraphFacts:
    """What ``CallGraph`` records equals a direct derivation."""

    def test_facts_match_references(self):
        recursive = extern_calls = 0
        for name, program in corpus_programs():
            cg = build_call_graph(program)
            assert cg.may_modify == reference_may_modify(program), name
            assert cg.reachable == reference_reachable(program), name
            for proc in program.procedures:
                scan = [(nid, proc.cfg.nodes[nid].statement.callee)
                        for nid in sorted(proc.cfg.nodes)
                        if proc.cfg.nodes[nid].statement.kind == StKind.CALL]
                assert list(cg.calls[proc.name]) == scan, (name, proc.name)
                extern_calls += any(c in program.externs for _, c in scan)
            recursive += sum(len(scc) > 1 or scc[0] in cg.callees[scc[0]]
                             for scc in cg.sccs)
        assert recursive > 80 and extern_calls > 50

    def test_reachable_skips_uncalled_procedures(self):
        program = parse_program(
            "proc main() { a(); } proc a() { skip; } proc b() { a(); }")
        assert build_call_graph(program).reachable == {"main", "a"}


def smallest_program(statement: Statement) -> str:
    """The smallest program whose node 1 carries ``statement``'s text."""
    text = statement_text(statement)
    if statement.kind == StKind.CALL:
        return f"extern {statement.callee}; proc main() {{ {text} }}"
    if statement.kind == StKind.SWITCH:
        text += " { case 0: { } default: { } }"
    elif statement.kind == StKind.BRANCH:
        text += " { }"
    return f"proc main() {{ {text} }}"


def assert_statements_reparse(source: str) -> None:
    for proc in parse_program(source).procedures:
        for node in proc.cfg.nodes.values():
            wrapped = parse_program(smallest_program(node.statement))
            assert node_of(wrapped, 1).statement == node.statement


class TestStatementText:
    """Each node's statement text parses back to the same statement.  The
    block structure around the statements is pinned by the CFG-shape
    golden."""

    @pytest.mark.parametrize(
        "name", sorted(path.name for path in FIXTURES.glob("*.mir")))
    def test_fixture_statements_reparse(self, name):
        assert_statements_reparse(fixture_text(name))

    @pytest.mark.parametrize("acyclic", [True, False])
    def test_generated_statements_reparse(self, acyclic):
        for seed in range(50):
            assert_statements_reparse(generate_program(seed, acyclic=acyclic))

    def test_generated_multi_statements_reparse(self):
        for seed in range(50):
            assert_statements_reparse(generate_multi_program(seed))


class TestDot:
    def test_dot_labels(self):
        dot = emit_dot_program(fixture_program("fig3.mir"))
        assert 'n1 [label="n1: if (z < 1)"];' in dot
        assert 'n1 -> n2 [label="e1: true"];' in dot
        assert 'n2 -> n4 [label="e3"];' in dot

    def test_dot_annotations_appended(self):
        dot = emit_dot_program(fixture_program("fig3.mir"),
                               annotations={3: "z: [-inf, 0]"})
        assert 'n2 -> n4 [label="e3: z: [-inf, 0]"];' in dot

    def test_dot_is_deterministic(self):
        program = fixture_program("fig8.mir")
        assert emit_dot_program(program) == emit_dot_program(program)
