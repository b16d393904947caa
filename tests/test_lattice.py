"""Domain tests: fact tables, transfers, interval ops, lattice laws, widening."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpmfp.frontend import parse_program
from fpmfp.lattice import (
    INF,
    IntervalAnalysis,
    MustDefined,
    ReachingDefinitions,
    WIDEN_THRESHOLD,
    WideningState,
    constraint_for,
    eval_expr,
    interval_leq,
    interval_meet,
    make_analysis,
)

from conftest import fixture_program


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

def bounds() -> st.SearchStrategy[float]:
    return st.one_of(
        st.integers(min_value=-8, max_value=8).map(float),
        st.sampled_from([-INF, INF]),
    )


@st.composite
def intervals(draw) -> tuple[float, float]:
    lo = draw(bounds())
    hi = draw(bounds())
    if lo > hi:
        lo, hi = hi, lo
    if lo == INF or hi == -INF:  # avoid the empty canonical form
        lo, hi = -INF, INF
    return (lo, hi)


def interval_values() -> st.SearchStrategy[dict]:
    return st.dictionaries(st.sampled_from("abcx"), intervals(), max_size=3)


masks = st.integers(min_value=0, max_value=(1 << 6) - 1)


# ---------------------------------------------------------------------------
# Bit-vector analyses
# ---------------------------------------------------------------------------

class TestReachingDefinitions:
    def test_fact_table(self):
        rd = ReachingDefinitions(fixture_program("fig2.mir"))
        assert rd.facts == [("a", 1), ("a", 3)]

    def test_transfer_kills_same_variable(self):
        program = fixture_program("fig2.mir")
        rd = ReachingDefinitions(program)
        n3 = program.node(3)
        before = rd.gen[1]  # {(a, 1)}
        after = rd.transfer(n3, before)
        assert rd.decode(after) == [("a", 3)]

    def test_non_defining_statements_are_identity(self):
        program = fixture_program("fig2.mir")
        rd = ReachingDefinitions(program)
        value = rd.gen[1] | rd.gen[3]
        for nid in (2, 4, 5, 6, 7):
            assert rd.transfer(program.node(nid), value) == value

    def test_lattice_orientation(self):
        rd = ReachingDefinitions(fixture_program("fig2.mir"))
        small, large = rd.gen[1], rd.gen[1] | rd.gen[3]
        # May-analysis: the larger set is the lower (safer) value.
        assert rd.leq(large, small)
        assert not rd.leq(small, large)
        assert rd.top() == 0
        assert rd.meet(small, rd.gen[3]) == large

    def test_read_is_a_definition(self):
        program = fixture_program("fig12.mir")
        rd = ReachingDefinitions(program)
        assert ("a", 4) in rd.facts  # read a;

    def test_globals_mask(self):
        program = fixture_program("summary_block.mir")
        rd = ReachingDefinitions(program)
        global_facts = rd.decode(rd.globals_mask)
        assert global_facts == [("g", 1), ("g", 11)]

    def test_entry_boundary_empty(self):
        program = fixture_program("fig2.mir")
        rd = ReachingDefinitions(program)
        assert rd.entry_boundary(program.procedures[0]) == 0


class TestMustDefined:
    def test_vars_and_boundary(self):
        program = fixture_program("fig2.mir")
        md = MustDefined(program)
        assert md.vars == ["a", "x"]
        entry = md.entry_boundary(program.procedures[0])
        assert md.decode(entry) == ["x"]  # parameter

    def test_lattice_orientation(self):
        program = fixture_program("fig2.mir")
        md = MustDefined(program)
        full = md.full_mask
        sub = md.entry_boundary(program.procedures[0])
        # Must-analysis: the smaller set is the lower (safer) value.
        assert md.leq(sub, full)
        assert not md.leq(full, sub)
        assert md.top() == full
        assert md.meet(sub, full) == sub

    def test_assign_defines(self):
        program = fixture_program("fig2.mir")
        md = MustDefined(program)
        after = md.transfer(program.node(1), 0)
        assert md.decode(after) == ["a"]

    def test_callee_boundary_projects_globals(self):
        program = fixture_program("summary_block.mir")
        md = MustDefined(program)
        helper = program.by_name["helper"]
        callsite = md.full_mask  # everything defined at the call
        bi = md.callee_boundary(helper, callsite)
        assert md.decode(bi) == ["g"]  # locals h, t drop; helper has no params


# ---------------------------------------------------------------------------
# Interval operations
# ---------------------------------------------------------------------------

class TestIntervalEval:
    def a(self):
        return make_analysis("interval", fixture_program("fig2.mir"))

    def test_transfer_assign_const(self):
        program = fixture_program("fig2.mir")
        ia = IntervalAnalysis(program)
        out = ia.transfer(program.node(1), {"x": (-INF, INF)})
        assert out == {"x": (-INF, INF), "a": (0, 0)}

    def test_transfer_var_plus_const(self):
        program = fixture_program("fig2.mir")
        ia = IntervalAnalysis(program)
        out = ia.transfer(program.node(3), {"a": (0, 0)})
        assert out["a"] == (5, 5)

    def test_transfer_with_empty_operand_clears_target(self):
        program = fixture_program("fig2.mir")
        ia = IntervalAnalysis(program)
        out = ia.transfer(program.node(3), {"x": (1, 2)})  # a absent
        assert "a" not in out

    def test_read_gives_unknown(self):
        program = fixture_program("fig12.mir")
        ia = IntervalAnalysis(program)
        out = ia.transfer(program.node(4), {"a": (0, 0)})
        assert out["a"] == (-INF, INF)

    def test_eval_subtraction(self):
        program = parse_program("proc m() { d = a - b; print d; }")
        node = program.node(1)
        ia = IntervalAnalysis(program)
        out = ia.transfer(node, {"a": (0, 10), "b": (2, 3)})
        assert out["d"] == (-3, 8)

    def test_eval_point_multiplication(self):
        program = parse_program("proc m() { d = a * b; print d; }")
        ia = IntervalAnalysis(program)
        out = ia.transfer(program.node(1), {"a": (3, 3), "b": (4, 4)})
        assert out["d"] == (12, 12)

    def test_eval_wide_multiplication(self):
        program = parse_program("proc m() { d = a * b; print d; }")
        ia = IntervalAnalysis(program)
        out = ia.transfer(program.node(1), {"a": (1, 3), "b": (4, 4)})
        assert out["d"] == (-INF, INF)


class TestIntervalRefine:
    def setup_method(self):
        self.program = fixture_program("fig2.mir")
        self.ia = IntervalAnalysis(self.program)
        self.cfg = self.program.procedures[0].cfg

    def refine(self, edge_id, value):
        edge = self.cfg.edges[edge_id]
        return self.ia.refine(edge, self.cfg.nodes[edge.source], value)

    def test_ge_true_arm(self):
        out = self.refine(2, {"x": (-INF, INF)})  # x >= 0 true
        assert out["x"] == (0, INF)

    def test_ge_false_arm_tightens_integers(self):
        out = self.refine(3, {"x": (-INF, INF)})  # x >= 0 false -> x <= -1
        assert out["x"] == (-INF, -1)

    def test_eq_true_arm(self):
        out = self.refine(6, {"x": (-INF, INF)})  # x == 5 true
        assert out["x"] == (5, 5)

    def test_eq_false_arm_no_refinement(self):
        value = {"x": (0, 9)}
        assert self.refine(7, value) == value  # x != 5 not representable

    def test_contradiction_empties_only_that_variable(self):
        out = self.refine(2, {"x": (-3, -1), "a": (0, 0)})  # x >= 0 true
        assert out == {"a": (0, 0)}

    def test_absent_variable_stays_absent(self):
        out = self.refine(2, {"a": (0, 0)})
        assert out == {"a": (0, 0)}

    def test_case_label_refines_selector(self):
        program = fixture_program("fig4.mir")
        ia = IntervalAnalysis(program)
        cfg = program.procedures[0].cfg
        e2 = cfg.edges[2]  # case 0
        out = ia.refine(e2, cfg.nodes[2], {"c": (-INF, INF)})
        assert out["c"] == (0, 0)

    def test_default_label_is_identity(self):
        program = fixture_program("fig4.mir")
        ia = IntervalAnalysis(program)
        cfg = program.procedures[0].cfg
        e3 = cfg.edges[3]  # default
        value = {"c": (-INF, INF)}
        assert ia.refine(e3, cfg.nodes[2], value) == value

    def test_bare_var_false_arm(self):
        program = parse_program("proc m() { if (x) { skip; } print x; }")
        cfg = program.procedures[0].cfg
        ia = IntervalAnalysis(program)
        false_edge = next(e for e in cfg.edges.values()
                          if e.label.to_text() == "false")
        out = ia.refine(false_edge, cfg.nodes[false_edge.source],
                        {"x": (-5, 5)})
        assert out["x"] == (0, 0)

    def test_var_eq_var_true_intersects_both(self):
        program = parse_program("proc m() { if (x == y) { skip; } print x; }")
        cfg = program.procedures[0].cfg
        ia = IntervalAnalysis(program)
        true_edge = next(e for e in cfg.edges.values()
                         if e.label.to_text() == "true")
        out = ia.refine(true_edge, cfg.nodes[true_edge.source],
                        {"x": (0, 5), "y": (3, 9)})
        assert out["x"] == (3, 5) and out["y"] == (3, 5)

    def test_constraint_table_is_exhaustive_for_comparisons(self):
        from fpmfp.frontend import Cond
        for op in ("<", "<=", ">", ">=", "==", "!="):
            for taken in (True, False):
                constraint_for(Cond(op, var="x", rhs=3), taken)  # no KeyError


# ---------------------------------------------------------------------------
# Lattice laws (property-based)
# ---------------------------------------------------------------------------

class TestIntervalLaws:
    @given(interval_values(), interval_values())
    def test_meet_commutative(self, a, b):
        assert interval_meet(a, b) == interval_meet(b, a)

    @given(interval_values(), interval_values(), interval_values())
    def test_meet_associative(self, a, b, c):
        assert interval_meet(interval_meet(a, b), c) == \
            interval_meet(a, interval_meet(b, c))

    @given(interval_values())
    def test_meet_idempotent(self, a):
        assert interval_meet(a, a) == a

    @given(interval_values(), interval_values())
    def test_meet_is_lower_bound(self, a, b):
        m = interval_meet(a, b)
        assert interval_leq(m, a) and interval_leq(m, b)

    @given(interval_values(), interval_values(), interval_values())
    def test_meet_is_greatest_lower_bound(self, a, b, c):
        if interval_leq(c, a) and interval_leq(c, b):
            assert interval_leq(c, interval_meet(a, b))

    @given(interval_values(), interval_values())
    def test_leq_antisymmetric(self, a, b):
        if interval_leq(a, b) and interval_leq(b, a):
            assert a == b

    @given(interval_values())
    def test_top_is_greatest(self, a):
        assert interval_leq(a, {})

    @given(interval_values(), interval_values(), interval_values())
    def test_leq_transitive(self, a, b, c):
        if interval_leq(a, b) and interval_leq(b, c):
            assert interval_leq(a, c)


class TestBitvectorLaws:
    @pytest.mark.parametrize("analysis_name", ["rd", "must-defined"])
    @given(a=masks, b=masks, c=masks)
    @settings(max_examples=200)
    def test_meet_is_glb(self, analysis_name, a, b, c):
        an = make_analysis(analysis_name, fixture_program("fig2.mir"))
        full = an.full_mask if an.full_mask else 1
        a, b, c = a % (full + 1), b % (full + 1), c % (full + 1)
        m = an.meet(a, b)
        assert an.leq(m, a) and an.leq(m, b)
        if an.leq(c, a) and an.leq(c, b):
            assert an.leq(c, m)

    @pytest.mark.parametrize("analysis_name", ["rd", "must-defined"])
    @given(a=masks)
    @settings(max_examples=50)
    def test_top_is_greatest(self, analysis_name, a):
        an = make_analysis(analysis_name, fixture_program("fig2.mir"))
        a %= an.full_mask + 1 if an.full_mask else 1
        assert an.leq(a, an.top())


class TestMonotonicity:
    @given(interval_values(), interval_values())
    @settings(max_examples=200)
    def test_interval_transfers_monotone(self, a, b):
        program = fixture_program("fig2.mir")
        ia = IntervalAnalysis(program)
        lower = interval_meet(a, b)  # lower <= a
        for nid in (1, 3, 4):
            fa = ia.transfer(program.node(nid), a)
            flow = ia.transfer(program.node(nid), lower)
            assert interval_leq(flow, fa)

    @given(interval_values(), interval_values())
    @settings(max_examples=200)
    def test_interval_refine_monotone(self, a, b):
        program = fixture_program("fig2.mir")
        ia = IntervalAnalysis(program)
        cfg = program.procedures[0].cfg
        lower = interval_meet(a, b)
        for eid in (2, 3, 6, 7):
            edge = cfg.edges[eid]
            node = cfg.nodes[edge.source]
            assert interval_leq(ia.refine(edge, node, lower),
                                ia.refine(edge, node, a))


# ---------------------------------------------------------------------------
# Widening
# ---------------------------------------------------------------------------

class TestWidening:
    def test_forces_after_threshold_movements(self):
        ws = WideningState(enabled=True)
        for i in range(WIDEN_THRESHOLD + 1):
            ws.observe(4, {"x": (1, 1 + i)})
        out = ws.apply(4, {"x": (1, 99)})
        assert out["x"] == (1, INF)

    def test_below_threshold_is_identity(self):
        ws = WideningState(enabled=True)
        for i in range(WIDEN_THRESHOLD - 1):
            ws.observe(4, {"x": (1, 1 + i)})
        assert ws.apply(4, {"x": (1, 99)}) == {"x": (1, 99)}

    def test_sides_are_independent(self):
        ws = WideningState(enabled=True)
        for i in range(WIDEN_THRESHOLD + 1):
            ws.observe(4, {"x": (-i, 5)})
        out = ws.apply(4, {"x": (-9, 5)})
        assert out["x"] == (-INF, 5)

    def test_edges_are_independent(self):
        ws = WideningState(enabled=True)
        for i in range(WIDEN_THRESHOLD + 1):
            ws.observe(4, {"x": (1, 1 + i)})
        assert ws.apply(7, {"x": (1, 99)}) == {"x": (1, 99)}

    def test_disabled_state_never_forces(self):
        ws = WideningState(enabled=False)
        for i in range(WIDEN_THRESHOLD * 2):
            ws.observe(4, {"x": (1, 1 + i)})
        assert ws.apply(4, {"x": (1, 99)}) == {"x": (1, 99)}

    def test_absent_variable_untouched(self):
        ws = WideningState(enabled=True)
        for i in range(WIDEN_THRESHOLD + 1):
            ws.observe(4, {"x": (1, 1 + i)})
        assert ws.apply(4, {"y": (0, 0)}) == {"y": (0, 0)}


class TestSerialization:
    def test_interval_json(self):
        ia = IntervalAnalysis(fixture_program("fig2.mir"))
        js = ia.to_json({"a": (5, 5), "x": (-INF, 3)})
        assert js == {"a": [5, 5], "x": ["-inf", 3]}

    def test_interval_format(self):
        ia = IntervalAnalysis(fixture_program("fig2.mir"))
        assert ia.format({"a": (0, 5)}) == "a: [0, 5]"
        assert ia.format({}) == "{}"

    def test_rd_json(self):
        program = fixture_program("fig2.mir")
        rd = ReachingDefinitions(program)
        assert rd.to_json(rd.gen[1] | rd.gen[3]) == [["a", 1], ["a", 3]]

    def test_unknown_analysis_rejected(self):
        with pytest.raises(ValueError):
            make_analysis("taint", fixture_program("fig2.mir"))
