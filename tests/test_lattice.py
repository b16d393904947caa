"""Domain tests: fact tables, transfers, interval ops, lattice laws, widening."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fpmfp
from fpmfp.frontend import parse_program
from fpmfp.interval import (
    WIDEN_THRESHOLD,
    IntervalAnalysis,
    WideningState,
    eval_expr,
    interval_leq,
    interval_meet,
)
from fpmfp.lattice import (
    EncodedDict,
    EncodedList,
    MustDefined,
    ReachingDefinitions,
    make_analysis,
)
from fpmfp.lifted import NonTermination, solve_fpmfp_interprocedural
from fpmfp.mfp import solve_mfp
from fpmfp.mips import INF, Interval1D, arm_queries, detect_mips
from fpmfp.progen import generate_multi_program
from fpmfp.render import label_text

from conftest import (
    FIXTURES, corpus_programs, fixture_program, json_text, node_of,
    perf_program)


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
        n3 = node_of(program, 3)
        before = rd.gen[1]  # {(a, 1)}
        after = rd.transfer(n3, before)
        assert rd.decode(after) == [("a", 3)]

    def test_non_defining_statements_are_identity(self):
        program = fixture_program("fig2.mir")
        rd = ReachingDefinitions(program)
        value = rd.gen[1] | rd.gen[3]
        for nid in (2, 4, 5, 6, 7):
            assert rd.transfer(node_of(program, nid), value) == value

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
        after = md.transfer(node_of(program, 1), 0)
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
        out = ia.transfer(node_of(program, 1), {"x": (-INF, INF)})
        assert out == {"x": (-INF, INF), "a": (0, 0)}

    def test_transfer_var_plus_const(self):
        program = fixture_program("fig2.mir")
        ia = IntervalAnalysis(program)
        out = ia.transfer(node_of(program, 3), {"a": (0, 0)})
        assert out["a"] == (5, 5)

    def test_transfer_with_empty_operand_clears_target(self):
        program = fixture_program("fig2.mir")
        ia = IntervalAnalysis(program)
        out = ia.transfer(node_of(program, 3), {"x": (1, 2)})  # a absent
        assert "a" not in out

    def test_read_gives_unknown(self):
        program = fixture_program("fig12.mir")
        ia = IntervalAnalysis(program)
        out = ia.transfer(node_of(program, 4), {"a": (0, 0)})
        assert out["a"] == (-INF, INF)

    def test_eval_subtraction(self):
        program = parse_program("proc m() { d = a - b; print d; }")
        node = node_of(program, 1)
        ia = IntervalAnalysis(program)
        out = ia.transfer(node, {"a": (0, 10), "b": (2, 3)})
        assert out["d"] == (-3, 8)

    def test_eval_point_multiplication(self):
        program = parse_program("proc m() { d = a * b; print d; }")
        ia = IntervalAnalysis(program)
        out = ia.transfer(node_of(program, 1), {"a": (3, 3), "b": (4, 4)})
        assert out["d"] == (12, 12)

    def test_eval_wide_multiplication(self):
        program = parse_program("proc m() { d = a * b; print d; }")
        ia = IntervalAnalysis(program)
        # A point times a range is not a point, whichever side is wide.
        for a, b in [((1, 3), (4, 4)), ((4, 4), (1, 3))]:
            out = ia.transfer(node_of(program, 1), {"a": a, "b": b})
            assert out["d"] == (-INF, INF), (a, b)


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
                          if label_text(e.label) == "false")
        out = ia.refine(false_edge, cfg.nodes[false_edge.source],
                        {"x": (-5, 5)})
        assert out["x"] == (0, 0)

    def test_var_eq_var_true_intersects_both(self):
        program = parse_program("proc m() { if (x == y) { skip; } print x; }")
        cfg = program.procedures[0].cfg
        ia = IntervalAnalysis(program)
        true_edge = next(e for e in cfg.edges.values()
                         if label_text(e.label) == "true")
        out = ia.refine(true_edge, cfg.nodes[true_edge.source],
                        {"x": (0, 5), "y": (3, 9)})
        assert out["x"] == (3, 5) and out["y"] == (3, 5)

    @pytest.mark.parametrize("defs, false_arm", [
        # y never receives a value, so no run reaches the true arm.
        ("x = 1;", {"x": (1, 1)}),
        ("x = 1; y = 2;", {"x": (1, 1), "y": (2, 2)}),
    ])
    def test_var_eq_var_true_empties_both_when_no_value_agrees(
            self, defs, false_arm):
        program = parse_program(
            f"proc m() {{ {defs} if (x == y) {{ print x; }} }}")
        flat = solve_mfp(program, make_analysis("interval", program))
        cfg = program.procedures[0].cfg
        true_edge, false_edge = (
            next(e.id for e in cfg.edges.values() if e.label.kind == kind)
            for kind in ("true", "false"))
        assert flat.folded_edges[true_edge] == {}
        assert flat.folded_edges[false_edge] == false_arm

    def test_refine_follows_the_detection_arm_sets(self):
        """Detection and refinement read one arm rule: an arm whose query
        asks for one interval refines an unconstrained variable to exactly
        that interval, and any other query's arm leaves it alone."""
        intervals = others = 0
        for name, program in corpus_programs():
            analysis = IntervalAnalysis(program)
            for proc in program.procedures:
                cfg = proc.cfg
                for query in arm_queries(proc):
                    edge = cfg.edges[query.origin]
                    value = {query.var: (-INF, INF)}
                    out = analysis.refine(edge, cfg.nodes[edge.source], value)
                    if isinstance(query.sat, Interval1D):
                        assert out == {query.var: query.sat}, (name, edge)
                        intervals += 1
                    else:
                        assert out == value, (name, edge)
                        others += 1
        assert intervals > 3000 and others > 1000


# ---------------------------------------------------------------------------
# Lattice laws (property-based)
# ---------------------------------------------------------------------------

def _hull(a: dict, b: dict) -> dict:
    """Reference meet: per variable, the hull of the intervals present."""
    out = {}
    for var in a.keys() | b.keys():
        pairs = [p for p in (a.get(var), b.get(var)) if p is not None]
        out[var] = (min(lo for lo, _ in pairs), max(hi for _, hi in pairs))
    return out


class TestIntervalLaws:
    @given(interval_values(), interval_values())
    def test_meet_is_pointwise_hull(self, a, b):
        before = (dict(a), dict(b))
        assert interval_meet(a, b) == _hull(a, b)
        assert (a, b) == before

    @given(interval_values(), interval_values())
    def test_meet_with_aliased_or_contained_operands(self, a, b):
        # The same object, a copy sharing every pair, and a value that
        # already contains the other operand each come back unchanged.
        assert interval_meet(a, a) is a
        assert interval_meet(a, dict(a)) is a
        outer = interval_meet(a, b)
        assert interval_meet(outer, b) is outer
        assert interval_meet(outer, a) is outer
        assert interval_meet(b, outer) == _hull(b, outer) == outer

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


class TestIntervalItemOrder:
    def test_items_keep_one_order_under_every_hash_seed(self):
        # Calls and extern calls write globals into interval values; they
        # take the names in sorted order, not in a frozenset's order, so
        # processes with different string hash seeds list every value's
        # items alike.  Under hash seed 2 these three programs once listed
        # some values' globals in another order than under seed 0.
        script = (
            "import json\n"
            "from fpmfp.frontend import parse_program\n"
            "from fpmfp.lattice import make_analysis\n"
            "from fpmfp.lifted import solve_fpmfp_interprocedural\n"
            "from fpmfp.mfp import solve_mfp\n"
            "from fpmfp.mips import detect_mips\n"
            "from fpmfp.progen import generate_multi_program\n"
            "out = []\n"
            "for seed in (78, 79, 90):\n"
            "    program = parse_program(generate_multi_program(seed))\n"
            "    analysis = make_analysis('interval', program)\n"
            "    flat = solve_mfp(program, analysis)\n"
            "    lifted = solve_fpmfp_interprocedural(\n"
            "        program, analysis, detect_mips(program))\n"
            "    for values in (flat.folded_in, flat.folded_edges,\n"
            "                   lifted.folded_in):\n"
            "        out.append([[i, list(value.items())]\n"
            "                    for i, value in values.items()])\n"
            "print(json.dumps(out))\n"
        )
        src = str(Path(fpmfp.__file__).resolve().parent.parent)
        runs = []
        for seed in ("0", "2"):
            child = subprocess.run(
                [sys.executable, "-c", script], capture_output=True,
                text=True, timeout=120,
                env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed))
            assert child.returncode == 0, child.stderr
            runs.append([value for values in json.loads(child.stdout)
                         for value in values])
        first, second = runs
        assert len(first) == len(second)
        differ = [(a, b) for a, b in zip(first, second) if a != b]
        assert differ[:1] == []


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
            fa = ia.transfer(node_of(program, nid), a)
            flow = ia.transfer(node_of(program, nid), lower)
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
        ws = WideningState()
        for i in range(WIDEN_THRESHOLD + 1):
            ws.observe(4, {"x": (1, 1 + i)})
        out = ws.apply(4, {"x": (1, 99)})
        assert out["x"] == (1, INF)

    def test_below_threshold_is_identity(self):
        ws = WideningState()
        for i in range(WIDEN_THRESHOLD - 1):
            ws.observe(4, {"x": (1, 1 + i)})
        assert ws.apply(4, {"x": (1, 99)}) == {"x": (1, 99)}

    def test_sides_are_independent(self):
        ws = WideningState()
        for i in range(WIDEN_THRESHOLD + 1):
            ws.observe(4, {"x": (-i, 5)})
        out = ws.apply(4, {"x": (-9, 5)})
        assert out["x"] == (-INF, 5)

    def test_edges_are_independent(self):
        ws = WideningState()
        for i in range(WIDEN_THRESHOLD + 1):
            ws.observe(4, {"x": (1, 1 + i)})
        assert ws.apply(7, {"x": (1, 99)}) == {"x": (1, 99)}

    def test_absent_variable_untouched(self):
        ws = WideningState()
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


_TEXT_SOURCES = ([f"fixture:{p.name}" for p in sorted(FIXTURES.glob("*.mir"))]
                 + [f"multi:{seed}" for seed in range(24)])


@lru_cache(maxsize=None)
def _solved_values(source: str, analysis_name: str):
    """The analysis and every In/Out/edge value both solvers give on a
    fixture or a generated multi-procedure program."""
    kind, name = source.split(":")
    program = (fixture_program(name) if kind == "fixture"
               else parse_program(generate_multi_program(int(name))))
    analysis = make_analysis(analysis_name, program)
    try:
        flat = solve_mfp(program, analysis)
        lifted = solve_fpmfp_interprocedural(program, analysis,
                                             detect_mips(program))
    except NonTermination:
        return analysis, []
    values = [*flat.folded_in.values(), *flat.folded_edges.values(),
              *lifted.folded_in.values(), *lifted.folded_out.values(),
              *lifted.folded_edges.values()]
    values += [value for pairs in lifted.edge_values.values()
               for value in pairs.values()]
    return analysis, values


@lru_cache(maxsize=None)
def _wide_program():
    """A program with over 32 facts of each bit-vector analysis."""
    return parse_program(perf_program(20, 200))


def _assert_text_matches(analysis, value, depth: int) -> None:
    """The value's pre-encoded text, spliced at ``depth``, is what
    ``json.dumps`` writes for ``to_json(value)`` at that depth, both
    directly and through the CLI writer."""
    view = analysis.to_json(value)
    plain = json.loads(json.dumps(view))
    assert isinstance(view, (EncodedList, EncodedDict))
    assert view == plain
    indent = "\n" + "  " * depth
    assert (view.text.replace("\n", indent)
            == json.dumps(plain, indent=2, sort_keys=True).replace(
                "\n", indent))
    nested_view, nested_plain = view, plain
    for level in range(depth):
        nested_view = [nested_view] if level % 2 else {"v": nested_view}
        nested_plain = [nested_plain] if level % 2 else {"v": nested_plain}
    assert (json_text(nested_view)
            == json.dumps(nested_plain, indent=2, sort_keys=True) + "\n")


class TestEncodedViews:
    """``to_json`` texts agree with their content under ``json.dumps``."""

    @settings(max_examples=60, deadline=None)
    @given(source=st.sampled_from(_TEXT_SOURCES),
           analysis_name=st.sampled_from(
               ["rd", "must-defined", "interval"]),
           depth=st.integers(min_value=0, max_value=6))
    def test_solved_values(self, source, analysis_name, depth):
        analysis, values = _solved_values(source, analysis_name)
        for value in values:
            _assert_text_matches(analysis, value, depth)

    @pytest.mark.parametrize("depth", [0, 3, 6])
    @pytest.mark.parametrize("name", ["fig7.mir", "summary_block.mir"])
    def test_bitvector_hand_cases(self, name, depth):
        program = fixture_program(name)
        for analysis in (ReachingDefinitions(program), MustDefined(program)):
            assert analysis.globals_mask
            for value in (0, analysis.full_mask, analysis.globals_mask,
                          analysis.full_mask & ~analysis.globals_mask):
                _assert_text_matches(analysis, value, depth)
        assert ReachingDefinitions(program).to_json(0).text == "[]"

    @pytest.mark.parametrize("depth", [0, 3, 6])
    def test_interval_hand_cases(self, depth):
        ia = IntervalAnalysis(fixture_program("fig7.mir"))
        for value in ({}, {"l": (-INF, INF)}, {"a": (-INF, -3), "l": (-7, INF)},
                      {"a": (-2, -2), "b": (-9, -1), "l": (0, 0)}):
            _assert_text_matches(ia, value, depth)
        assert ia.to_json({}).text == "{}"

    def test_insertion_order_does_not_change_the_bytes(self):
        """Equal values built in two insertion orders may get two views,
        but at every depth of one report both are written alike."""
        ia = IntervalAnalysis(fixture_program("fig7.mir"))
        first = {"l": (-INF, 3), "a": (0, 0), "b": (-2, INF)}
        second = dict(reversed(first.items()))
        one, other = ia.to_json(first), ia.to_json(second)
        assert one.text == other.text
        payload = plain = None
        for _ in range(7):
            payload = {"a": one, "b": other, "c": [one, other], "d": payload}
            plain = {"a": dict(one), "b": dict(one), "c": [dict(one)] * 2,
                     "d": plain}
            assert (json_text(payload)
                    == json.dumps(plain, indent=2, sort_keys=True) + "\n")

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_bit_set_views_list_the_decoded_facts(self, data):
        """A bit set's view, assembled a byte at a time, lists the facts
        ``decode`` finds bit by bit, whichever bytes are zero."""
        program = _wide_program()
        for analysis in (ReachingDefinitions(program), MustDefined(program)):
            width = analysis.full_mask.bit_length()
            assert width > 32
            bits = data.draw(st.lists(st.integers(0, width - 1)))
            value = sum(1 << bit for bit in set(bits))
            view = analysis.to_json(value)
            assert view == [list(fact) if isinstance(fact, tuple) else fact
                            for fact in analysis.decode(value)]
            _assert_text_matches(analysis, value, 3)

    def test_equal_values_share_one_view(self):
        ia = IntervalAnalysis(fixture_program("fig2.mir"))
        view = ia.to_json
        assert view({"x": (1, 2)}) is view({"x": (1, 2)})
        assert view({"x": (1, 2)}) is not view({"x": (1, 3)})
