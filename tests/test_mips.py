"""Tests for infeasible-segment detection and tracking operations."""

import operator

import pytest
from hypothesis import given, strategies as st

from fpmfp import progen
from fpmfp.frontend import build_call_graph, parse_program
from fpmfp.mips import (
    _materialize,
    Answer,
    CoPoint,
    Interval1D,
    INF,
    NO_CROSSING,
    Query,
    arm_queries,
    contains,
    detect_mips,
    detect_step1,
    detect_step2,
    disjoint,
    outcome_set,
    subset,
)

from conftest import FIXTURES, perf_program


def routes(universe):
    return [(m.proc, m.edges) for m in universe.all]


def detect(program):
    return detect_mips(program)


# ---------------------------------------------------------------------------
# Frozen universes for every fixture
# ---------------------------------------------------------------------------

class TestFixtureUniverses:
    def test_fig2(self, load_program):
        u = detect(load_program("fig2"))
        assert routes(u) == [("f", (3, 5, 6))]
        m = u.all[0]
        assert (m.start, m.inner, m.end) == (3, (5,), 6)

    def test_fig3(self, load_program):
        u = detect(load_program("fig3"))
        assert routes(u) == [("f", (3, 5, 6))]

    def test_fig4_switch_arms(self, load_program):
        u = detect(load_program("fig4"))
        assert routes(u) == [("f", (4, 5)), ("f", (4, 6))]
        assert all(m.inner == () for m in u.all)

    def test_fig7_across_transparent_call(self, load_program):
        u = detect(load_program("fig7"))
        assert routes(u) == [("p", (4, 5))]

    def test_fig8_two_case_arms(self, load_program):
        u = detect(load_program("fig8"))
        assert routes(u) == [("f", (5, 7, 9)), ("f", (6, 7, 9))]

    def test_fig10_shared_suffix(self, load_program):
        u = detect(load_program("fig10"))
        assert routes(u) == [("f", (5, 7, 9)), ("f", (6, 7, 9))]

    def test_fig11_distinct_suffixes(self, load_program):
        u = detect(load_program("fig11"))
        assert routes(u) == [("f", (4, 6, 7)), ("f", (5, 6, 8))]

    def test_fig12_roles(self, load_program):
        u = detect(load_program("fig12"))
        assert routes(u) == [("f", (3, 6, 7, 8))]
        m = u.all[0]
        assert m.start == 3
        assert m.inner == (6, 7)
        assert m.end == 8

    def test_loop_exit_arm(self, load_program):
        u = detect(load_program("loop"))
        assert routes(u) == [("main", (1, 3))]

    def test_straight_has_none(self, load_program):
        assert routes(detect(load_program("straight"))) == []

    def test_call_twins_have_none(self, load_program):
        assert routes(detect(load_program("call_a"))) == []
        assert routes(detect(load_program("call_b"))) == []

    def test_nlkain_like(self, load_program):
        u = detect(load_program("nlkain_like"))
        assert routes(u) == [("main", (3, 5, 6)), ("main", (4, 5, 7))]

    def test_stripcc_like(self, load_program):
        u = detect(load_program("stripcc_like"))
        assert routes(u) == [("main", (3, 5)), ("main", (4, 6))]

    def test_sphinx_like(self, load_program):
        u = detect(load_program("sphinx_like"))
        assert routes(u) == [("main", (5, 6))]

    def test_summary_block_callee_arms(self, load_program):
        u = detect(load_program("summary_block"))
        assert routes(u) == [("helper", (8, 10)), ("helper", (9, 10))]

    def test_folded_constant_answers_the_later_test(self):
        # s = 1 + 2 (edge 4) contradicts the s == 3 false arm (edge 7),
        # and s = 0 (edge 5) the true arm (edge 6).  Without folding
        # 1 + 2 only the second segment is found.
        program = parse_program(
            "proc main() { read c; if (c == 0) { s = 1 + 2; } "
            "else { s = 0; } if (s == 3) { print s; } }")
        assert routes(detect(program)) == [("main", (5, 6)),
                                           ("main", (4, 7))]

    def test_ids_are_dense_from_one(self, load_program):
        for name in ("fig4", "fig8", "nlkain_like", "stripcc_like"):
            u = detect(load_program(name))
            assert [m.id for m in u.all] == list(range(1, len(u) + 1))


# ---------------------------------------------------------------------------
# Step 1 answers
# ---------------------------------------------------------------------------

def answers_for(program, proc_name, origin):
    proc = program.by_name[proc_name]
    step1 = detect_step1(program, proc, build_call_graph(program))
    (query,) = [q for q in step1.queries if q.origin == origin]
    reach = step1.reached[query]
    resolved = {eid: a for eid, a in reach.items() if a is not None}
    return query, resolved, set(reach)


class TestStepOne:
    def test_fig12_exit_arm_query(self, load_program):
        program = load_program("fig12")
        _, resolved, present = answers_for(program, "f", 8)
        assert resolved == {1: Answer.FALSE, 5: Answer.UNDEF}
        assert present == {1, 3, 5, 6, 7}

    def test_fig12_other_arm_resolves_true(self, load_program):
        program = load_program("fig12")
        _, resolved, _ = answers_for(program, "f", 9)
        assert resolved == {1: Answer.TRUE, 5: Answer.UNDEF}

    def test_fig11_const_assignment_decides(self, load_program):
        program = load_program("fig11")
        _, resolved, _ = answers_for(program, "f", 7)
        assert resolved[4] == Answer.FALSE  # c=2 contradicts c==0
        assert resolved[3] == Answer.TRUE   # branch arm asserts c==0

    def test_loop_body_assignment_is_undef(self, load_program):
        program = load_program("loop")
        _, resolved, _ = answers_for(program, "main", 3)
        assert resolved == {1: Answer.FALSE, 4: Answer.UNDEF}

    def test_read_is_undef(self, load_program):
        program = load_program("nlkain_like")
        _, resolved, _ = answers_for(program, "main", 2)
        assert resolved == {1: Answer.UNDEF}

    def test_default_arm_raises_no_query(self, load_program):
        program = load_program("fig8")
        origins = {q.origin for q in arm_queries(program.by_name["f"])}
        # e4 is the default arm of the switch; e8/e9 are the later branch.
        assert origins == {2, 3, 8, 9}

    def test_queries_stop_at_resolution(self, load_program):
        program = load_program("fig12")
        _, _, present = answers_for(program, "f", 8)
        assert 4 not in present  # blocked behind the UNDEF answer at e5
        assert 2 not in present


class TestCallEffects:
    def test_call_modifying_global_is_undef(self):
        program = parse_program("""
            global g;
            proc main() { g = 0; touch(); if (g > 0) { print g; } }
            proc touch() { g = 1; }
        """)
        proc = program.by_name["main"]
        step1 = detect_step1(program, proc, build_call_graph(program))
        true_arm = [q for q in step1.queries if q.var == "g"][0]
        resolved = {eid: a for eid, a in step1.reached[true_arm].items()
                    if a is not None}
        assert Answer.UNDEF in resolved.values()
        assert routes(detect(program)) == []

    def test_pure_call_is_transparent(self):
        program = parse_program("""
            global g;
            proc main() { g = 0; pure(); if (g > 0) { print g; } }
            proc pure() { skip; }
        """)
        u = detect(program)
        assert len(u) == 1
        (m,) = u.all
        assert m.end == m.edges[-1]
        assert m.proc == "main"

    def test_extern_call_clobbers_globals_only(self):
        program = parse_program("""
            global g;
            extern mystery;
            proc main() {
                g = 0;
                x = 0;
                mystery();
                if (g > 0) { print g; }
                if (x > 0) { print x; }
            }
        """)
        u = detect(program)
        # The global's branch is clobbered by the extern call; the local's
        # dead arm survives, with one segment per incoming diamond arm.
        cfg = program.by_name["main"].cfg
        assert len(u) == 2
        for m in u.all:
            branch = cfg.nodes[cfg.edges[m.end].source].statement
            assert branch.cond.var == "x"


# ---------------------------------------------------------------------------
# Step 2 against the dense sweep it replaced
# ---------------------------------------------------------------------------

def dense_step2(proc, query, step1, answers):
    """Step 2 as first written: the query's answers filtered out of all
    answers, and every sweep over the whole CFG in reverse postorder."""
    cfg = proc.cfg
    start = {eid for (eid, q), a in answers.items()
             if q == query and a is Answer.FALSE}
    if not start:
        return []

    def unresolved(eid):
        return eid in step1.reached[query] and (eid, query) not in answers

    inner = set()
    for _ in range(len(cfg.nodes) + 2):
        changed = False
        for n in cfg.rpo:
            outs = [e.id for e in cfg.out_of[n] if unresolved(e.id)]
            if not outs:
                continue
            ins = [e.id for e in cfg.into[n]]
            if ins and all(i in start for i in ins):
                for o in outs:
                    if o not in start:
                        start.add(o)
                        changed = True
                    inner.discard(o)
                for i in ins:
                    start.discard(i)
                changed = True
            elif any(i in start or i in inner for i in ins):
                for o in outs:
                    if o not in start and o not in inner:
                        inner.add(o)
                        changed = True
        if not changed:
            break
    return _materialize(cfg, query, start, inner)


REFERENCE_CORPORA = {
    "fixtures": lambda: [path.read_text()
                         for path in sorted(FIXTURES.glob("*.mir"))],
    "acyclic": lambda: [progen.generate_program(s) for s in range(200)],
    "cyclic": lambda: [progen.generate_program(s, acyclic=False)
                       for s in range(200)],
    "multi": lambda: [progen.generate_multi_program(s) for s in range(200)],
}


class TestStepTwoReference:
    @pytest.mark.parametrize("corpus", sorted(REFERENCE_CORPORA))
    def test_same_paths_as_dense_sweep(self, corpus):
        queries = segments = 0
        for text in REFERENCE_CORPORA[corpus]():
            program = parse_program(text)
            cg = build_call_graph(program)
            for proc in program.procedures:
                step1 = detect_step1(program, proc, cg)
                answers = step1.answers
                for query in step1.queries:
                    paths = detect_step2(proc, query, step1)
                    assert paths == dense_step2(proc, query, step1, answers)
                    queries += 1
                    segments += len(paths)
        assert queries and segments

    def test_hoisting_onto_a_back_edge_needs_a_second_sweep(self):
        # The start is hoisted from the assignment onto back edge e6 after
        # reverse postorder has passed the loop head, so the head's
        # out-edge e4 becomes inner only on the next sweep; one sweep
        # finds no segment here.
        program = parse_program("""
            proc main() {
                read s; read n;
                while (n < 3) { s = 1; n = n + 1; }
                if (s == 0) { print s; }
            }
        """)
        assert [m.edges for m in detect_mips(program).all] == [(6, 4, 7)]

    def test_for_proc_keeps_universe_order(self):
        for seed in range(40):
            program = parse_program(progen.generate_multi_program(seed))
            u = detect_mips(program)
            for proc in program.procedures:
                assert u.by_proc[proc.name] == tuple(
                    m for m in u.all if m.proc == proc.name)


class TestStepTwoScaling:
    def test_adjacency_reads_grow_linearly(self):
        # Detection reads each edge list a bounded number of times per
        # query region, so doubling the program (modules and filler
        # alike) at most doubles the reads, give or take a constant.
        small = parse_program(perf_program(100, 2000))
        large = parse_program(perf_program(200, 4000))
        reads = [0]

        class Counted(dict):
            def __getitem__(self, node_id):
                reads[0] += 1
                return super().__getitem__(node_id)

        counts = []
        for program in (small, large):
            for proc in program.procedures:
                proc.cfg.out_of = Counted(proc.cfg.out_of)
                proc.cfg.into = Counted(proc.cfg.into)
            reads[0] = 0
            assert len(detect_mips(program)) > 0
            counts.append(reads[0])
        assert 0 < counts[1] <= 2.5 * counts[0], counts


# ---------------------------------------------------------------------------
# One-dimensional set algebra
# ---------------------------------------------------------------------------

def onedsets():
    bounds = st.integers(min_value=-6, max_value=6)
    intervals = st.tuples(bounds, bounds).map(
        lambda p: Interval1D(min(p), max(p)))
    rays = st.one_of(
        bounds.map(lambda b: Interval1D(-INF, b)),
        bounds.map(lambda b: Interval1D(b, INF)),
    )
    copoints = bounds.map(CoPoint)
    return st.one_of(intervals, rays, copoints)


def members(s, lo=-9, hi=9):
    return [k for k in range(lo, hi + 1) if contains(s, k)]


class TestOneDSets:
    @given(onedsets(), onedsets())
    def test_subset_agrees_with_membership(self, a, b):
        if subset(a, b):
            assert set(members(a)) <= set(members(b))

    @given(onedsets(), onedsets())
    def test_disjoint_agrees_with_membership(self, a, b):
        if disjoint(a, b):
            assert not (set(members(a)) & set(members(b)))
        else:
            # Witness may live beyond the sampled window for two rays,
            # but any two of our sets always intersect somewhere if not
            # disjoint; check on a wider window.
            assert set(members(a, -20, 20)) & set(members(b, -20, 20))

    @given(onedsets())
    def test_subset_reflexive(self, a):
        assert subset(a, a)

    @given(onedsets(), onedsets())
    def test_subset_excludes_disjoint(self, a, b):
        if subset(a, b) and members(a):
            assert not disjoint(a, b)

    def test_outcome_sets(self):
        from fpmfp.frontend import Cond
        lt = Cond(op="<", var="x", rhs=5)
        assert outcome_set(lt, True) == Interval1D(-INF, 4)
        assert outcome_set(lt, False) == Interval1D(5, INF)
        eq = Cond(op="==", var="x", rhs=3)
        assert outcome_set(eq, True) == Interval1D(3, 3)
        assert outcome_set(eq, False) == CoPoint(3)
        bare = Cond(op="var", var="x")
        assert outcome_set(bare, True) == CoPoint(0)
        assert outcome_set(bare, False) == Interval1D(0, 0)
        two_var = Cond(op="==", var="x", rhs="y")
        assert outcome_set(two_var, True) is None

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">=", "==", "!="])
    def test_outcome_sets_match_evaluation(self, op):
        from fpmfp.frontend import Cond
        compare = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
                   ">=": operator.ge, "==": operator.eq,
                   "!=": operator.ne}[op]
        for c in (-2, 0, 3):
            for taken in (True, False):
                sat = outcome_set(Cond(op=op, var="x", rhs=c), taken)
                assert members(sat) == [k for k in range(-9, 10)
                                        if compare(k, c) == taken]


# ---------------------------------------------------------------------------
# Universe tracking operations
# ---------------------------------------------------------------------------

def ext(universe, edge_id, tracked):
    """Tracked set of one pair after it crosses an edge, by the rule the
    engine applies to the edge's ``universe.crossings`` triple, or None
    when a tracked segment completes there (blocked)."""
    starts, continues, ends = universe.crossings.get(edge_id, NO_CROSSING)
    key = starts | (tracked & continues)
    return None if key & ends else key


class TestTrackingOps:
    def test_ext_adds_at_start_unconditionally(self, load_program):
        u = detect(load_program("fig2"))
        (m,) = u.all
        assert ext(u, m.start, frozenset()) == {m.id}

    def test_ext_drops_lost_tracks(self, load_program):
        u = detect(load_program("fig2"))
        (m,) = u.all
        tracked = ext(u, m.start, frozenset())
        # e4 is not on the segment: tracking is lost.
        assert ext(u, 4, tracked) == frozenset()

    def test_ext_walk_reaches_end(self, load_program):
        for name in ("fig2", "fig8", "fig12", "summary_block"):
            u = detect(load_program(name))
            for m in u.all:
                own = frozenset({m.id})
                tracked = frozenset()
                for eid in m.edges[:-1]:
                    tracked = ext(u, eid, tracked)
                    assert m.id in tracked
                    # Follow this segment alone, so no other one blocks.
                    tracked &= own
                assert ext(u, m.end, own) is None

    def test_endof_false_midway(self, load_program):
        u = detect(load_program("fig12"))
        (m,) = u.all
        tracked = frozenset()
        for eid in m.edges[:-1]:
            tracked = ext(u, eid, tracked)
            assert tracked is not None

    def test_ext_no_join_midway(self, load_program):
        u = detect(load_program("fig12"))
        (m,) = u.all
        # Arriving at an inner edge without the prefix does not track.
        assert ext(u, 6, frozenset()) == frozenset()
        assert ext(u, m.end, frozenset()) == frozenset()

    def test_cso_reflexive_and_prefix_shaped(self, load_program):
        for name in ("fig8", "fig10", "fig11"):
            u = detect(load_program(name))
            for m in u.all:
                for eid in m.edges:
                    co = u.cso(eid, m.id)
                    assert m.id in co
                    suffix = m.edges[m.edges.index(eid):]
                    for oid in co:
                        other = u.by_id[oid]
                        osuffix = other.edges[other.edges.index(eid):]
                        assert suffix[:len(osuffix)] == osuffix

    def test_cso_asymmetric_nested(self):
        # One segment's tail rides along inside a longer one: the long
        # segment covers the short one from their shared edges onward, but
        # never the other way around.
        program = parse_program("""
            proc f(d) {
              l = 0;
              if (d == 2) {
                c = 2;
                read d;
              } else {
                skip;
              }
              print l;
              if (c == 0) {
                if (d == 2) {
                  print l;
                }
              }
            }
        """)
        u = detect_mips(program)
        assert len(u.all) == 2
        long = next(m for m in u.all if len(m.edges) == 4)
        short = next(m for m in u.all if len(m.edges) == 3)
        assert short.edges[1:] == long.edges[1:3]
        for eid in short.edges[1:]:
            assert u.cso(eid, long.id) == {long.id, short.id}
            assert u.cso(eid, short.id) == {short.id}
        assert u.cso(long.edges[0], long.id) == {long.id}

    def test_cso_shared_suffix(self, load_program):
        u = detect(load_program("fig10"))
        m1, m2 = u.all
        assert u.cso(7, m1.id) == {m1.id, m2.id}
        assert u.cso(9, m1.id) == {m1.id, m2.id}
        assert u.cso(5, m1.id) == {m1.id}

    def test_cso_distinct_suffixes(self, load_program):
        u = detect(load_program("fig11"))
        m1, m2 = u.all
        assert u.cso(6, m1.id) == {m1.id}
        assert u.cso(6, m2.id) == {m2.id}

    def test_edge_not_in_mips(self, load_program):
        u = detect(load_program("fig12"))
        (m,) = u.all
        with pytest.raises(ValueError):
            u.cso(2, m.id)

    def test_by_proc_partition(self, load_program):
        u = detect(load_program("summary_block"))
        assert u.by_proc == {"main": (), "helper": u.all}


class TestLazyTables:
    def test_detection_builds_neither_table(self, load_program):
        """``detect-mips`` reads neither ``crossings`` nor ``end_edge``:
        detection leaves both unbuilt, and the first read builds each."""
        u = detect(load_program("fig12"))
        assert "crossings" not in vars(u) and "end_edge" not in vars(u)
        (m,) = u.all
        assert u.end_edge == {m.id: m.end}
        assert u.crossings == {
            3: ({m.id}, set(), set()), 6: (set(), {m.id}, set()),
            7: (set(), {m.id}, set()), 8: (set(), {m.id}, {m.id})}
        assert {"crossings", "end_edge"} <= set(vars(u))


class TestSerialization:
    def test_json_shape(self, load_program):
        u = detect(load_program("fig12"))
        (js,) = [m.to_json() for m in u.all]
        assert js == {
            "id": 1,
            "proc": "f",
            "edges": ["e3", "e6", "e7", "e8"],
            "start": "e3",
            "inner": ["e6", "e7"],
            "end": "e8",
        }

    def test_json_field_order(self, load_program):
        u = detect(load_program("fig4"))
        for js in [m.to_json() for m in u.all]:
            assert list(js) == ["id", "proc", "edges", "start", "inner",
                                "end"]


class TestDeterminism:
    def test_repeated_detection_identical(self, load_program):
        for name in ("fig8", "fig12", "nlkain_like", "summary_block"):
            program = load_program(name)
            first = routes(detect_mips(program))
            for _ in range(3):
                assert routes(detect_mips(program)) == first


class TestRecords:
    """Detection records are read-only values keyed by their content."""

    def test_fields_cannot_be_assigned(self, load_program):
        universe = detect(load_program("fig2"))
        query = Query(3, "x", Interval1D(0, 0))
        for record, field in ((query, "sat"), (query, "origin"),
                              (universe.all[0], "edges"),
                              (universe.all[0], "proc")):
            with pytest.raises(AttributeError):
                setattr(record, field, None)

    def test_equal_values_are_one_key(self):
        keys = {Query(3, "x", Interval1D(0, 0)): 1,
                Query(3, "x", Interval1D(0, 0)): 2,
                Interval1D(-INF, 4): 3, Interval1D(-INF, 4): 4,
                CoPoint(7): 5, CoPoint(7): 6}
        assert list(keys.values()) == [2, 4, 6]

    def test_sets_of_different_kinds_differ(self):
        assert Interval1D(1, 1) != CoPoint(1)
        assert Interval1D(0, 0) != CoPoint(0)
        assert Query(3, "x", Interval1D(1, 1)) != Query(3, "x", CoPoint(1))
