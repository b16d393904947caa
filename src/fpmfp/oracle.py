"""Independent reference semantics used to check the solvers: the bounded
path-tree oracle.

:func:`mips_free_meets` walks the bounded path tree of one procedure,
prunes every branch the moment a detected infeasible segment completes,
and meets the propagated values at each node and edge.  On acyclic
programs the walk is exhaustive, so for distributive analyses its meets
equal the ideal feasible-path solution.  The walk comes in two parts:
:func:`path_tree` enumerates the tree, which depends on the CFG and the
segments but on no lattice value, and :meth:`PathTree.meets` evaluates
one analysis over it.  ``oracle-check`` enumerates each procedure's tree
once and evaluates it for every analysis.

The other oracle, the concrete executor, is in :mod:`fpmfp.concrete`.
Both raise :class:`Explosion` instead of running unbounded.
"""

from __future__ import annotations

from collections import namedtuple

from .frontend import Cfg, Procedure
from .mips import MipsUniverse


class Explosion(RuntimeError):
    """The bounded exploration outgrew its budget."""


# The most expansions a path tree may make before raising Explosion.
EXPANSION_LIMIT = 1_000_000


# ---------------------------------------------------------------------------
# Bounded path-tree meets with segment pruning
# ---------------------------------------------------------------------------

class OracleMeets(namedtuple(
        "OracleMeets", "node_in edge_values expansions truncated")):
    """Meets over explored feasible (segment-free) bounded paths: per
    node entry and per edge, with the tree's expansion count and whether
    it was truncated."""

    __slots__ = ()


def _advance(starts, progress: tuple, edge_id: int):
    """Move the ``(segment, matched length)`` pairs in ``progress`` across
    an edge; ``starts`` maps an edge to the segments it starts.

    Segment edges are pairwise distinct, so a segment that fails to extend
    drops out and can only come back by restarting at its start edge.
    Returns None when some segment completes (the path became infeasible).
    """
    out = []
    for seg, matched in (*progress, *((seg, 0) for seg in
                                      starts.get(edge_id, ()))):
        if seg.edges[matched] == edge_id:
            matched += 1
            if matched == len(seg.edges):
                return None
            out.append((seg, matched))
    return tuple(out)


class PathTree(namedtuple("PathTree", "steps truncated")):
    """The bounded segment-free path tree of one procedure, in walk order.

    Expansion ``i`` is ``steps[i] == (node, edges)``: it reaches ``node``
    and leaves it along ``edges``, in the order the walk takes them; its
    children are the expansions those edges lead to.  ``truncated`` is
    set when a bound of ``path_tree`` stopped a path short.
    """

    __slots__ = ()

    def meets(self, *, boundary, meet, node_transfer,
              refine) -> OracleMeets:
        """Propagate ``boundary`` down the tree and meet the values at
        each node entry and after each edge, in the walk's order.

        ``node_transfer(node_id, value)`` runs once per expansion that
        takes an edge, ``refine(edge, value)`` once per taken edge.
        """
        node_in: dict[int, object] = {}
        edge_values: dict[int, object] = {}
        # Children are pushed in the order their edges were taken and
        # popped last first, which replays the walk's expansion order.
        stack = [boundary]
        for node, edges in self.steps:
            value = stack.pop()
            node_in[node] = (meet(node_in[node], value) if node in node_in
                             else value)
            if not edges:
                continue
            transferred = node_transfer(node, value)
            for edge in edges:
                out = refine(edge, transferred)
                eid = edge.id
                edge_values[eid] = (meet(edge_values[eid], out)
                                    if eid in edge_values else out)
                stack.append(out)
        return OracleMeets(node_in, edge_values, len(self.steps),
                           self.truncated)


def path_tree(
    cfg: Cfg,
    universe: MipsUniverse,
    proc_name: str,
    *,
    max_len: int | None = None,
    edge_cap: int = 2,
) -> PathTree:
    """Enumerate the bounded path tree of one procedure.

    A path ends at ``max_len`` edges (default: twice the edge count), an
    edge is taken at most ``edge_cap`` times per path, and a branch is
    pruned the moment a detected infeasible segment completes on it.
    The tree is ``truncated`` when either bound stops a path that had an
    out-edge left to take.
    Pruning depends on the CFG and the segments only, so one tree serves
    every analysis.  Raises :class:`Explosion` past ``EXPANSION_LIMIT``
    expansions.
    """
    limit = EXPANSION_LIMIT
    starts: dict[int, list] = {}
    for seg in universe.by_proc[proc_name]:
        starts.setdefault(seg.start, []).append(seg)
    if max_len is None:
        max_len = 2 * len(cfg.edges)
    steps: list[tuple[int, tuple]] = []
    # One tuple per distinct step: a tree near the limit holds a million
    # expansions but few distinct steps.
    shared: dict[tuple, tuple] = {}
    stack = [(cfg.start, (), {}, 0)]
    truncated = False
    while stack:
        node, progress, counts, length = stack.pop()
        if len(steps) == limit:
            raise Explosion(
                f"path tree of {proc_name} exceeded {limit} expansions")
        if length >= max_len:
            truncated = truncated or bool(cfg.out_of[node])
            steps.append(shared.setdefault((node, ()), (node, ())))
            continue
        edges = []
        for edge in reversed(cfg.out_of[node]):
            eid = edge.id
            if counts.get(eid, 0) >= edge_cap:
                truncated = True
                continue
            advanced = _advance(starts, progress, eid)
            if advanced is None:
                continue  # completing a segment: path infeasible
            edges.append(edge)
            new_counts = dict(counts)
            new_counts[eid] = new_counts.get(eid, 0) + 1
            stack.append((edge.target, advanced, new_counts, length + 1))
        step = (node, tuple(edges))
        steps.append(shared.setdefault(step, step))
    return PathTree(steps, truncated)


def mips_free_meets(
    cfg: Cfg,
    universe: MipsUniverse,
    proc_name: str,
    *,
    boundary,
    top,
    meet,
    node_transfer,
    refine,
    max_len: int | None = None,
) -> OracleMeets:
    """Meet propagated values over bounded segment-free paths.

    ``node_transfer(node_id, value)`` and ``refine(edge, value)`` supply the
    semantics (typically borrowed from a solved analysis so call nodes use
    its summaries); values are met at each node entry and after each edge.
    This is :func:`path_tree`, with each edge taken at most twice per path
    and at most ``EXPANSION_LIMIT`` expansions, followed by
    :meth:`PathTree.meets`; ``top`` is not needed by either.
    """
    tree = path_tree(cfg, universe, proc_name, max_len=max_len)
    return tree.meets(boundary=boundary, meet=meet,
                      node_transfer=node_transfer, refine=refine)


def solution_semantics(solution, proc: Procedure):
    """Node-transfer and refine callbacks borrowed from a solved analysis.

    Call nodes use the solution's interprocedural transfer, so the oracle
    measures path sensitivity only, not summary quality.
    """
    cfg = proc.cfg
    analysis = solution.analysis

    def node_transfer(node_id: int, value):
        return solution.node_transfer(cfg.nodes[node_id], value)

    def refine(edge, value):
        return analysis.refine(edge, cfg.nodes[edge.source], value)

    return node_transfer, refine
