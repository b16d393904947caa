"""Golden of the fixpoint engine's results: one hash per solve.

Each entry is sha256 over a canonical JSON dump of one solve: every
procedure's node In and edge pairs, the folded In, Out and edge views,
boundaries, exit values, steps and the pair statistics (``max_pairs``,
``per_edge_max``, ``blocked``, ``end_merges``, ``value_shifts``); a
``solve_mfp`` entry dumps its folded In and edge views instead, under
the names ``node_in`` and ``edge_values``.  Dict items and set
members are sorted, so no hash depends on insertion order or on the
string hash seed.  The solves are ``solve_mfp`` and
``solve_fpmfp_interprocedural`` with normalizations none and 1,2,3 (on
the fixtures also each normalization alone), for rd, must-defined and
interval, over the fixtures, ``generate_program`` seeds 0-19 acyclic and
with loops, ``generate_multi_program`` seeds 0-19, 135, 141, 142 and 170, the
benchmark's ``local_large(1, 50, 200)`` and ``call_chain(1, 40)``, and
``diamonds(k)`` for k = 2, 4, 6 and 8 (also each normalization alone):
|U| = 9, 38, 143 and 540, with up to 16 pairs on an edge, where the
fixtures reach few edges with more than one pair.

Run this file as a script to rewrite the golden.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from fpmfp.frontend import parse_program
from fpmfp.lattice import make_analysis
from fpmfp.lifted import ALL_OPTS, NonTermination, solve_fpmfp_interprocedural
from fpmfp.mfp import solve_mfp
from fpmfp.mips import detect_mips
from fpmfp.progen import generate_multi_program, generate_program

from conftest import FIXTURES, perfbench_workloads
from shapes import diamonds

GOLDEN = Path(__file__).resolve().parent / "golden" / "solver_fingerprints.json"
ANALYSES = ("rd", "must-defined", "interval")


def corpus() -> list[tuple[str, str, bool]]:
    """(name, source, every normalization alone) for every program."""
    cases = [(f"fixture-{p.stem}", p.read_text(encoding="utf-8"), True)
             for p in sorted(FIXTURES.glob("*.mir"))]
    for acyclic in (True, False):
        cases += [(f"gen-{seed}-{'acyclic' if acyclic else 'loops'}",
                   generate_program(seed, acyclic=acyclic), False)
                  for seed in range(20)]
    cases += [(f"multi-{seed}", generate_multi_program(seed), False)
              for seed in (*range(20), 135, 141, 142, 170)]
    workloads = perfbench_workloads()
    cases += [("local-large", workloads.local_large(1, 50, 200).source, False),
              ("call-chain", workloads.call_chain(1, 40).source, False)]
    cases += [(f"diamonds-{k}", diamonds(k), True) for k in (2, 4, 6, 8)]
    return cases


def canon(x):
    """``x`` as JSON content with dict items, sorted by their keys' JSON
    text, and set members sorted."""
    kind = type(x)
    if kind is int or kind is float or kind is str:
        return x
    if kind is tuple and len(x) == 2 and type(x[0]) in _NUMBERS \
            and type(x[1]) in _NUMBERS:
        return list(x)  # an interval, say: the same as the loop below
    if isinstance(x, dict):
        items = [[canon(k), canon(v)] for k, v in x.items()]
        items.sort(key=_key_text)
        return items
    if isinstance(x, (set, frozenset)):
        return sorted(x)
    if isinstance(x, (list, tuple)):
        return [canon(i) for i in x]
    return x


_NUMBERS = (int, float)


def _key_text(item) -> str:
    """``json.dumps`` of a canonical dict key, faster for the common
    kinds: an int, a plain name, or a sorted list of ints (a pair's
    segment set)."""
    key = item[0]
    kind = type(key)
    if kind is int:
        return str(key)
    if kind is str and key.isascii() and key.isidentifier():
        return '"' + key + '"'
    if kind is list and all(type(i) is int for i in key):
        return "[" + ", ".join(map(str, key)) + "]"
    return json.dumps(key)


def _digest(dump: dict) -> str:
    text = json.dumps(canon(dump))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _mfp_dump(sol) -> dict:
    return {"node_in": sol.folded_in, "edge_values": sol.folded_edges,
            "boundaries": sol.boundaries, "exit_values": sol.exit_values,
            "steps": sol.steps}


def _fpmfp_dump(sol) -> dict:
    stats = sol.stats
    return {
        "procs": {name: {"node_in": p.node_in, "edge_values": p.edge_values}
                  for name, p in sol.procs.items()},
        "folded_in": sol.folded_in, "folded_out": sol.folded_out,
        "folded_edges": sol.folded_edges, "boundaries": sol.boundaries,
        "exit_values": sol.exit_values, "steps": sol.steps,
        "stats": [stats.max_pairs, stats.per_edge_max, stats.blocked,
                  stats.end_merges, stats.value_shifts],
    }


def fingerprints() -> dict[str, str]:
    out: dict[str, str] = {}
    for name, source, each_alone in corpus():
        program = parse_program(source)
        universe = detect_mips(program)
        opts_list = [("none", frozenset()), ("1,2,3", ALL_OPTS)]
        if each_alone:
            opts_list += [(str(o), frozenset({o})) for o in sorted(ALL_OPTS)]
        for analysis_name in ANALYSES:
            analysis = make_analysis(analysis_name, program)
            solves = [("mfp", lambda: _mfp_dump(solve_mfp(program, analysis)))]
            solves += [
                (f"fpmfp-{label}",
                 lambda opts=opts: _fpmfp_dump(solve_fpmfp_interprocedural(
                     program, analysis, universe, opts)))
                for label, opts in opts_list]
            for label, solve in solves:
                try:
                    digest = _digest(solve())
                except NonTermination as exc:
                    digest = f"NonTermination: {exc}"
                out[f"{name} {analysis_name} {label}"] = digest
    return out


def test_solves_match_the_golden():
    assert fingerprints() == json.loads(GOLDEN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(fingerprints(), indent=1, sort_keys=True)
                      + "\n", encoding="utf-8")
