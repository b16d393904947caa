"""Seeded MiniIR generators for the benchmark workloads.

Every generator is a pure function of its seed and size.  The seed picks
constants and names only; the shape of the program is fixed by the size,
so the facts each generator returns hold for every seed.  Those facts are
derived by hand from the shape (see each docstring), never by running the
analyzer, and the benchmark checks the analyzer's reports against them.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass
class Program:
    """One generated input with the facts its reports must show.

    ``facts`` keys:

    * ``nodes``: CFG nodes over all procedures.
    * ``segments``: number of segments ``detect-mips`` lists.
    * ``removed_def_use``: number of def-use pairs FPMFP removes (rd).
    * ``removed_vars``: the variable of every removed def-use pair.
    * ``alarms``: (mfp, fpmfp) uninitialized-use alarm totals.
    * ``fpmfp_global_defs``: for call chains, (variable, FPMFP count, MFP
      count) of the global's definitions that reach some node or edge
      (rd).
    """

    name: str
    source: str
    facts: dict = field(default_factory=dict)


def _rng(kind: str, seed: int) -> random.Random:
    return random.Random(f"perfbench-{kind}-{seed}")


def _names(rng: random.Random, count: int) -> list[str]:
    """``count`` distinct lowercase identifiers of 2 to 4 letters."""
    letters = "abcdefghijkmnpqrtuwxyz"
    out: list[str] = []
    seen: set[str] = set()
    while len(out) < count:
        name = "".join(rng.choice(letters)
                       for _ in range(rng.randint(2, 4)))
        if name not in seen and name not in _KEYWORDS:
            seen.add(name)
            out.append(name)
    return out


_KEYWORDS = {"if", "else", "while", "read", "print", "proc", "switch",
             "case", "default", "assert", "global", "extern", "skip",
             "exit", "true", "false"}


def local_large(seed: int, modules: int, filler: int) -> Program:
    """One procedure of ``modules`` correlated pairs plus straight filler.

    The Criterion 9 shape (``progen.perf_program``): module i is
    ``read s; if (s == K) { v = c1; } else { v = c2; }
    if (v == P) { print v; }`` with P different from c1 and c2.  The
    true arm of the second test asks "v == P?"; both arms of the first
    test answer FALSE, so each module has exactly 2 segments, and the two
    definitions of v that reach ``print v`` under MFP both vanish under
    FPMFP (2 removed def-use pairs, both on v).  Segments never leave
    their module, so at most 2 segments are tracked on any edge.  Every
    use follows a definition on every path: no alarms in either mode.
    """
    rng = _rng("local", seed)
    pool = _names(rng, 8 + 16 + 1)
    values, fill, sel = pool[:8], pool[8:24], pool[24]
    lines: list[str] = []
    removed_vars: list[str] = []
    for i in range(modules):
        s = f"{sel}{i}"
        var = values[i % 8]
        key = rng.randint(-9, 9)
        c1, c2, probe = rng.sample(range(-20, 21), 3)
        lines.append(f"read {s};")
        lines.append(f"if ({s} == {key}) {{ {var} = {c1}; }} "
                     f"else {{ {var} = {c2}; }}")
        lines.append(f"if ({var} == {probe}) {{ print {var}; }}")
        removed_vars += [var, var]
    for j in range(filler):
        lines.append(f"{fill[j % 16]} = {rng.randint(0, 99)};")
    body = "\n".join("  " + line for line in lines)
    return Program(
        f"local-{modules}-{filler}",
        f"proc main() {{\n{body}\n}}\n",
        {
            # 6 nodes per module (read, two tests, two arms, print), the
            # filler and the exit node.
            "nodes": 6 * modules + filler + 1,
            "segments": 2 * modules,
            "removed_def_use": 2 * modules,
            "removed_vars": sorted(removed_vars),
            "alarms": (0, 0),
        })


def call_chain(seed: int, n: int) -> Program:
    """``main`` calls p_0, and each p_i calls p_(i+1), n procedures deep.

    ``global g; main: g = G0; p_0(); print g;`` and each p_i does
    ``read s; if (s == K) { t = c1; } else { t = c2; }
    if (t == P) { g = g + d; }`` before its call, with P different from
    c1 and c2.  Each p_i has 2 segments (both arms of its first test
    contradict ``t == P``), 2n in all, so no ``g = g + d`` ever executes
    on a feasible path: under FPMFP the only definition of g that reaches
    any node or edge is main's ``g = G0``, while under MFP all n + 1 do.
    Removed def-use pairs: at ``print g`` the n increments, and at the
    increment in p_i the i + 1 definitions before it, n + n(n+1)/2 in
    all, every one on g.  No alarms.
    """
    rng = _rng("chain", seed)
    names = _names(rng, 4)
    g, s, t, proc = names
    lines = [f"global {g};", "proc main() {",
             f"  {g} = {rng.randint(-9, 9)};", f"  {proc}0();",
             f"  print {g};", "}"]
    for i in range(n):
        key = rng.randint(-9, 9)
        c1, c2, probe = rng.sample(range(-20, 21), 3)
        lines += [
            f"proc {proc}{i}() {{",
            f"  read {s};",
            f"  if ({s} == {key}) {{ {t} = {c1}; }} "
            f"else {{ {t} = {c2}; }}",
            f"  if ({t} == {probe}) {{ {g} = {g} + {rng.randint(1, 9)}; }}",
        ]
        if i + 1 < n:
            lines.append(f"  {proc}{i + 1}();")
        lines.append("}")
    removed = n + n * (n + 1) // 2
    return Program(
        f"chain-{n}",
        "\n".join(lines) + "\n",
        {
            # main: assign, call, print, exit.  p_i: read, two tests,
            # three arms, a call except in the last, exit.
            "nodes": 4 + 8 * n - 1,
            "segments": 2 * n,
            "removed_def_use": removed,
            "removed_vars": [g] * removed,
            "alarms": (0, 0),
            "fpmfp_global_defs": (g, 1, n + 1),
        })
