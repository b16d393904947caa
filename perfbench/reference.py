"""A fixed reference computation that measures the machine's speed.

    python3 perfbench/reference.py

The benchmark runs it as a child before and after every timed ``fpmfp``
child and scales each command's wall time by it (see ``endtoend.py``).
It does what an ``fpmfp`` child does, with none of the analyzer's code:
start the interpreter, import the standard-library modules the CLI
imports, solve a fixed reaching-definitions-like problem with frozensets
and dicts, and serialize the result as JSON.  Nothing in it depends on
the repository, so no change to the analyzer can move it.  It prints one
checksum, the same on every run.
"""
from __future__ import annotations

import abc  # noqa: F401  (imported for its start-up cost, as the CLI does)
import argparse  # noqa: F401
import concurrent.futures  # noqa: F401
import hashlib
import heapq  # noqa: F401
import json
import logging  # noqa: F401
import random
import re  # noqa: F401
from dataclasses import dataclass, field  # noqa: F401
from enum import Enum  # noqa: F401
from pathlib import Path  # noqa: F401
from typing import Callable, NamedTuple  # noqa: F401

NODES = 300
ROUNDS = 2


def graph(rng: random.Random) -> list[list[int]]:
    """A chain with forward skips and a few back edges."""
    succ: list[list[int]] = [[] for _ in range(NODES)]
    for node in range(NODES - 1):
        succ[node].append(node + 1)
        if rng.random() < 0.3:
            succ[node].append(min(NODES - 1, node + rng.randint(2, 9)))
        if node > 20 and rng.random() < 0.05:
            succ[node].append(node - rng.randint(5, 20))
    return succ


def solve(succ: list[list[int]], gen: list[tuple[str, int]]) -> list:
    """Round-robin fixpoint: each node kills its variable's definitions."""
    out: list[frozenset] = [frozenset()] * NODES
    pred: list[list[int]] = [[] for _ in range(NODES)]
    for node, targets in enumerate(succ):
        for target in targets:
            pred[target].append(node)
    changed = True
    while changed:
        changed = False
        for node in range(NODES):
            into = frozenset().union(*(out[p] for p in pred[node]))
            var = gen[node][0]
            new = frozenset(d for d in into if d[0] != var) | {gen[node]}
            if new != out[node]:
                out[node] = new
                changed = True
    return out


def main() -> None:
    digest = hashlib.sha256()
    for round_ in range(ROUNDS):
        rng = random.Random(round_)
        succ = graph(rng)
        gen = [(f"v{rng.randrange(12)}", node) for node in range(NODES)]
        out = solve(succ, gen)
        report = {str(node): sorted(defs) for node, defs in enumerate(out)}
        digest.update(json.dumps(report, indent=2, sort_keys=True).encode())
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
