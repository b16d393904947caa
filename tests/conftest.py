"""Shared test helpers: fixture loading, parsed-program caching and node
lookup by id."""
from __future__ import annotations

import importlib.util
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from fpmfp.frontend import MiniIrProgram, Node, parse_program

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
PERFBENCH = FIXTURES.parent / "perfbench"


@lru_cache(maxsize=None)
def fixture_text(name: str) -> str:
    if not name.endswith(".mir"):
        name += ".mir"
    return (FIXTURES / name).read_text()


@lru_cache(maxsize=None)
def fixture_program(name: str) -> MiniIrProgram:
    return parse_program(fixture_text(name))


@lru_cache(maxsize=None)
def perfbench_workloads():
    """The benchmark's seeded program generators (``perfbench/workloads.py``)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # ``dataclass`` looks its class's module up in ``sys.modules``.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def node_of(program: MiniIrProgram, nid: int) -> Node:
    """The node with id ``nid``, in whichever procedure has it."""
    return next(proc.cfg.nodes[nid] for proc in program.procedures
                if nid in proc.cfg.nodes)


def perf_program(modules: int = 100, target_nodes: int = 2000) -> str:
    """One large single-procedure program with many local segments.

    Each module is a fig2-style correlated pair over its own selector, so
    segments never span modules and the tracked-pair population stays
    small at every edge while the universe grows with ``modules``.
    Straight-line filler pads the program to ``target_nodes`` statements.
    """
    lines: list[str] = []
    for i in range(modules):
        sel = f"s{i}"
        var = f"v{i % 8}"
        lines.append(f"read {sel};")
        lines.append(f"if ({sel} == 0) {{ {var} = 1; }} "
                     f"else {{ {var} = 2; }}")
        lines.append(f"if ({var} == 3) {{ print {var}; }}")
    # Each module contributes ~6 nodes once parsed; pad the rest with
    # straight-line assignments.
    filler = 0
    while modules * 6 + filler < target_nodes:
        lines.append(f"f{filler % 16} = {filler % 11};")
        filler += 1
    body = "\n".join("  " + line for line in lines)
    return f"proc main() {{\n{body}\n}}\n"


def contains_segment(trace_edges, segment_edges) -> bool:
    """Contiguous containment of a segment in an activation trace."""
    seg = tuple(segment_edges)
    trail = tuple(trace_edges)
    span = len(seg)
    return any(trail[i:i + span] == seg
               for i in range(len(trail) - span + 1))


@pytest.fixture
def load_program():
    return fixture_program


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES
