"""Shared test helpers: fixture loading, parsed-program caching and node
lookup by id."""
from __future__ import annotations

import importlib.util
import io
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from fpmfp import cmd_io
from fpmfp.frontend import MiniIrProgram, Node, parse_program

from shapes import perf_program  # noqa: F401  (re-exported to the tests)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
PERFBENCH = FIXTURES.parent / "perfbench"


def json_text(payload) -> str:
    """The JSON report the CLI writes for ``payload``, streamed into a
    string."""
    out = io.StringIO()
    cmd_io._stream_json(payload, out.write)
    return out.getvalue()


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


@lru_cache(maxsize=None)
def corpus_programs() -> tuple[tuple[str, MiniIrProgram], ...]:
    """(name, program) for the fixtures, ``generate_program`` seeds 0-99
    acyclic and with loops, and ``generate_multi_program`` seeds 0-99."""
    from fpmfp.progen import generate_multi_program, generate_program

    cases = [(p.stem, fixture_program(p.name))
             for p in sorted(FIXTURES.glob("*.mir"))]
    for acyclic in (True, False):
        cases += [(f"gen-{seed}-{'acyclic' if acyclic else 'loops'}",
                   parse_program(generate_program(seed, acyclic=acyclic)))
                  for seed in range(100)]
    cases += [(f"multi-{seed}", parse_program(generate_multi_program(seed)))
              for seed in range(100)]
    return tuple(cases)


def node_of(program: MiniIrProgram, nid: int) -> Node:
    """The node with id ``nid``, in whichever procedure has it."""
    return next(proc.cfg.nodes[nid] for proc in program.procedures
                if nid in proc.cfg.nodes)


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
