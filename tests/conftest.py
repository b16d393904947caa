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


@pytest.fixture
def load_program():
    return fixture_program


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES
