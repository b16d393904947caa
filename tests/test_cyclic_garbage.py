"""Solving leaves no cyclic garbage.

``cli.run`` turns the cyclic collector off for the whole run, so every
object a run drops must be freed by reference counting alone.  Each step
below runs with the collector off, and ``gc.collect()`` after it must
find nothing: parsing and detection, the MFP and FPMFP solves of each
analysis, their folded views through ``to_json``, ``compare_modes``
with its JSON form, and finally dropping all of it.
"""
from __future__ import annotations

import gc

import pytest

from fpmfp import progen
from fpmfp.clients import compare_modes
from fpmfp.frontend import parse_program
from fpmfp.lattice import make_analysis
from fpmfp.lifted import solve_fpmfp_interprocedural
from fpmfp.mfp import solve_mfp
from fpmfp.mips import detect_mips

from conftest import FIXTURES, fixture_text

CASES = ([path.stem for path in sorted(FIXTURES.glob("*.mir"))]
         + [f"multi-{seed}" for seed in range(50)])


def _source(case: str) -> str:
    if case.startswith("multi-"):
        return progen.generate_multi_program(int(case[len("multi-"):]))
    return fixture_text(case)


@pytest.fixture(scope="module")
def frozen_heap():
    """The heap as it stands before the first case, collected and frozen
    once for the module, so no case's collection walks it."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


@pytest.fixture
def collector_off(frozen_heap):
    """The collector off, and what was made since the last freeze
    collected and frozen, so a collection looks only at what the test
    makes."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.freeze()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("case", CASES)
def test_solving_leaves_no_cyclic_garbage(collector_off, case):
    source = _source(case)
    program = parse_program(source)
    universe = detect_mips(program)
    assert gc.collect() == 0, "parse and detect"
    for name in ("rd", "must-defined", "interval"):
        analysis = make_analysis(name, program)
        for mode in ("mfp", "fpmfp"):
            solution = (solve_mfp(program, analysis) if mode == "mfp" else
                        solve_fpmfp_interprocedural(program, analysis,
                                                    universe))
            assert gc.collect() == 0, (name, mode)
            view = analysis.to_json
            for values in (solution.folded_in, solution.folded_out,
                           solution.folded_edges):
                for value in values.values():
                    view(value)
            assert gc.collect() == 0, (name, mode, "views")
        compare_modes(program, analysis, universe=universe).to_json()
        assert gc.collect() == 0, (name, "compare")
    del program, universe, analysis, solution, view
    assert gc.collect() == 0, "dropped"
