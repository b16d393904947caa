"""The scaling harness, ``scaling/run.py``, at its smoke sizes."""
from __future__ import annotations

import importlib.util
import json

from conftest import FIXTURES

SCRIPT = FIXTURES.parent / "scaling" / "run.py"


def load_harness():
    spec = importlib.util.spec_from_file_location("scaling_run", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_smoke_runs_give_the_same_counts(capsys):
    harness = load_harness()
    runs = []
    for _ in range(2):
        assert harness.main(["--smoke"]) == 0
        runs.append(json.loads(capsys.readouterr().out))
    first, second = runs
    assert first["workloads"] == second["workloads"]
    diamonds = first["workloads"]["diamonds"]
    assert list(diamonds) == ["2", "3"]
    # diamonds(2): |U| = 9, as the solver golden states.
    assert diamonds["2"]["segments"] == 9
    for sizes in first["workloads"].values():
        for counts in sizes.values():
            assert counts["nodes"] <= harness.REPORT_NODES
            for name in harness.ANALYSES:
                assert counts[name]["compare_bytes"] > 0
                assert counts[name]["mfp"]["fixpoints"] >= 1
