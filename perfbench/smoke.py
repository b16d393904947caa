"""Checks of the benchmark itself, at tiny sizes (``run.py --smoke``).

* Every workload's commands pass their checks (nothing fails), and a
  deliberately wrong expected fact makes operations fail.
* Self time equals a span's duration minus what its children cover, on a
  hand-built span tree and on the spans of a real traced pass.
* A time is scaled by the reference runs before and after it.
* The traced run reports exactly the per-layer metrics BENCHMARK.json
  names, and the untraced run exactly the end-to-end ones.
"""
from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

import endtoend
import run
from spans import Span, Tracer

TINY = {
    "local-large": {"modules": 3, "filler": 4},
    "call-chain": {"n": 3},
}


class Smoke:
    def __init__(self) -> None:
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            self.failures.append(what)


def _span_arithmetic(smoke: Smoke) -> None:
    tracer = Tracer()
    # Parent [0, 10]; children [1, 3] and [2, 4] overlap (cover [1, 4]),
    # [8, 12] is clipped to [8, 10]: 3 + 2 covered, self time 5.
    tracer.spans = [Span("p", 0.0, 10.0, None, 0),
                    Span("a", 1.0, 3.0, 0, 0), Span("b", 2.0, 4.0, 0, 0),
                    Span("c", 8.0, 12.0, 0, 0)]
    smoke.check(tracer.self_times() == [5.0, 2.0, 2.0, 4.0],
                "self time of a hand-built span tree")


def _reference_scaling(smoke: Smoke) -> None:
    measured = endtoend.Measured()
    # 0.6 s between reference runs of 0.2 and 0.4 s: twice the reference.
    measured.record("x", 0.6, 0.2, 0.4)
    want = 2 * endtoend.REFERENCE_NOMINAL_S
    smoke.check(abs(measured.samples["x"][0] - want) < 1e-12
                and measured.walls["x"] == [0.6],
                "a time is scaled by the mean of the reference runs "
                "around it")


def _real_spans(smoke: Smoke, tracer: Tracer) -> None:
    own = tracer.self_times()
    worst = 0.0
    for index, span in enumerate(tracer.spans):
        children = sum(c.duration for c in tracer.spans
                       if c.parent == index)
        worst = max(worst, abs(own[index] - (span.duration - children)))
    smoke.check(bool(tracer.spans) and worst < 1e-9 and min(own) >= 0,
                f"self = span - children on {len(tracer.spans)} real spans")


def main(root: Path) -> int:
    smoke = Smoke()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    smoke.check({w["name"] for w in spec["workloads"]}
                == set(endtoend.WORKLOADS),
                "BENCHMARK.json names the benchmark's workloads")
    _span_arithmetic(smoke)
    _reference_scaling(smoke)
    base = root / ".perfbench_work" / "smoke"
    try:
        for workload, size in TINY.items():
            workdir = base / workload
            metrics, measured, _ = run.run_untraced(
                workload, 1, 0.0, workdir, size,
                started=time.perf_counter())
            smoke.check(measured.failed == 0 and measured.attempted > 0,
                        f"{workload}: {measured.attempted} operations, "
                        f"{measured.failed} failed {measured.problems[:3]}")
            smoke.check(set(metrics) == end_to_end,
                        f"{workload}: prints every end-to-end metric")
            metrics, measured, _, tracer = run.run_traced(
                workload, 1, workdir / "traced", size)
            smoke.check(measured.failed == 0,
                        f"{workload} traced: {measured.failed} failed "
                        f"{measured.problems[:3]}")
            smoke.check(set(metrics) == per_layer,
                        f"{workload} traced: prints every per-layer metric "
                        f"(missing {sorted(per_layer - set(metrics))}, "
                        f"extra {sorted(set(metrics) - per_layer)})")
        _real_spans(smoke, tracer)
        workdir = base / "wrong-fact"
        inputs = endtoend.build_inputs("local-large", 1, workdir,
                                       TINY["local-large"])
        inputs.program.facts["segments"] += 1
        measured = endtoend.measure(
            endtoend.commands(inputs, workdir), endtoend.child_env(root),
            sys.executable, 0.0, time.perf_counter(), min_cycles=1)
        smoke.check(measured.failed >= 4,
                    f"a wrong segment count fails detect-mips and the three "
                    f"compares: {measured.failed}/{measured.attempted} "
                    f"failed")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print(f"smoke: {len(smoke.failures)} failure(s)")
    return 1 if smoke.failures else 0
