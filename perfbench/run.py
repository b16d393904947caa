"""The fpmfp benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the analyzer is taken from ``src/``.
With ``--trace 0`` it runs the ``fpmfp`` CLI on the workload's seeded
inputs as child processes, one at a time, checks every report and prints
the end-to-end metrics, each time scaled to the speed of a fixed
reference child run between the commands (``endtoend.measure``). With
``--trace 1`` it calls each module in process under spans and prints the
per-layer metrics. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. ``failed /
attempted`` is the failed ratio: an operation fails on a non-zero exit
code, on a report that disagrees with a hand-derived fact, or on report
bytes that differ between two runs of the same command. ``--smoke`` runs
every workload at tiny sizes and checks the benchmark itself.
``baseline.json`` beside this file records the machine, which layer
metric should move which end-to-end metric on which workload, and the
first baseline.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import endtoend

ROOT = Path(__file__).resolve().parent.parent
END_TO_END_UNITS = {
    "setup_s": "s", "detect_s": "s", "compare_rd_s": "s",
    "compare_uninit_s": "s", "compare_interval_s": "s",
    "analyze_interval_s": "s", "oracle_check_s": "s", "peak_rss_mb": "MB",
}


class SetupError(Exception):
    """The checkout cannot be benchmarked."""


def _require_checkout() -> None:
    if not (ROOT / "src" / "fpmfp" / "cli.py").is_file():
        raise SetupError(f"no analyzer sources under {ROOT / 'src'}")


def _import_analyzer():
    """Import ``fpmfp`` from this checkout's ``src``, nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import fpmfp
    if Path(fpmfp.__file__).resolve().parent != ROOT / "src" / "fpmfp":
        raise SetupError(f"imported fpmfp from {fpmfp.__file__}")


def run_untraced(workload, seed, seconds, workdir, size, started):
    env = endtoend.child_env(ROOT)
    inputs = None

    def setup(measured: endtoend.Measured) -> float:
        """Generate and write the inputs, then start the analyzer once
        (``fpmfp --help``: interpreter start and package import)."""
        nonlocal inputs
        start = time.perf_counter()
        inputs = endtoend.build_inputs(workload, seed, workdir, size)
        child = endtoend.run_child(
            [sys.executable, "-m", "fpmfp.cli", "--help"], env, 60)
        elapsed = time.perf_counter() - start
        measured.peak_rss_mb = max(measured.peak_rss_mb, child.rss_mb)
        measured.attempted += 1
        if child.returncode != 0 or child.timed_out:
            measured.failed += 1
            measured.problems.append(
                f"setup: fpmfp --help exited {child.returncode}")
        return elapsed

    # The first set-up makes the inputs the commands read; the set-up is
    # repeated at the start of every cycle, and setup_s is the median of
    # those repeats at the reference speed (see endtoend.measure).
    measured = endtoend.Measured()
    setup(measured)
    measured = endtoend.measure(endtoend.commands(inputs, workdir), env,
                                sys.executable, seconds, started, measured,
                                setup=setup)
    rss = measured.peak_rss_mb
    metrics = {metric: statistics.median(values)
               for metric, values in measured.samples.items()}
    metrics["peak_rss_mb"] = rss
    summary = [f"{metric:20s} median {statistics.median(v):9.4f} s at the "
               f"reference speed, "
               f"{statistics.median(measured.walls[metric]):9.4f} s wall  "
               f"n={len(v)}  min {min(v):.4f}  max {max(v):.4f}"
               for metric, v in measured.samples.items()]
    reference = measured.walls["reference"]
    summary.append(f"{'reference':20s} median "
                   f"{statistics.median(reference):9.4f} s wall  "
                   f"n={len(reference)}  nominal "
                   f"{endtoend.REFERENCE_NOMINAL_S} s")
    summary.append(f"{'peak_rss_mb':20s} {rss:.1f} MB (max over children)")
    return metrics, measured, summary


def half_size(size: dict) -> dict:
    return {key: max(1, value // 2) for key, value in size.items()}


# The traced run alternates traced and untraced pipeline passes after one
# untraced warm-up pass; each per-layer time is the median over the
# passes.  Each scaling point is timed SCALING_REPEATS times.
TRACE_PASSES = 3
SCALING_REPEATS = 5


def scaling(seed: int) -> dict[str, float]:
    """Scaling exponents, each on the workload it is about, whichever
    workload is traced: detection and the interval solve on local-large,
    interval steps on call-chain, between half and full size.  Half and
    full size alternate, so a drift in the machine's speed moves both, and
    each time is the minimum over the repeats: at 10 to 100 ms a single
    timing varies by up to a factor of two, always upwards."""
    import layers
    import workloads

    local = endtoend.SIZES["local-large"]
    half = workloads.local_large(seed, **half_size(local)).source
    full = workloads.local_large(seed, **local).source
    points = [(layers.scaling_point(half), layers.scaling_point(full))
              for _ in range(SCALING_REPEATS)]
    nodes_h, nodes_f = points[0][0][0], points[0][1][0]

    def exponent(index: int) -> float:
        return layers.exponent(min(f[index] for _, f in points),
                               min(h[index] for h, _ in points),
                               nodes_f, nodes_h)

    # Steps are counted, not timed: one pass each is enough.
    n = endtoend.SIZES["call-chain"]["n"]
    chain_h, chain_f = (layers.scaling_point(workloads.call_chain(seed, size)
                                             .source) for size in (n // 2, n))
    return {
        "mips.detect_exp": exponent(1),
        "lifted.solve_exp.interval": exponent(2),
        "lifted.steps_exp.interval": layers.exponent(
            chain_f[3], chain_h[3], chain_f[0], chain_h[0]),
    }


def run_traced(workload, seed, workdir, size):
    _import_analyzer()
    import layers
    from spans import NullTracer, Tracer, span_cost

    inputs = endtoend.build_inputs(workload, seed, workdir, size)
    suite = [(inputs.program.name, inputs.program.source)]
    max_len = inputs.oracle_max_length
    measured = endtoend.Measured()
    layers.pipeline(NullTracer(), suite, max_len)
    passes, untraced, overhead = [], [], []
    for _ in range(TRACE_PASSES):
        tracer = Tracer()
        start = time.perf_counter()
        counts, results = layers.pipeline(tracer, suite, max_len)
        traced = time.perf_counter() - start
        passes.append(layers.layer_metrics(tracer, counts))
        start = time.perf_counter()
        layers.pipeline(NullTracer(), suite, max_len)
        untraced.append(time.perf_counter() - start)
        overhead.append(traced - untraced[-1])
    metrics = {name: statistics.median(p[name] for p in passes)
               for name in passes[0]}
    metrics["trace.spans"] = len(tracer.spans)
    metrics["trace.untraced_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = statistics.median(overhead)
    metrics["trace.overhead_ratio"] = (metrics["trace.overhead_s"]
                                       / metrics["trace.untraced_s"])
    metrics["trace.span_cost_s"] = span_cost()
    metrics.update(scaling(seed))
    for result in results:
        measured.attempted += 1
        errors = [f"fold of {flag} differs from the solution's own"
                  for flag in result.get("fold_mismatch", ())]
        errors += _check_traced(result, inputs.program.facts)
        if errors:
            measured.failed += 1
            measured.problems.extend(errors)
    env = endtoend.child_env(ROOT)
    out = workdir / "cli-report.json"
    for flag, (wall, inproc, report) in layers.cli_overhead(
            endtoend.program_path(workdir), out, env,
            sys.executable).items():
        measured.attempted += 1
        errors = ["child and in-process reports differ or failed"] \
            if not report else endtoend.check_compare(
                flag, json.loads(report), inputs.program.facts)
        if errors:
            measured.failed += 1
            measured.problems.extend(f"cli {flag}: {e}" for e in errors)
        metrics[f"cli.overhead_s.{flag}"] = wall - inproc
    spans_dir = ROOT / ".perfbench_out"
    spans_dir.mkdir(exist_ok=True)
    (spans_dir / f"spans-{workload}-{seed}.json").write_text(
        json.dumps(tracer.to_json()), encoding="utf-8")
    summary = [f"{name:36s} {value:.6g}" for name, value in metrics.items()]
    return metrics, measured, summary, tracer


def _check_traced(result: dict, facts: dict) -> list[str]:
    errors: list[str] = []
    endtoend.expect(errors, "segments", result["segments"],
                    facts["segments"])
    endtoend.expect(errors, "removed def-use variables",
                    result["removed_vars"], facts["removed_vars"])
    endtoend.expect(errors, "alarms", result["alarms"],
                    tuple(facts["alarms"]))
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(endtoend.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="check the benchmark itself at tiny sizes")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    # SIGTERM raises SystemExit, so a running child is killed and waited
    # for and the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        _require_checkout()
        if args.smoke:
            import smoke
            return smoke.main(ROOT)
        if args.workload is None:
            parser.error("--workload is required")
        workdir = ROOT / ".perfbench_work" / \
            f"{args.workload}-{args.seed}-{os.getpid()}"
        try:
            size = endtoend.SIZES[args.workload]
            if args.trace:
                metrics, measured, summary, _ = run_traced(
                    args.workload, args.seed, workdir, size)
            else:
                metrics, measured, summary = run_untraced(
                    args.workload, args.seed, args.seconds, workdir, size,
                    started)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except (SetupError, endtoend.ReferenceError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    for line in summary:
        print(line)
    for problem in measured.problems[:50]:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": measured.failed == 0,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": {
            name: {"value": value, "unit": unit(name)}
            for name, value in metrics.items()
        },
    }))
    return 0


def unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    stem = name.split(".")[1]
    if stem == "nodes_per_s":
        return "1/s"
    if stem.endswith("_s"):
        return "s"
    if stem.endswith("_exp"):
        return "exponent"
    if stem.endswith(("_ratio", "_over_mfp", "_per_query")):
        return "ratio"
    if stem == "report_bytes":
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
