"""Scaling harness: counts per workload and size, one entry per run.

Each run prints one entry and appends it to ``BENCH_scaling.json`` at
the repository root.  The entry holds the commit, the host's CPU count
and Python version, and per workload and size these counts:

* ``nodes``: CFG nodes over all procedures;
* ``segments``: detected segments, |U|;
* ``crossing_entries``: segment ids held over every edge's (starts,
  continues, ends) crossing sets;
* per analysis (``rd``, ``interval``) and mode (``mfp``, ``fpmfp``):
  ``steps``, the engine's node visits, and ``fixpoints``, the
  per-procedure fixpoints run, call-summary fixpoints included;
* per analysis, ``max_pairs``: the most pairs one flow left on an edge
  in the FPMFP solve;
* per analysis, ``compare_bytes``: the size of the
  ``compare --no-timing`` JSON report, for programs of up to
  ``REPORT_NODES`` nodes.

The workloads are ``diamonds(k)`` and ``perf_program`` at one module per
``NODES_PER_MODULE`` nodes (both from ``tests/shapes.py``).  Counts carry
no host noise: two runs of one commit give the same entry apart from the
commit and the host.  No timings yet.

    python3 scaling/run.py            # full sizes, appended to the record
    python3 scaling/run.py --smoke    # tiny sizes, in seconds; printed only

Only the standard library and the package under ``src/`` are used.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "BENCH_scaling.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from fpmfp import cli, lifted  # noqa: E402
from fpmfp.frontend import parse_program  # noqa: E402
from fpmfp.lattice import make_analysis  # noqa: E402
from fpmfp.lifted import solve_fpmfp_interprocedural  # noqa: E402
from fpmfp.mfp import solve_mfp  # noqa: E402
from fpmfp.mips import detect_mips  # noqa: E402
from shapes import diamonds, perf_program  # noqa: E402

NODES_PER_MODULE = 20
REPORT_NODES = 2_048
ANALYSES = ("rd", "interval")
SIZES = {"diamonds": (8, 12, 14), "perf_program": (2_000, 8_000)}
SMOKE_SIZES = {"diamonds": (2, 3), "perf_program": (100, 200)}


def source(workload: str, size: int) -> str:
    if workload == "diamonds":
        return diamonds(size)
    return perf_program(size // NODES_PER_MODULE, size)


@contextlib.contextmanager
def counting_fixpoints(counter: list[int]):
    """Count ``lifted._fixpoint`` calls: the driver and the call
    summaries look it up as a module global."""
    real = lifted._fixpoint

    def counted(*args):
        counter[0] += 1
        return real(*args)

    lifted._fixpoint = counted
    try:
        yield
    finally:
        lifted._fixpoint = real


def solve_counts(solve) -> tuple[dict[str, int], object]:
    """Steps and fixpoints of ``solve()``, and its solution."""
    fixpoints = [0]
    with counting_fixpoints(fixpoints):
        solution = solve()
    return {"steps": solution.steps, "fixpoints": fixpoints[0]}, solution


def report_bytes(text: str, analysis: str) -> int:
    """Bytes ``fpmfp compare --no-timing`` writes for ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "program.mir")
        path.write_text(text, encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["compare", "--program", str(path),
                             "--no-timing", "--analysis", analysis])
    if code != 0:
        raise RuntimeError(f"compare --analysis {analysis} exited {code}")
    return len(out.getvalue().encode("utf-8"))


def measure(text: str) -> dict:
    program = parse_program(text)
    universe = detect_mips(program)
    nodes = sum(len(proc.cfg.nodes) for proc in program.procedures)
    counts: dict = {
        "nodes": nodes,
        "segments": len(universe),
        "crossing_entries": sum(len(ids) for sets in
                                universe.crossings.values() for ids in sets),
    }
    for name in ANALYSES:
        analysis = make_analysis(name, program)
        mfp, _ = solve_counts(lambda: solve_mfp(program, analysis))
        fpmfp, solution = solve_counts(lambda: solve_fpmfp_interprocedural(
            program, analysis, universe))
        counts[name] = {"mfp": mfp, "fpmfp": fpmfp,
                        "max_pairs": solution.stats.max_pairs}
        if nodes <= REPORT_NODES:
            counts[name]["compare_bytes"] = report_bytes(text, name)
    return counts


def commit() -> str:
    """HEAD's hash, with ``+dirty`` when tracked files differ from it."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        head = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + ("+dirty" if dirty else "")


def entry(sizes: dict[str, tuple[int, ...]]) -> dict:
    return {
        "commit": commit(),
        "host": {"cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "workloads": {workload: {str(size): measure(source(workload, size))
                                 for size in workload_sizes}
                      for workload, workload_sizes in sizes.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, finishing in seconds; the entry "
                             "is printed, not recorded")
    args = parser.parse_args(argv)
    new = entry(SMOKE_SIZES if args.smoke else SIZES)
    if not args.smoke:
        entries = (json.loads(RECORD.read_text(encoding="utf-8"))
                   if RECORD.exists() else [])
        entries.append(new)
        RECORD.write_text(json.dumps(entries, indent=1) + "\n",
                          encoding="utf-8")
    json.dump(new, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
