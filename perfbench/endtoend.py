"""Workloads, their inputs, the CLI commands run on them and the checks.

One client, closed loop: the benchmark starts the next ``fpmfp`` child
only after the previous one has exited.  A cycle runs every command of
the workload once; cycles repeat until the run's seconds are used up.
"""
from __future__ import annotations

import hashlib
import json
import os
import selectors
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

# Sizes chosen so that the analysis, not interpreter start-up (about
# 0.25 s), dominates the slowest commands, while one cycle of a workload,
# with the reference runs between its steps, stays within 6 to 9 s on a
# 2-vCPU machine: a run of 60 s holds 7 to 10 samples per command.
SIZES = {
    "local-large": {"modules": 50, "filler": 200},
    "call-chain": {"n": 40},
}
# Path-length bound for ``oracle-check`` on local-large: its single
# procedure has 2 branches every 6 nodes, so an unbounded path tree
# explodes.  call-chain uses the CLI default.
LOCAL_ORACLE_MAX_LENGTH = 30

WORKLOADS = {
    "local-large": "one procedure of correlated-pair modules (Criterion 9 "
                   "shape): detection sweeps, interval fold and the "
                   "compare JSON report dominate; no interprocedural rounds",
    "call-chain": "n procedures calling each other in a chain: every "
                  "procedure is re-solved every round, the only workload "
                  "for the interprocedural drivers and summaries",
}

MIN_CYCLES = 3
# A run stops starting cycles after this many seconds whatever --seconds
# says, so it exits well within 180 s.
HARD_STOP_S = 140.0


@dataclass
class Inputs:
    """What one workload runs on, for one seed."""

    program: workloads.Program
    oracle_max_length: int | None


def build_inputs(workload: str, seed: int, workdir: Path,
                 size: dict) -> Inputs:
    """Generate the workload's program and write it under ``workdir``."""
    if workload == "call-chain":
        program = workloads.call_chain(seed, size["n"])
        max_length = None
    else:
        program = workloads.local_large(seed, size["modules"],
                                        size["filler"])
        max_length = LOCAL_ORACLE_MAX_LENGTH
    path = program_path(workdir)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(program.source, encoding="utf-8")
    return Inputs(program, max_length)


def program_path(workdir: Path) -> Path:
    return workdir / "in" / "program.mir"


# ---------------------------------------------------------------------------
# Checks: each returns the list of mismatches against hand-derived facts.
# ---------------------------------------------------------------------------

def expect(errors: list[str], what: str, got, want) -> None:
    if got != want:
        errors.append(f"{what}: got {got!r}, expected {want!r}")


def check_detect(data: dict, facts: dict) -> list[str]:
    errors: list[str] = []
    expect(errors, "segments", len(data["mips"]), facts["segments"])
    return errors


def _global_defs(data: dict, mode: str, var: str) -> set:
    defs = set()
    for table in ("nodes", "edges"):
        for row in data[table].values():
            defs.update(node for name, node in row[mode] if name == var)
    return defs


def check_compare(flag: str, data: dict, facts: dict) -> list[str]:
    errors: list[str] = []
    expect(errors, "segments", data["segments"], facts["segments"])
    if flag == "rd":
        removed = data["def_use"]["removed"]
        expect(errors, "removed def-use pairs", len(removed),
                facts["removed_def_use"])
        expect(errors, "removed def-use variables",
                sorted(var for _, _, var in removed), facts["removed_vars"])
        if "fpmfp_global_defs" in facts:
            var, fpmfp, mfp = facts["fpmfp_global_defs"]
            expect(errors, f"defs of {var} reaching under FPMFP",
                    len(_global_defs(data, "fpmfp", var)), fpmfp)
            expect(errors, f"defs of {var} reaching under MFP",
                    len(_global_defs(data, "mfp", var)), mfp)
    elif flag == "uninit":
        totals = data["alarms"]["totals"]
        expect(errors, "alarms", (totals["mfp"], totals["fpmfp"]),
                tuple(facts["alarms"]))
    return errors


def check_analyze(data: dict, facts: dict) -> list[str]:
    errors: list[str] = []
    expect(errors, "mode", data["mode"], "fpmfp")
    expect(errors, "solution records", len(data["solution"]),
            facts["nodes"])
    return errors


def check_oracle(data: dict, programs: int) -> list[str]:
    errors: list[str] = []
    expect(errors, "violations", data["violations"], [])
    expect(errors, "programs checked", data["programs"], programs)
    return errors


def commands(inputs: Inputs, workdir: Path):
    """(metric, fpmfp arguments, output file, check) per command."""
    path = str(program_path(workdir))
    facts = inputs.program.facts
    out = workdir / "out"
    out.mkdir(exist_ok=True)
    cmds = [("detect_s", ["detect-mips", "--program", path],
             lambda d: check_detect(d, facts))]
    for flag in ("rd", "uninit", "interval"):
        cmds.append((f"compare_{flag}_s",
                     ["compare", "--program", path, "--analysis", flag,
                      "--no-timing"],
                     lambda d, flag=flag: check_compare(flag, d, facts)))
    cmds.append(("analyze_interval_s",
                 ["analyze", "--program", path, "--analysis", "interval",
                  "--mode", "fpmfp"],
                 lambda d: check_analyze(d, facts)))
    oracle = ["oracle-check", "--fixtures",
              str(program_path(workdir).parent), "--jobs", "1"]
    if inputs.oracle_max_length is not None:
        oracle += ["--max-length", str(inputs.oracle_max_length)]
    cmds.append(("oracle_check_s", oracle, lambda d: check_oracle(d, 1)))
    return [(metric, argv + ["--output", str(out / f"{metric}.json")],
             out / f"{metric}.json", check)
            for metric, argv, check in cmds]


@dataclass
class Measured:
    samples: dict[str, list[float]] = field(default_factory=dict)
    walls: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0

    def record(self, metric: str, wall: float, before: float,
               after: float) -> None:
        """Keep ``wall`` and its time at the reference speed."""
        self.walls.setdefault(metric, []).append(wall)
        self.samples.setdefault(metric, []).append(
            wall / ((before + after) / 2) * REFERENCE_NOMINAL_S)


# Every timed step of a cycle (the set-up and each command) lies between
# two runs of ``reference.py``, a fixed pure-Python child that nothing in
# the repository can change, and its time is reported at the reference
# speed: wall / mean(reference before, reference after) x
# REFERENCE_NOMINAL_S, the reference's median wall time on the baseline
# machine.  That machine (2 vCPUs of a shared host) runs a child now at
# full speed, now up to a third slower, and the share of slow time drifts
# over minutes: over 10 minutes of local-large cycles, the medians of one
# command over 56 s windows spread by 9 to 22 % in wall time and by 4 to
# 11 % at the reference speed.  A change to the analyzer moves the scaled
# time by the same share as the wall time.
REFERENCE = Path(__file__).resolve().parent / "reference.py"
REFERENCE_NOMINAL_S = 0.27


class ReferenceError(RuntimeError):
    """The reference child failed or printed an unexpected checksum."""


class Reference:
    """Runs the reference child and checks that its output never changes."""

    def __init__(self, python: str) -> None:
        self.python = python
        self.checksum: bytes | None = None
        self.walls: list[float] = []

    def run(self) -> float:
        start = time.perf_counter()
        try:
            child = subprocess.run([self.python, str(REFERENCE)],
                                   capture_output=True, timeout=60)
        except subprocess.TimeoutExpired as exc:
            raise ReferenceError("reference.py timed out") from exc
        wall = time.perf_counter() - start
        if child.returncode != 0:
            raise ReferenceError(
                f"reference.py exited {child.returncode}: "
                f"{child.stderr.decode(errors='replace')[-300:]}")
        if self.checksum is None:
            self.checksum = child.stdout
        elif child.stdout != self.checksum:
            raise ReferenceError("reference.py printed another checksum")
        self.walls.append(wall)
        return wall


def measure(cmds, env: dict, python: str, seconds: float, started: float,
            result: Measured | None = None, min_cycles: int = MIN_CYCLES,
            setup=None) -> Measured:
    """Closed loop over the commands until ``seconds`` are used up;
    counts add to ``result`` when given.  ``setup``, when given, is timed
    at the start of every cycle as ``setup_s``.  Each step is bracketed
    by reference runs, one between two steps; their wall times are kept
    as ``result.walls["reference"]``."""
    if result is None:
        result = Measured()
    reference = Reference(python)
    for metric, *_ in cmds:
        result.samples[metric] = []
    digests: dict[str, str] = {}
    cycles: list[float] = []
    while True:
        cycle_start = time.perf_counter()
        before = reference.run()
        if setup is not None:
            wall = setup(result)
            after = reference.run()
            result.record("setup_s", wall, before, after)
            before = after
        for metric, argv, out, check in cmds:
            if out.exists():
                out.unlink()
            remaining = max(1.0, 170.0 - (time.perf_counter() - started))
            child = run_child([python, "-m", "fpmfp.cli", *argv], env,
                              remaining)
            result.peak_rss_mb = max(result.peak_rss_mb, child.rss_mb)
            # A child that timed out was killed and waited for; its time
            # until then still counts.
            errors = ["timed out"] if child.timed_out else \
                _judge(metric, child, out, check, digests)
            wall = child.wall
            after = reference.run()
            result.record(metric, wall, before, after)
            before = after
            result.attempted += 1
            if errors:
                result.failed += 1
                result.problems.extend(f"{metric}: {e}" for e in errors)
        cycles.append(time.perf_counter() - cycle_start)
        elapsed = time.perf_counter() - started
        if elapsed > HARD_STOP_S:
            break
        if len(cycles) >= min_cycles and \
                elapsed + sorted(cycles)[len(cycles) // 2] > seconds:
            break
    result.walls["reference"] = reference.walls
    return result


@dataclass
class Child:
    returncode: int
    stderr: bytes
    wall: float       # seconds from start until the child was reaped
    rss_mb: float     # the child's own peak resident set size
    timed_out: bool


def run_child(argv: list[str], env: dict, timeout: float) -> Child:
    """Run ``argv`` to its end, its stdout discarded.  The child is
    reaped with ``os.wait4``, which gives its own peak RSS (the
    reference children's RSS must not count).  On timeout it is killed
    and waited for."""
    start = time.perf_counter()
    child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.PIPE)
    chunks: list[bytes] = []
    timed_out = False
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(child.stderr, selectors.EVENT_READ)
            while True:
                left = start + timeout - time.perf_counter()
                if left <= 0 or not selector.select(left):
                    timed_out = True
                    child.kill()
                    break
                chunk = os.read(child.stderr.fileno(), 65536)
                if not chunk:
                    break
                chunks.append(chunk)
    except BaseException:
        child.kill()
        raise
    finally:
        child.stderr.close()
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    return Child(child.returncode, b"".join(chunks),
                 time.perf_counter() - start, usage.ru_maxrss / 1024,
                 timed_out)


def _judge(metric, child: Child, out: Path, check, digests) -> list[str]:
    if child.returncode != 0:
        tail = child.stderr.decode(errors="replace").strip()[-300:]
        return [f"exit code {child.returncode}: {tail}"]
    try:
        data_bytes = out.read_bytes()
    except OSError as exc:
        return [f"no report: {exc}"]
    digest = hashlib.sha256(data_bytes).hexdigest()
    if metric in digests:
        if digest != digests[metric]:
            return ["report bytes differ from the first run"]
        return []
    digests[metric] = digest
    try:
        data = json.loads(data_bytes)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    return check(data)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env
