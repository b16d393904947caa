"""Golden of the CLI's reports: one exit code and two hashes per run.

Each entry is the exit code of ``cli.main`` run in process and the
sha256 of what it wrote to stdout and to stderr.  The runs are
``analyze`` (rd, uninit and interval, modes mfp and fpmfp) and
``compare --no-timing`` (the same three analyses, JSON and
``--format table``) over the fixtures, ``generate_program`` seeds 0-9
acyclic and with loops, ``generate_multi_program`` seeds 0-9, 135, 141,
142 and 170 (whose interval ``compare`` finds a precision violation),
and the benchmark's ``local_large(1, 50, 200)`` and ``call_chain(1, 40)``,
plus one ``oracle-check --fixtures`` run over the fixtures and
``oracle-check --random 50 --jobs 1`` at seeds 0 and 1.  Every fixture
also gets a ``dump-dot`` run and a ``detect-mips --dot`` run, whose
entry adds the hash of the DOT file; its JSON report, pinned in
``detect_fingerprints.json``, goes to the null device.  Generated
programs are written to a temporary directory; no report names its path.

Run this file as a script to rewrite the golden.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

from fpmfp.cli import main
from fpmfp.progen import generate_multi_program, generate_program

from conftest import FIXTURES, perfbench_workloads

GOLDEN = Path(__file__).resolve().parent / "golden" / "report_fingerprints.json"
ANALYSES = ("rd", "uninit", "interval")


def programs(tmp: Path) -> list[tuple[str, str]]:
    """(name, path) for every program, generated ones written to ``tmp``."""
    cases = [(f"fixture-{p.stem}", str(p))
             for p in sorted(FIXTURES.glob("*.mir"))]
    sources = []
    for acyclic in (True, False):
        sources += [(f"gen-{seed}-{'acyclic' if acyclic else 'loops'}",
                     generate_program(seed, acyclic=acyclic))
                    for seed in range(10)]
    sources += [(f"multi-{seed}", generate_multi_program(seed))
                for seed in [*range(10), 135, 141, 142, 170]]
    workloads = perfbench_workloads()
    sources += [("local-large", workloads.local_large(1, 50, 200).source),
                ("call-chain", workloads.call_chain(1, 40).source)]
    for name, source in sources:
        path = tmp / f"{name}.mir"
        path.write_text(source, encoding="utf-8")
        cases.append((name, str(path)))
    return cases


def invocations() -> list[list[str]]:
    """Every argv after ``--program FILE``."""
    out = [["analyze", "--analysis", a, "--mode", m]
           for a in ANALYSES for m in ("mfp", "fpmfp")]
    out += [["compare", "--no-timing", "--analysis", a, "--format", f]
            for a in ANALYSES for f in ("json", "table")]
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fingerprint(argv: list[str], tmp: str) -> list:
    """Exit code and stdout and stderr hashes of ``cli.main(argv)``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert tmp not in stdout.getvalue() + stderr.getvalue()
    return [code, _sha(stdout.getvalue()), _sha(stderr.getvalue())]


def fingerprints() -> dict[str, list]:
    out: dict[str, list] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, path in programs(Path(tmp)):
            for argv in invocations():
                out[f"{name} {' '.join(argv)}"] = _fingerprint(
                    [argv[0], "--program", path, *argv[1:]], tmp)
        out["oracle-check --fixtures fixtures"] = _fingerprint(
            ["oracle-check", "--fixtures", str(FIXTURES)], tmp)
        for seed in ("0", "1"):
            out[f"oracle-check --random 50 --jobs 1 --seed {seed}"] = \
                _fingerprint(["oracle-check", "--random", "50", "--jobs", "1",
                              "--seed", seed], tmp)
        dot = Path(tmp, "overlay.dot")
        for p in sorted(FIXTURES.glob("*.mir")):
            out[f"fixture-{p.stem} dump-dot"] = _fingerprint(
                ["dump-dot", "--program", str(p)], tmp)
            out[f"fixture-{p.stem} detect-mips --dot"] = _fingerprint(
                ["detect-mips", "--program", str(p), "--output", os.devnull,
                 "--dot", str(dot)], tmp) + [_sha(dot.read_text("utf-8"))]
    return out


def test_reports_match_the_golden():
    assert fingerprints() == json.loads(GOLDEN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(fingerprints(), indent=1, sort_keys=True)
                      + "\n", encoding="utf-8")
