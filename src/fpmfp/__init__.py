"""Feasible-path data-flow analysis over a small imperative IR.

The package computes the classic maximum-fixed-point (MFP) solution of a
data-flow problem and a feasible-path refinement (FPMFP) that excludes values
flowing only along infeasible control-flow paths.  Infeasibility is established
by detecting minimal infeasible path segments (MIPS) from branch correlations,
and any registered analysis is lifted so that its values are blocked at the end
edge of a segment they can only have traversed.

The few names the CLI shares with the layers live here, so that it can use
them before it loads any layer: the solvers' error base class, and the value
views an analysis hands the report writer.  So do the names the CLI entry
(``fpmfp.cli``) shares with its subcommand modules (``fpmfp.cmd_*``): the
report schema, the CLI's analysis flags, its two error classes and its
``FPMFP_LOG`` switch.  A subcommand module imports them from here, never
from ``fpmfp.cli``: under ``python -m fpmfp.cli`` the entry runs as
``__main__``, and importing ``fpmfp.cli`` would compile it a second time.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable

__version__ = "0.1.0"

__all__ = ["SCHEMA", "EncodedDict", "EncodedList", "Memo", "SolverError",
           "__version__"]


class SolverError(RuntimeError):
    """A solver gave up on its input: a step, round or pair budget ran
    out.  The CLI reports it and exits 1."""


class EncodedList(list):
    """A read-only ``to_json`` view whose ``text`` attribute is its own
    ``json.dumps(view, indent=2)``, built with the content."""

    __slots__ = ("text",)


class EncodedDict(dict):
    """The dict form of ``EncodedList``."""

    __slots__ = ("text",)


class Memo(dict):
    """``memo[key]`` is ``make(key)``, made once per key."""

    def __init__(self, make: Callable) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key):
        made = self[key] = self.make(key)
        return made


# ---------------------------------------------------------------------------
# Shared by the CLI entry and its subcommand modules
# ---------------------------------------------------------------------------

SCHEMA = 1

# CLI analysis names; ``uninit`` is the alarm-facing alias of must-defined.
_ANALYSIS_FOR_FLAG = {"rd": "rd", "uninit": "must-defined",
                      "interval": "interval"}
_LOG_LEVELS = ("error", "info", "debug")
# Whether ``_info`` lines are written: FPMFP_LOG is info or debug.
_log_info = False


class _UsageError(Exception):
    """Bad flags or environment; exits 64 with help text."""


class _Failure(Exception):
    """Input or analysis error; exits 1."""


def _setup_logging() -> None:
    global _log_info
    raw = os.environ.get("FPMFP_LOG", "error")
    if raw not in _LOG_LEVELS:
        raise _UsageError(
            f"FPMFP_LOG must be one of error, info, debug (got {raw!r})")
    _log_info = raw != "error"


def _info(fmt: str, *args) -> None:
    """Write ``fpmfp: INFO: <fmt % args>`` to stderr if info is on."""
    if _log_info:
        sys.stderr.write(f"fpmfp: INFO: {fmt % args}\n")
