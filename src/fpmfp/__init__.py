"""Feasible-path data-flow analysis over a small imperative IR.

The package computes the classic maximum-fixed-point (MFP) solution of a
data-flow problem and a feasible-path refinement (FPMFP) that excludes values
flowing only along infeasible control-flow paths.  Infeasibility is established
by detecting minimal infeasible path segments (MIPS) from branch correlations,
and any registered analysis is lifted so that its values are blocked at the end
edge of a segment they can only have traversed.

The few names the CLI shares with the layers live here, so that it can use
them before it loads any layer: the solvers' error base class, and the value
views an analysis hands the report writer.
"""

from __future__ import annotations

from collections.abc import Callable

__version__ = "0.1.0"

__all__ = ["EncodedDict", "EncodedList", "Memo", "SolverError",
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
