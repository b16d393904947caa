"""Analysis domains: the base class and the bit-vector analyses.

All analyses are forward meet-semilattice problems.  Values descend from an
analysis-specific top during iteration; ``meet`` combines values at join
points and ``leq`` is the precision order (lower = less precise).

Bit-vector analyses (reaching definitions, must-defined) represent sets as
Python int masks over program-wide fact tables.  The interval analysis is
in ``fpmfp.interval``, which ``make_analysis`` imports only for an interval
run.
"""

from __future__ import annotations

import abc
from functools import cached_property
from typing import Callable

from . import EncodedDict, EncodedList, Memo
from .frontend import MiniIrProgram, Node, Procedure, StKind


def _nested(element, scalar_text: Callable[[object], str]) -> str:
    """The ``indent=2`` text of a scalar or a flat list of scalars, as it
    appears one level down, from ``jsontext.scalar_text``.  The view
    builders import that when they first build, so a run that builds no
    view (``compare --format table``) never loads ``jsontext``."""
    if isinstance(element, list):
        return _joined([scalar_text(x) for x in element], "[]").replace(
            "\n", "\n  ")
    return scalar_text(element)


def _joined(items: list[str], brackets: str) -> str:
    """The ``indent=2`` text of a list (``"[]"``) or dict (``"{}"``) whose
    depth-1 item texts are ``items``."""
    if not items:
        return brackets
    return brackets[0] + "\n  " + ",\n  ".join(items) + "\n" + brackets[1]


class Analysis(abc.ABC):
    """One registered data-flow analysis, instantiated per program."""

    name: str
    kind: str  # "bitvector" | "interval"
    is_distributive: bool

    def __init__(self, program: MiniIrProgram) -> None:
        self.program = program
        self._views: dict = {}  # ``to_json``'s views by ``_view_key``

    @abc.abstractmethod
    def top(self):
        """Initial value at non-boundary nodes; neutral element of meet."""

    @abc.abstractmethod
    def meet(self, a, b):
        ...

    @abc.abstractmethod
    def leq(self, a, b) -> bool:
        ...

    @abc.abstractmethod
    def transfer(self, node: Node, value):
        """Statement transfer; call nodes are handled by the solvers."""

    def unrefined(self, low: dict, high: dict) -> list:
        """The keys of ``low``, in its order, whose value is not ``leq``
        the value ``high`` holds for the same key: where a plain solution
        fails to lie below a folded feasible-path one."""
        leq = self.leq
        return [key for key, value in low.items()
                if not leq(value, high[key])]

    def refine(self, edge, source_node: Node, value):
        """Branch-arm tightening along ``edge``; identity by default."""
        return value

    @abc.abstractmethod
    def entry_boundary(self, proc: Procedure):
        """Boundary value for the program entry (and unreachable procedures)."""

    @abc.abstractmethod
    def callee_boundary(self, proc: Procedure, met_callsite_value):
        """Boundary for a called procedure given met call-site values."""

    def to_json(self, value) -> EncodedList | EncodedDict:
        """The value's JSON view: its plain JSON content (a list or dict)
        with ``text``, that content's ``json.dumps(..., indent=2)`` text.

        There is one view per ``_view_key``, kept on the instance, so a
        report built from views holds each distinct value once and the
        value is encoded once per distinct key; the CLI's writer splices
        a view's ``text`` instead of walking it, and the content still
        serializes through ``json.dumps``.  Views are read-only.
        """
        key = self._view_key(value)
        view = self._views.get(key)
        if view is None:
            view = self._views[key] = self._encode(value)
        return view

    @abc.abstractmethod
    def _encode(self, value) -> EncodedList | EncodedDict:
        """A new view of ``value``: content and text built in one pass in
        sorted order, both assembled from cached pieces: a bit set's per
        (byte index, byte value), an interval value's per item."""

    @staticmethod
    def _view_key(value):
        """A hashable key; equal keys imply equal ``_encode`` content.
        Equal values may get different keys (and so two views with the
        same text)."""
        return value

    @abc.abstractmethod
    def format(self, value) -> str:
        ...


# ---------------------------------------------------------------------------
# Bit-vector analyses
# ---------------------------------------------------------------------------

def _set_bits(value: int) -> list[int]:
    """Indices of the set bits of ``value`` (not negative), lowest first."""
    digits = bin(value)[:1:-1]  # lowest bit first, without the "0b"
    find = digits.find
    out = []
    i = find("1")
    while i >= 0:
        out.append(i)
        i = find("1", i + 1)
    return out


class BitvectorAnalysis(Analysis):
    """Set-valued analysis over a fixed program-wide fact table.

    ``union_meet`` selects may (union) or must (intersection) combination.
    """

    kind = "bitvector"
    union_meet: bool

    def __init__(self, program: MiniIrProgram) -> None:
        super().__init__(program)
        self.gen: dict[int, int] = {}
        self.kill: dict[int, int] = {}
        self.full_mask = 0
        self.globals_mask = 0
        self._build_tables()

    @abc.abstractmethod
    def _build_tables(self) -> None:
        ...

    def top(self) -> int:
        return 0 if self.union_meet else self.full_mask

    def meet(self, a: int, b: int) -> int:
        return (a | b) if self.union_meet else (a & b)

    def leq(self, a: int, b: int) -> bool:
        # May: lower = larger set.  Must: lower = smaller set.
        return (a & b) == b if self.union_meet else (a & b) == a

    def transfer(self, node: Node, value: int) -> int:
        return (value & ~self.kill.get(node.id, 0)) | self.gen.get(node.id, 0)

    @abc.abstractmethod
    def _elements(self) -> list:
        """The JSON element of each bit, in bit order."""

    @cached_property
    def _byte_pieces(self) -> Memo:
        """``(elements, text)`` per ``(index, byte)`` of a value's
        little-endian bytes: the JSON elements of the bits ``byte`` sets
        there, and their texts one level down, joined as list items."""
        from .jsontext import scalar_text

        elements = self._elements()
        texts = [_nested(element, scalar_text) for element in elements]

        def piece(key: tuple[int, int]) -> tuple[list, str]:
            index, byte = key
            bits = [8 * index + bit for bit in range(8) if byte >> bit & 1]
            return ([elements[i] for i in bits],
                    ",\n  ".join([texts[i] for i in bits]))

        return Memo(piece)

    def _encode(self, value: int) -> EncodedList:
        """The view of ``value``, assembled a byte at a time from
        ``_byte_pieces``; zero bytes are skipped."""
        pieces = self._byte_pieces
        out = EncodedList()
        texts = []
        data = value.to_bytes((value.bit_length() + 7) // 8, "little")
        for key in enumerate(data):
            if key[1]:
                elements, text = pieces[key]
                out += elements
                texts.append(text)
        out.text = _joined(texts, "[]")
        return out


class ReachingDefinitions(BitvectorAnalysis):
    """Which definition sites may reach a point.

    Facts are ``(variable, node id)`` for every assignment and ``read`` in the
    program, ordered by node id, so bit order is decode order.
    """

    name = "rd"
    union_meet = True
    is_distributive = True

    def _build_tables(self) -> None:
        self.facts: list[tuple[str, int]] = []
        for proc in self.program.procedures:
            cfg = proc.cfg
            for nid, node in cfg.nodes.items():
                st = node.statement
                if st.kind in (StKind.ASSIGN, StKind.READ):
                    self.facts.append((st.var, nid))
        self.facts.sort(key=lambda f: (f[1], f[0]))
        self.fact_bit = {fact: i for i, fact in enumerate(self.facts)}
        self.full_mask = (1 << len(self.facts)) - 1
        var_mask: dict[str, int] = {}
        for (var, nid), i in self.fact_bit.items():
            var_mask[var] = var_mask.get(var, 0) | (1 << i)
        self.var_mask = var_mask
        for (var, nid), i in self.fact_bit.items():
            self.gen[nid] = 1 << i
            self.kill[nid] = var_mask[var]
        for (var, nid), i in self.fact_bit.items():
            if var in self.program.globals:
                self.globals_mask |= 1 << i

    def entry_boundary(self, proc: Procedure) -> int:
        return 0

    def callee_boundary(self, proc: Procedure, met_callsite_value: int) -> int:
        return met_callsite_value & self.globals_mask

    def decode(self, value: int) -> list[tuple[str, int]]:
        facts = self.facts
        return [facts[i] for i in _set_bits(value)]

    def _elements(self) -> list:
        return [[var, nid] for var, nid in self.facts]

    def format(self, value: int) -> str:
        facts = self.decode(value)
        if not facts:
            return "{}"
        return ", ".join(f"{var}@n{nid}" for var, nid in facts)


class MustDefined(BitvectorAnalysis):
    """Which variables are definitely assigned on every path to a point.

    Facts are variable names program-wide.  Calls to unknown procedures
    neither define nor kill.
    """

    name = "must-defined"
    union_meet = False
    is_distributive = True

    def _build_tables(self) -> None:
        names: set[str] = set(self.program.globals)
        for proc in self.program.procedures:
            names.update(proc.params)
            for node in proc.cfg.nodes.values():
                st = node.statement
                names.update(st.defs() | st.uses())
        self.vars = sorted(names)
        self.var_bit = {v: i for i, v in enumerate(self.vars)}
        self.full_mask = (1 << len(self.vars)) - 1
        for proc in self.program.procedures:
            for node in proc.cfg.nodes.values():
                st = node.statement
                if st.kind in (StKind.ASSIGN, StKind.READ):
                    self.gen[node.id] = 1 << self.var_bit[st.var]
        for g in self.program.globals:
            self.globals_mask |= 1 << self.var_bit[g]

    def _params_mask(self, proc: Procedure) -> int:
        mask = 0
        for p in proc.params:
            mask |= 1 << self.var_bit[p]
        return mask

    def entry_boundary(self, proc: Procedure) -> int:
        return self._params_mask(proc)

    def callee_boundary(self, proc: Procedure, met_callsite_value: int) -> int:
        return (met_callsite_value & self.globals_mask) | self._params_mask(proc)

    def decode(self, value: int) -> list[str]:
        names = self.vars
        return [names[i] for i in _set_bits(value)]

    def _elements(self) -> list:
        return self.vars

    def format(self, value: int) -> str:
        names = self.decode(value)
        return "{" + ", ".join(names) + "}" if names else "{}"


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

# The bit-vector analyses by name; ``make_analysis`` also knows "interval".
ANALYSES: dict[str, type[BitvectorAnalysis]] = {
    ReachingDefinitions.name: ReachingDefinitions,
    MustDefined.name: MustDefined,
}


def make_analysis(name: str, program: MiniIrProgram) -> Analysis:
    if name == "interval":
        from .interval import IntervalAnalysis

        return IntervalAnalysis(program)
    try:
        cls = ANALYSES[name]
    except KeyError:
        known = ", ".join(sorted([*ANALYSES, "interval"]))
        raise ValueError(f"unknown analysis '{name}' (known: {known})") from None
    return cls(program)
