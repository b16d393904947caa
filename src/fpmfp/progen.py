"""Seeded random program generator for property checks.

Programs are assembled from small fragments chosen by a seeded RNG:
straight-line assignments, reads, prints, and correlated conditional
pairs over a shared selector variable — the shape that produces
infeasible path segments.  Loop bodies are restricted to counted
``x = x + c`` updates so widening behaves identically under every
optimization setting.  Multi-procedure programs add globals, call
chains, guarded self and mutual recursion, loops that update globals and
extern calls.  Everything is a pure function of the seed.
"""
from __future__ import annotations

import random

_VALUE_VARS = ("v0", "v1", "v2", "v3")
_SELECTORS = ("s0", "s1")
# Correlated pairs in one generated program: one up to this many.
_MAX_PAIRS = 3


def _indent(lines: list[str]) -> list[str]:
    return ["  " + line for line in lines]


class _Builder:
    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.lines: list[str] = []
        self.defined: set[str] = set()

    def emit(self, line: str) -> None:
        self.lines.append(line)

    def define(self, var: str) -> None:
        self.defined.add(var)

    def any_defined(self) -> str | None:
        if not self.defined:
            return None
        return self.rng.choice(sorted(self.defined))

    def filler(self) -> None:
        """One statement that touches no selector."""
        rng = self.rng
        var = rng.choice(_VALUE_VARS)
        roll = rng.random()
        source = self.any_defined()
        if roll < 0.4 or source is None:
            self.emit(f"{var} = {rng.randint(-3, 9)};")
            self.define(var)
        elif roll < 0.7:
            self.emit(f"{var} = {source} + {rng.randint(-2, 4)};")
            self.define(var)
        else:
            self.emit(f"print {source};")


def _correlated_pair(b: _Builder, selector: str) -> None:
    """Two tests over one selector with an assignment between them."""
    rng = b.rng
    key = rng.randint(0, 2)
    var = rng.choice(_VALUE_VARS)
    c1, c2 = rng.sample(range(0, 7), 2)
    shape = rng.randrange(3)
    if shape == 0:
        # Both arms pin the variable; a later test on the variable closes
        # both routes (two segments sharing their end).
        b.emit(f"if ({selector} == {key}) {{ {var} = {c1}; }} "
               f"else {{ {var} = {c2}; }}")
        b.define(var)
        probe = rng.choice([c for c in range(0, 7) if c not in (c1, c2)]
                           + [c1])
        body = f"print {var};"
        b.emit(f"if ({var} == {probe}) {{ {body} }}")
    elif shape == 1:
        # One arm defines; the same test later guards the use.
        b.emit(f"if ({selector} == {key}) {{ {var} = {c1}; }}")
        b.define(var)
        b.emit(f"if ({selector} == {key}) {{ print {var}; }}")
    else:
        # Sign-style split over the selector, like the fig4 fixture.
        b.emit(f"if ({selector} >= {key}) {{ {var} = {c1}; }} "
               f"else {{ {var} = {c2}; }}")
        b.define(var)
        b.emit(f"if ({selector} < {key}) {{ print {var}; }}")


def _switch_pair(b: _Builder, selector: str) -> None:
    rng = b.rng
    var = rng.choice(_VALUE_VARS)
    k1, k2 = rng.sample(range(0, 4), 2)
    c = rng.randint(0, 5)
    b.emit(f"switch ({selector}) {{ case {k1}: {{ {var} = {c}; }} "
           f"case {k2}: {{ {var} = {c}; }} default: {{ }} }}")
    b.define(var)
    b.emit(f"if ({selector} > {max(k1, k2)}) {{ print {var}; }}")


def _maybe_uninit(b: _Builder, selector: str) -> None:
    rng = b.rng
    key = rng.randint(0, 2)
    fresh = f"u{rng.randint(0, 2)}"
    b.emit(f"if ({selector} == {key}) {{ {fresh} = 1; }}")
    b.emit(f"if ({selector} == {key}) {{ print {fresh}; }}")
    b.define(fresh)


def _loop(b: _Builder) -> None:
    rng = b.rng
    var = f"i{rng.randint(0, 1)}"
    bound = rng.randint(2, 6)
    b.emit(f"{var} = 0;")
    b.emit(f"while ({var} < {bound}) {{ {var} = {var} + 1; }}")
    b.define(var)


def generate_program(seed: int, *, acyclic: bool = True) -> str:
    """One deterministic random program as MiniIR source text."""
    rng = random.Random(f"progen-{seed}-{acyclic}-{_MAX_PAIRS}")
    b = _Builder(rng)
    selectors = list(_SELECTORS[: rng.randint(1, 2)])
    for sel in selectors:
        b.emit(f"read {sel};")
        b.define(sel)
    b.filler()
    n_pairs = rng.randint(1, _MAX_PAIRS)
    placed_loop = False
    for _ in range(n_pairs):
        sel = rng.choice(selectors)
        roll = rng.random()
        if roll < 0.5:
            _correlated_pair(b, sel)
        elif roll < 0.7:
            _switch_pair(b, sel)
        else:
            _maybe_uninit(b, sel)
        if rng.random() < 0.5:
            b.filler()
        if not acyclic and not placed_loop and rng.random() < 0.4:
            _loop(b)
            placed_loop = True
    use = b.any_defined()
    if use is not None:
        b.emit(f"print {use};")
    body = "\n".join(_indent(b.lines))
    return f"proc main() {{\n{body}\n}}\n"


def check_programs(seed: int, count: int, *,
                   acyclic: bool = True) -> list[tuple[str, str]]:
    """The named program suite for one seed: [(name, source), ...]."""
    return [
        (f"gen-{seed}-{i}", generate_program(seed + i, acyclic=acyclic))
        for i in range(count)
    ]


_GLOBALS = ("g0", "g1")


def _global_update(b: _Builder) -> None:
    rng = b.rng
    g = rng.choice(_GLOBALS)
    if rng.random() < 0.5:
        b.emit(f"{g} = {rng.randint(0, 5)};")
    else:
        b.emit(f"{g} = {g} + {rng.randint(1, 3)};")


def _global_loop(b: _Builder) -> None:
    """A counted loop whose body bumps a global."""
    rng = b.rng
    g = rng.choice(_GLOBALS)
    bound = rng.randint(2, 5)
    b.emit("k = 0;")
    b.emit(f"while (k < {bound}) {{ {g} = {g} + {rng.randint(1, 2)}; "
           f"k = k + 1; }}")
    b.define("k")


def _guarded_call(b: _Builder, callee: str) -> None:
    """A recursive call under a test, so some path returns."""
    rng = b.rng
    if rng.random() < 0.5:
        g = rng.choice(_GLOBALS)
        b.emit(f"if ({g} > {rng.randint(0, 3)}) {{ {g} = {g} - 1; "
               f"{callee}(); }}")
    else:
        b.emit(f"if ({rng.choice(_SELECTORS)} == {rng.randint(0, 2)}) "
               f"{{ {callee}(); }}")


def generate_multi_program(seed: int) -> str:
    """One deterministic program of 2-6 procedures sharing two globals.

    ``main`` is first; procedure i calls i+1 (a call chain), may call a
    later procedure too, may call itself or an earlier non-entry
    procedure under a test (self and mutual recursion), may run a
    counted loop over a global and may call the extern ``lib``.  Between
    these sit the single-procedure fragments, over local selectors.
    """
    rng = random.Random(f"progen-multi-{seed}")
    names = ["main"] + [f"p{i}" for i in range(1, rng.randint(2, 6))]
    procs: list[str] = []
    for i, name in enumerate(names):
        b = _Builder(rng)
        if i == 0:
            for g in _GLOBALS:
                b.emit(f"{g} = {rng.randint(0, 3)};")
        for sel in _SELECTORS:
            b.emit(f"read {sel};")
            b.define(sel)
        actions = ["pair", "pair", "global"]
        if i + 1 < len(names):
            actions.append(f"call {names[i + 1]}")
            if i + 2 < len(names) and rng.random() < 0.4:
                actions.append(f"call {rng.choice(names[i + 2:])}")
        if i > 0 and rng.random() < 0.25:
            actions.append(f"recurse {name}")
        if i > 1 and rng.random() < 0.3:
            actions.append(f"recurse {rng.choice(names[1:i])}")
        if rng.random() < 0.4:
            actions.append("loop")
        if rng.random() < 0.2:
            actions.append("extern")
        rng.shuffle(actions)
        for action in actions:
            if action == "pair":
                _correlated_pair(b, rng.choice(_SELECTORS))
            elif action == "global":
                _global_update(b)
            elif action == "loop":
                _global_loop(b)
            elif action == "extern":
                b.emit("lib();")
            elif action.startswith("call "):
                b.emit(f"{action[5:]}();")
            else:
                _guarded_call(b, action[8:])
            if rng.random() < 0.4:
                b.filler()
        b.emit(f"print {rng.choice(_GLOBALS)};")
        body = "\n".join(_indent(b.lines))
        procs.append(f"proc {name}() {{\n{body}\n}}\n")
    head = "global g0; global g1; extern lib;\n"
    return head + "\n".join(procs)

