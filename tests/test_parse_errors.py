"""Golden of parse-error messages over a fixed corpus of broken programs.

Each case is a ``progen.generate_program`` source with one mutation: a
token dropped, a line duplicated, two lines swapped, an illegal character
injected, or a trailing ``//`` comment with no newline after the closing
brace removed.  Lines are duplicated and swapped among those that open or
close more braces than they close or open, so most cases are errors.  Every third block of cases also has its line ends turned
into CRLF or its indentation and line ends into tabs, so the reported
columns count those characters too.  The golden holds, per case, the
error text (``str(ParseError)`` and the line and column in it) or ``ok``.
"""
from __future__ import annotations

import json
import random
import re
from pathlib import Path

import pytest

from fpmfp.frontend import ParseError, parse_program
from fpmfp.progen import generate_program

GOLDEN = Path(__file__).resolve().parent / "golden" / "parse_errors.json"
CASES = 200
_TOKEN = re.compile(r"\d+|@?[A-Za-z_]\w*|<=|>=|==|!=|&&|\|\||[<>=+\-*(){};:,]")


def _drop_token(rng: random.Random, source: str) -> str:
    spans = [m.span() for m in _TOKEN.finditer(source)]
    start, end = rng.choice(spans)
    return source[:start] + source[end:]


def _unbalanced(lines: list[str]) -> list[int]:
    return [i for i, line in enumerate(lines)
            if line.count("{") != line.count("}")]


def _duplicate_line(rng: random.Random, source: str) -> str:
    lines = source.split("\n")
    i = rng.choice(_unbalanced(lines))
    return "\n".join(lines[:i + 1] + lines[i:])


def _swap_lines(rng: random.Random, source: str) -> str:
    lines = source.split("\n")
    i = rng.choice(_unbalanced(lines))
    j = rng.choice([k for k in range(len(lines)) if k != i])
    lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines)


def _illegal_character(rng: random.Random, source: str) -> str:
    pos = rng.randrange(len(source))
    return source[:pos] + rng.choice('$#"') + source[pos:]


def _trailing_comment(rng: random.Random, source: str) -> str:
    body = source.rstrip()
    return body[:-1] + "// " + rng.choice(("end", "x = 1;", "}"))


MUTATIONS = (_drop_token, _duplicate_line, _swap_lines, _illegal_character,
             _trailing_comment)


def _line_ends(variant: int, source: str) -> str:
    if variant == 1:
        return source.replace("\n", "\r\n")
    if variant == 2:
        return source.replace("  ", "\t").replace("\n", "\t\n")
    return source


# Hand-written lexer edge cases: characters that only start a token, the
# end of input after whitespace or a comment, and non-ASCII digits.
EDGE_CASES = {
    "empty": "",
    "blank": " \n\t\r\n ",
    "comment-only": "// nothing",
    "bang": "proc main() { if (x ! 1) { skip; } }",
    "ampersand": "proc main() { if (x & y) { skip; } }",
    "bar": "proc main() { if (x | y) { skip; } }",
    "slash": "proc main() { x = 4 / 2; }",
    "at-digit": "proc main() { @1 = 2; }",
    "dot": "proc main() { x = 1.5; }",
    "eof-after-spaces": "proc main() { x = 1;   \n\n  ",
    "eof-after-comment": "proc main() {\n  x = 1; // open",
    "arabic-digits": "proc main() { x = \u0663\u0664; print x; }",
    "superscript": "proc main() { x = \u00b2; }",
    "non-ascii-name": "proc main() { \u00e9 = 1; }",
    "vertical-tab": "proc main() {\x0b x = ; }",
    "form-feed-line": "proc main() {\x0c\n  x = ; }",
}


def corpus() -> list[tuple[str, str]]:
    """(name, source) for every case, the same on every run."""
    cases = [(f"edge-{name}", source) for name, source in EDGE_CASES.items()]
    for seed in range(CASES):
        rng = random.Random(f"parse-errors-{seed}")
        mutate = MUTATIONS[seed % len(MUTATIONS)]
        variant = seed // len(MUTATIONS) % 3
        source = _line_ends(variant, generate_program(seed, acyclic=False))
        cases.append((f"{seed:03d}-{mutate.__name__[1:]}-{variant}",
                      mutate(rng, source)))
    return cases


def outcome(source: str) -> str:
    try:
        parse_program(source)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return "ok"


def test_messages_match_the_golden():
    got = {name: outcome(source) for name, source in corpus()}
    assert got == json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_is_mostly_parse_errors():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(expected) == CASES + len(EDGE_CASES)
    errors = [text for text in expected.values()
              if text.startswith("ParseError: ")]
    assert len(errors) >= CASES * 9 // 10
    assert any("unexpected character" in text for text in errors)


@pytest.mark.parametrize("source, line, col", [
    ("extern f;\nglobal g;\nproc f() { g = 1; }\n"
     "proc main() { g = 0; f(); print g; }\n", 3, 6),
    ("global g;\nproc f() { g = 1; }\n"
     "proc main() { g = 0; f(); print g; }\nextern  f;\n", 4, 9),
])
def test_a_defined_extern_is_reported_at_the_later_declaration(
        source, line, col):
    with pytest.raises(ParseError) as exc:
        parse_program(source)
    assert str(exc.value) == (
        "procedure 'f' is both defined and declared extern "
        f"(line {line}, col {col})")


def test_repeated_extern_declarations_are_accepted():
    program = parse_program("extern f;\nextern f;\nproc main() { f(); }\n")
    assert program.externs == frozenset({"f"})
