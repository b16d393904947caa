"""What the subcommand modules share: reading a program, and writing a
report atomically, JSON reports byte-identical to ``json.dumps``.

Every subcommand loads this module, and with it ``json``; ``--help`` and
usage errors do not.
"""
from __future__ import annotations

import contextlib
import json
import os
import sys
from pathlib import Path

from . import EncodedDict, EncodedList, Memo, _Failure, _info


def _read_source(path) -> str:
    """The text of a UTF-8 source file; any failure is a ``_Failure``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _Failure(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise _Failure(f"cannot read {path}: not UTF-8 text "
                       f"(byte {exc.start})") from exc


def _load_program(path: str):
    from .frontend import (
        ParseError, UnreachableNode, UnresolvedCall, parse_program)

    try:
        program = parse_program(_read_source(path))
    except (ParseError, UnresolvedCall, UnreachableNode) as exc:
        raise _Failure(f"{path}: {exc}") from exc
    _info("parsed %s: %d procedure(s)", path, len(program.procedures))
    return program


def _json_text(payload) -> str:
    """What ``json.dumps`` writes with ``indent=2`` and ``sort_keys=True``,
    plus a newline.

    The same bytes, appended as pieces to one flat list and joined once.
    A value view from ``Analysis.to_json`` is not walked: its ``text``
    is spliced in, re-indented once per depth it occurs at, so a report
    whose rows share views costs time in its distinct content.  It takes
    exactly what reports hold, each value dispatched on its exact type:
    ``dict`` with ``str`` keys, ``list``, ``str``, ``int``, ``float``,
    ``bool``, ``None`` and the two view types; any other raises
    ``TypeError``.  A dict item's separator, quoted key and ``": "`` are
    joined once per (key, depth, first item), and only then is the key
    checked: one not exactly a ``str`` raises, unless it equals (as a
    ``str`` subclass can) a key already joined there, whose text it reuses.
    """
    pieces: list[str] = []
    append = pieces.append
    spliced: dict[tuple[int, int], str] = {}
    quoted = Memo(json.dumps)
    levels = Memo(_Level)

    def encode(obj, depth: int) -> None:
        cls = type(obj)
        if cls is str:
            append(quoted[obj])
            return
        if cls is int:
            append(int.__repr__(obj))
            return
        if cls is EncodedDict or cls is EncodedList:
            text = spliced.get((id(obj), depth))
            if text is None:
                text = spliced[id(obj), depth] = obj.text.replace(
                    "\n", "\n" + "  " * depth)
            append(text)
            return
        if cls is not dict and cls is not list:
            if cls is float:
                append(json.dumps(obj))
            elif cls is bool:
                append("true" if obj else "false")
            elif obj is None:
                append("null")
            else:
                raise TypeError(f"a report holds no {cls.__name__}")
            return
        if not obj:
            append("{}" if cls is dict else "[]")
            return
        level = levels[depth]
        if cls is dict:
            heads = level.first
            for key, value in sorted(obj.items()):
                append(heads.get(key) or level.head(key, heads))
                encode(value, depth + 1)
                heads = level.rest
            append(level.close_dict)
        else:
            sep = level.open_list
            for item in obj:
                append(sep)
                encode(item, depth + 1)
                sep = level.comma
            append(level.close_list)

    encode(payload, 0)
    append("\n")
    return "".join(pieces)


class _Level:
    """The separators of a list or dict at one depth of ``_json_text``,
    and its dict-item heads: ``first`` for the first item, ``rest`` for
    the others."""

    def __init__(self, depth: int) -> None:
        inner = "\n" + "  " * (depth + 1)
        self.open_list = "[" + inner
        self.open_dict = "{" + inner
        self.comma = "," + inner
        self.close_list = "\n" + "  " * depth + "]"
        self.close_dict = "\n" + "  " * depth + "}"
        self.first: dict[str, str] = {}
        self.rest: dict[str, str] = {}

    def head(self, key, heads: dict[str, str]) -> str:
        """The text before ``key``'s value, kept in ``heads``, which is
        ``first`` or ``rest``."""
        if type(key) is not str:
            raise TypeError(f"a report key is a str, not a "
                            f"{type(key).__name__}")
        sep = self.open_dict if heads is self.first else self.comma
        text = heads[key] = sep + json.dumps(key) + ": "
        return text


def _write_text(text: str, path: str | None) -> None:
    """Write to stdout, or atomically replace ``path``.

    Destinations that exist but are not regular files (devices, FIFOs)
    are written through directly; replacing them would be destructive.
    """
    if path is None:
        sys.stdout.write(text)
        return
    dest = Path(path)
    try:
        if dest.exists() and not dest.is_file():
            dest.write_text(text, encoding="utf-8")
            return
        tmp = dest.with_name(f"{dest.name}.tmp{os.getpid()}")
        try:
            tmp.write_text(text, encoding="utf-8")
            os.replace(tmp, dest)
        except OSError:
            with contextlib.suppress(OSError):
                tmp.unlink()
            raise
    except OSError as exc:
        raise _Failure(f"cannot write {path}: {exc.strerror or exc}") from exc
    _info("wrote %s", dest)
