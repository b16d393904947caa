"""What the subcommand modules share: reading a program, and writing a
report atomically.

A JSON report is never built as one string: ``_write_json`` streams its
payload to the destination in chunks, and the bytes are those of
``json.dumps``.  No run imports ``json``: each scalar's text comes from
``jsontext.scalar_text``, imported when a report is first streamed.
"""
from __future__ import annotations

import contextlib
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


# Reports reach their destination in chunks of about this many
# characters.  A chunk is joined and encoded in blocks that malloc reuses;
# at 128 KiB glibc maps each block afresh, and each of its pages costs a
# fault on first touch.
_CHUNK = 32768


def _stream_json(payload, write) -> None:
    """Hand ``write``, in chunks, what ``json.dumps`` writes with
    ``indent=2`` and ``sort_keys=True``, plus a newline.

    The pieces of the text are appended to a list, joined and written
    once they hold ``_CHUNK`` characters: each chunk is written after the
    list or dict item that filled it, so it exceeds ``_CHUNK`` by at most
    one piece and the separators around it.  A value view from
    ``Analysis.to_json`` is not walked: its ``text`` is one piece,
    re-indented once per depth it occurs at and kept for the rest of the
    report, so a report whose rows share views costs time in its distinct
    content.  It takes exactly what reports hold, each value dispatched on
    its exact type: ``dict`` with ``str`` keys, ``list``, ``str``,
    ``int``, ``float``, ``bool``, ``None`` and the two view types; any
    other raises ``TypeError``, with the chunks before it written.  A dict
    item's separator, quoted key and ``": "`` are joined once per (key,
    depth, first item), and only then is the key checked: one not exactly
    a ``str`` raises, unless it equals (as a ``str`` subclass can) a key
    already joined there, whose text it reuses.
    """
    from .jsontext import scalar_text

    pieces: list[str] = []
    append = pieces.append
    spliced: dict[tuple[int, int], str] = {}
    quoted = Memo(scalar_text)
    levels = Memo(_Level)
    room = _CHUNK  # characters the pieces may still take

    def flush() -> None:
        nonlocal room
        write("".join(pieces))
        pieces.clear()
        room = _CHUNK

    def encode(obj, depth: int) -> None:
        nonlocal room
        cls = type(obj)
        if cls is str:
            text = quoted[obj]
        elif cls is int:
            text = int.__repr__(obj)
        elif cls is EncodedDict or cls is EncodedList:
            text = spliced.get((id(obj), depth))
            if text is None:
                text = spliced[id(obj), depth] = obj.text.replace(
                    "\n", "\n" + "  " * depth)
        elif cls is not dict and cls is not list:
            if cls is float:
                text = scalar_text(obj)
            elif cls is bool:
                text = "true" if obj else "false"
            elif obj is None:
                text = "null"
            else:
                raise TypeError(f"a report holds no {cls.__name__}")
        elif not obj:
            text = "{}" if cls is dict else "[]"
        else:
            level = levels[depth]
            if cls is dict:
                heads = level.first
                for key, value in sorted(obj.items()):
                    head = heads.get(key) or level.head(key, heads, quoted)
                    append(head)
                    room -= len(head)
                    encode(value, depth + 1)
                    heads = level.rest
                    if room < 0:
                        flush()
                text = level.close_dict
            else:
                sep = level.open_list
                for item in obj:
                    append(sep)
                    room -= len(sep)
                    encode(item, depth + 1)
                    sep = level.comma
                    if room < 0:
                        flush()
                text = level.close_list
        append(text)
        room -= len(text)

    encode(payload, 0)
    append("\n")
    flush()


class _Level:
    """The separators of a list or dict at one depth of ``_stream_json``,
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

    def head(self, key, heads: dict[str, str], quoted: Memo) -> str:
        """The text before ``key``'s value, kept in ``heads``, which is
        ``first`` or ``rest``; ``quoted`` holds the keys' texts."""
        if type(key) is not str:
            raise TypeError(f"a report key is a str, not a "
                            f"{type(key).__name__}")
        sep = self.open_dict if heads is self.first else self.comma
        text = heads[key] = sep + quoted[key] + ": "
        return text


def _write_json(payload, path: str | None) -> None:
    """Write ``payload``'s JSON report to stdout, or atomically to
    ``path``."""
    with _destination(path) as write:
        _stream_json(payload, write)


def _write_text(text: str, path: str | None) -> None:
    """Write ``text`` to stdout, or atomically to ``path``."""
    with _destination(path) as write:
        write(text)


@contextlib.contextmanager
def _destination(path: str | None):
    """The ``write`` of stdout, or of a new text file that atomically
    replaces ``path`` when the ``with`` block ends without an error.

    The file is a temporary one beside ``path``; any error removes it and
    leaves ``path`` as it was.  A destination that exists but is not a
    regular file (a device, a FIFO) is written through directly:
    replacing it would be destructive.  An ``OSError`` of the file
    becomes a ``_Failure``.  So does a stdout whose reader has gone (a
    closed pipe); stdout is then pointed at the null device, as Python's
    ``signal`` documentation advises, so that the flush at interpreter
    exit does not fail again.
    """
    if path is None:
        try:
            yield sys.stdout.write
            sys.stdout.flush()
        except BrokenPipeError as exc:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise _Failure(
                f"cannot write <stdout>: {exc.strerror}") from exc
        return
    dest = Path(path)
    try:
        if dest.exists() and not dest.is_file():
            with dest.open("w", encoding="utf-8") as out:
                yield out.write
            return
        tmp = dest.with_name(f"{dest.name}.tmp{os.getpid()}")
        try:
            with tmp.open("w", encoding="utf-8") as out:
                yield out.write
            os.replace(tmp, dest)
        except BaseException:
            with contextlib.suppress(OSError):
                tmp.unlink()
            raise
    except OSError as exc:
        raise _Failure(f"cannot write {path}: {exc.strerror or exc}") from exc
    _info("wrote %s", dest)
