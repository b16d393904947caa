"""The JSON text of one scalar, as ``json.dumps`` writes it, without
importing ``json``: the report writer and the value views are all that
build JSON, and scalars are all they need encoded.
"""
from __future__ import annotations

# The two-character escapes ``json.dumps`` writes; any other character
# outside printable ASCII becomes ``\\uXXXX``, one per UTF-16 unit.
_SHORT = {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n",
          "\r": "\\r", "\t": "\\t"}
_FLOATS = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _escaped(char: str) -> str:
    short = _SHORT.get(char)
    if short is not None:
        return short
    code = ord(char)
    if 0x20 <= code < 0x7F:
        return char
    if code > 0xFFFF:
        code -= 0x10000
        return "\\u%04x\\u%04x" % (0xD800 | code >> 10, 0xDC00 | code & 0x3FF)
    return "\\u%04x" % code


def scalar_text(value) -> str:
    """``json.dumps(value)`` for a value of exactly ``str``, ``int``,
    ``float``, ``bool`` or ``None``; any other type raises
    ``TypeError``."""
    cls = type(value)
    if cls is str:
        if value.isascii() and value.isprintable():
            return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
        return '"' + "".join(map(_escaped, value)) + '"'
    if cls is float:
        text = float.__repr__(value)
        return _FLOATS.get(text, text)
    if cls is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    return int.__repr__(value)
