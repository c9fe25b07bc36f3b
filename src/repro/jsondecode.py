"""``repro.jsondecode`` — the one JSON decoder of the service.

:func:`loads` decodes every JSON text the service reads: the client's
response bodies, the server's request bodies, WAL records, snapshots and
rule files.  It returns exactly what ``json.loads`` returns — the same
types, the same float bits, key order and duplicate-key winner — and
raises one :class:`DecodeError` for every byte string it will not decode.

orjson answers wherever it is exact, and ``json.loads`` decodes the rest:

* **Integers.**  orjson turns an integer outside the 64-bit range into a
  float, so it only sees bytes that hold no run of 19 or more ASCII digits
  (every integer of up to 18 digits fits in 64 bits).  The same rule keeps
  it off floats with 19 or more significant digits.
* **Inputs orjson refuses.**  NaN, ±Infinity, a number that overflows a
  double (``1e400``), a lone surrogate, a UTF-8 BOM: ``json.loads`` is the
  only path that accepts them.  UTF-16 and UTF-32 texts are re-encoded as
  UTF-8 first, as ``json.loads`` decodes them.
* **Depth.**  A text whose arrays and objects nest deeper than
  :data:`MAX_DEPTH` is refused whichever parser would read it: orjson
  recurses without a limit (far enough down, it overflows the C stack),
  and ``json.loads`` stops wherever the interpreter's recursion limit
  happens to fall.  Depth is measured before either parser runs, on the
  text's brackets outside its strings.

This module imports nothing from :mod:`repro`, so the client stays free of
the server and of numpy.
"""

from __future__ import annotations

import json
from itertools import accumulate, count
from operator import sub
from typing import Any, Optional

import orjson

__all__ = ["DecodeError", "MAX_DEPTH", "loads"]

#: The deepest nesting of arrays and objects a text may have: ``[]`` is 1.
MAX_DEPTH = 512

#: Levels peeled off one ``bytes.replace`` at a time before the rest of a
#: deep text is counted in one pass (a pass per level would be quadratic).
_PEELS = 8
#: 2**63 has 19 digits: a shorter run is an integer orjson keeps exact.
_LONG_DIGITS = b"0" * 19
#: The marks the checks read: a digit becomes "0", a brace a bracket, a
#: quote stays a quote, and every other byte is dropped.
_MARKS = bytes.maketrans(b"0123456789{}", b"0000000000[]")
_NOT_MARKS = bytes(sorted(set(range(256)) - set(b'0123456789[]{}"')))
#: Digits only: a digit becomes "0", every other byte a space.
_DIGITS = bytes(0x30 if 0x30 <= b <= 0x39 else 0x20 for b in range(256))


class DecodeError(ValueError):
    """Bytes that are not one JSON text :func:`loads` decodes: not JSON,
    not in a Unicode encoding JSON allows, or nested too deep."""


def loads(data: bytes) -> Any:
    """The JSON value ``data`` holds — what ``json.loads(data)`` returns.

    Raises :class:`DecodeError` where ``json.loads`` raises
    ``JSONDecodeError`` or ``UnicodeDecodeError``, and for a text nested
    deeper than :data:`MAX_DEPTH`.
    """
    utf8 = data
    encoding = json.detect_encoding(data)
    if encoding != "utf-8":
        try:
            text = data.decode(encoding, "surrogatepass")
        except UnicodeDecodeError as exc:
            raise DecodeError(str(exc)) from exc
        utf8 = text.encode("utf-8", "surrogatepass")
    if _orjson_is_exact(utf8):
        try:
            return orjson.loads(utf8)
        except orjson.JSONDecodeError:
            pass  # not JSON, or JSON only json.loads accepts
    try:
        return json.loads(data)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise DecodeError(str(exc)) from exc
    except RecursionError as exc:  # brackets that never pair, or a deep caller
        raise DecodeError(f"nested too deep to decode ({exc})") from exc


def _orjson_is_exact(data: bytes) -> bool:
    """Whether orjson reads the UTF-8 text ``data`` as ``json.loads``
    does.  Raises :class:`DecodeError` when it nests deeper than
    :data:`MAX_DEPTH`; ``False`` when its brackets or quotes do not pair,
    so ``json.loads`` names the fault."""
    unescaped = data
    if b"\\" in data:  # one memchr: most texts hold no escape at all
        # an escaped backslash or quote ends no string; dropping it can
        # only join digit runs, which errs towards json.loads
        unescaped = data.replace(b"\\\\", b"").replace(b'\\"', b"")
    marks = unescaped.translate(_MARKS, _NOT_MARKS)
    if marks.count(b"[") > MAX_DEPTH:
        depth = _depth(marks.translate(None, b"0"))
        if depth is None:
            return False
        if depth > MAX_DEPTH:
            raise DecodeError(f"arrays and objects nest deeper than {MAX_DEPTH} levels")
    # dropping bytes joins digit runs, so a long run here may be a false
    # alarm: the bytes themselves decide
    return _LONG_DIGITS not in marks or _LONG_DIGITS not in data.translate(_DIGITS)


def _depth(marks: bytes) -> Optional[int]:
    """How deep the brackets outside the strings of ``marks`` (brackets
    and quotes only) nest — any number past ``MAX_DEPTH`` stands for "too
    deep" — or ``None`` when a string does not end or a bracket has no
    partner."""
    # "" is an empty string or the seam between two strings: dropping it
    # leaves every other quote on its side
    marks = marks.replace(b'""', b"")
    if b'"' in marks:
        pieces = marks.split(b'"')
        if len(pieces) % 2 == 0:
            return None
        marks = b"".join(pieces[::2])  # what lies between the strings
    if b"[" * (MAX_DEPTH + 1) in marks:
        return MAX_DEPTH + 1  # openers in a row nest
    depth = 0
    while marks and depth < _PEELS:
        # one level a pass: the innermost pairs go first
        inner = marks.replace(b"[]", b"")
        if len(inner) == len(marks):
            return None
        marks = inner
        depth += 1
    if not marks:
        return depth
    # what is left of a deep text, in one pass: the level just before
    # each closer is the openers before it less the closers before it
    levels = list(map(sub, accumulate(map(len, marks.split(b"]"))), count()))
    if levels[-1] != 0 or min(levels[:-1]) < 1:
        return None
    return depth + max(levels)
