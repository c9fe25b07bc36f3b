"""``repro.jsondecode.loads`` decodes exactly what ``json.loads`` decodes.

The oracle is ``json.loads`` itself: for every byte string the two return
equal values — the same type at every node, floats bit for bit, dict keys
in the same order (the duplicate-key winner included) — or both raise.
The values are rendered by ``json.dumps`` with and without
``ensure_ascii``, and objects are rendered pair by pair, so a key can
repeat.  The raw-byte variants add a BOM, UTF-16/32, truncations and
bytes that are not UTF-8.
"""

from __future__ import annotations

import json
import struct
from typing import Any, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jsondecode import MAX_DEPTH, DecodeError, loads


class _Object(list):
    """An object to render as (key, value) pairs, repeats allowed."""


def _render(value: Any, ensure_ascii: bool, compact: bool) -> str:
    comma, colon = (",", ":") if compact else (", ", ": ")
    if isinstance(value, _Object):
        members = (
            json.dumps(key, ensure_ascii=ensure_ascii)
            + colon
            + _render(item, ensure_ascii, compact)
            for key, item in value
        )
        return "{" + comma.join(members) + "}"
    if isinstance(value, list):
        return "[" + comma.join(_render(v, ensure_ascii, compact) for v in value) + "]"
    return json.dumps(value, ensure_ascii=ensure_ascii)


_BOUNDARIES = [
    sign * (2**bits + delta)
    for bits in (31, 32, 53, 63, 64, 65)
    for delta in (-1, 0, 1)
    for sign in (1, -1)
]
_INTS = st.one_of(
    st.sampled_from(_BOUNDARIES),
    st.integers(min_value=-(2**66), max_value=2**66),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.integers(),
)
# every double: subnormals, -0.0, NaN and the infinities included
_FLOATS = st.integers(min_value=0, max_value=2**64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]
)
# lone surrogates and non-BMP characters included
_STRINGS = st.text(st.characters(blacklist_categories=()), max_size=8)
_KEYS = st.one_of(st.sampled_from(["a", "b", "é", "\U0001f600"]), _STRINGS)
_SCALARS = st.one_of(
    st.none(), st.booleans(), _INTS, _FLOATS, _STRINGS,
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 5e-324]),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(st.tuples(_KEYS, children), max_size=5).map(_Object),
    ),
    max_leaves=30,
)


def _outcome(decode: Any, data: bytes) -> Tuple[Any, Optional[BaseException]]:
    try:
        return decode(data), None
    except (ValueError, RecursionError) as exc:
        return None, exc


def _assert_same(got: Any, expected: Any) -> None:
    assert type(got) is type(expected), (got, expected)
    if isinstance(expected, float):
        assert struct.pack("<d", got) == struct.pack("<d", expected)
    elif isinstance(expected, dict):
        assert list(got) == list(expected)
        for key in expected:
            _assert_same(got[key], expected[key])
    elif isinstance(expected, list):
        assert len(got) == len(expected)
        for item, want in zip(got, expected):
            _assert_same(item, want)
    else:
        assert got == expected


def _assert_agrees(data: bytes) -> None:
    expected, error = _outcome(json.loads, data)
    if error is not None:
        with pytest.raises(DecodeError):
            loads(data)
    else:
        _assert_same(loads(data), expected)


def _encoded(text: str) -> bytes:
    return text.encode("utf-8", "surrogatepass")


@settings(max_examples=400)
@given(_VALUES, st.booleans(), st.booleans())
def test_a_rendered_value_decodes_as_json_loads_decodes_it(
    value, ensure_ascii, compact
):
    _assert_agrees(_encoded(_render(value, ensure_ascii, compact)))


@settings(max_examples=300)
@given(_VALUES, st.booleans(), st.data())
def test_raw_byte_variants_decode_or_fail_as_json_loads_does(
    value, ensure_ascii, data
):
    text = _render(value, ensure_ascii, compact=False)
    raw = _encoded(text)
    variant = data.draw(st.sampled_from([
        "bom", "utf-16", "utf-16-le", "utf-16-be", "utf-32", "utf-32-le",
        "utf-32-be", "truncated", "not-utf-8", "padded",
    ]))
    if variant == "bom":
        raw = b"\xef\xbb\xbf" + raw
    elif variant.startswith("utf-"):
        raw = text.encode(variant, "surrogatepass")
    elif variant == "truncated":
        raw = raw[: data.draw(st.integers(min_value=0, max_value=len(raw)))]
    elif variant == "not-utf-8":
        at = data.draw(st.integers(min_value=0, max_value=len(raw)))
        byte = data.draw(st.integers(min_value=0x80, max_value=0xFF))
        raw = raw[:at] + bytes([byte]) + raw[at:]
    else:
        raw = b" \t\r\n" + raw + b"\n "
    _assert_agrees(raw)


@given(st.binary(max_size=64))
def test_arbitrary_bytes_decode_or_fail_as_json_loads_does(raw):
    _assert_agrees(raw)


@pytest.mark.parametrize("text", [
    "9223372036854775807", "9223372036854775808", "18446744073709551615",
    "18446744073709551616", "18446744073709551617", "-9223372036854775808",
    "-9223372036854775809", "123456789012345678901234", "[1e400, -1e400]",
    "NaN", "[Infinity, -Infinity]", '"\\ud800"', '{"a": 1, "b": 2, "a": 3}',
    "0.1000000000000000055511151231257827", "1e0000000000000000000001",
    '"12345678901234567890"', "-0", "-0.0", "5e-324", "1.7976931348623157e308",
])
def test_the_cases_orjson_alone_would_get_wrong(text):
    _assert_agrees(text.encode())


def _nested(depth: int, opener: str = "[", closer: str = "]") -> bytes:
    return (opener * depth + closer * depth).encode()


def test_nesting_to_max_depth_decodes():
    objects = b'{"k":' * (MAX_DEPTH - 1) + b"[]" + b"}" * (MAX_DEPTH - 1)
    # many chains at the limit: past the levels peeled one at a time
    chains = b"[" + b",".join([_nested(MAX_DEPTH - 1)] * 50) + b"]"
    for raw in (_nested(MAX_DEPTH), objects, chains):
        assert loads(raw) == json.loads(raw)


@pytest.mark.parametrize("raw", [
    _nested(MAX_DEPTH + 1),
    b'{"k":' * MAX_DEPTH + b"[1]" + b"}" * MAX_DEPTH,
    # wide as well as deep
    b"[" + b"[1,[2]]," * 5000 + _nested(MAX_DEPTH) + b"]",
    # strings holding closers do not hide a level
    b'["]",' * (MAX_DEPTH + 1) + b"0" + b"]" * (MAX_DEPTH + 1),
    # far past where a recursive parser overflows the C stack
    _nested(1_000_000),
    b"[" * 1_000_000,
], ids=["arrays", "objects", "wide", "masked", "million", "unclosed"])
def test_nesting_past_max_depth_is_one_decode_error(raw):
    with pytest.raises(DecodeError) as err:
        loads(raw)
    assert type(err.value) is DecodeError


def test_strings_holding_brackets_and_escapes_are_not_structure():
    deep_string = '"' + "[" * (2 * MAX_DEPTH) + '"'
    for text in (
        '{"a": "["}', '["]", ["]", [1]]]', '["\\\\", "]"]', '["\\"]", "["]',
        "[" + deep_string + "]", '{"reason": "agree on [\'CC\', \'zip\']"}',
        "[" * MAX_DEPTH + deep_string + "]" * MAX_DEPTH,
    ):
        _assert_agrees(text.encode())


@pytest.mark.parametrize("raw", [
    b"\x80not json", b'"\xff"', b'{"id": "\xed\xa0"}', b"\xff\xfe\x00",
    b"", b"{", b"[1,]", b'"unterminated', b"]", b"nope",
    b"[" * 700 + b"]" * 699, b"[" + b"[1]," * 600 + b"[" * 20 + b"]" * 19,
])
def test_every_refusal_is_one_decode_error(raw):
    with pytest.raises(DecodeError):
        loads(raw)
    with pytest.raises((json.JSONDecodeError, UnicodeDecodeError)):
        json.loads(raw)


def test_decode_error_is_a_value_error():
    assert issubclass(DecodeError, ValueError)
    errors: List[BaseException] = []
    for raw in (b"\x80", b"{", _nested(MAX_DEPTH + 1)):
        try:
            loads(raw)
        except ValueError as exc:
            errors.append(exc)
    assert [type(e) for e in errors] == [DecodeError] * 3
