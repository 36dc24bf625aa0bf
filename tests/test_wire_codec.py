"""The wire codec against the json module calls it must match: `encode`
writes json.dumps's sorted-key compact line, byte for byte, and `decode`
returns what json.loads returns, for the two message shapes `encode` has a
template for, for near misses of those shapes and for arbitrary JSON."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from proxilab.wire import DecodeError, decode, encode

# Every code point, lone surrogates, control characters, '"' and '\\' included.
TEXT = st.text(st.characters(exclude_categories=()), max_size=12)
NUMBERS = st.one_of(
    st.integers(),
    st.integers(min_value=2**63 - 4, max_value=2**64 + 4),
    st.floats(),  # NaN and the infinities too
    st.sampled_from([-0.0, 5e-324, 1e308, 1.0, 0.1]),
)
SCALARS = st.one_of(NUMBERS, st.booleans(), st.none(), TEXT)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(TEXT, inner, max_size=3)),
    max_leaves=8,
)
# The fast path's string fields, sometimes not a str at all.
STRING_FIELDS = st.one_of(TEXT, TEXT, SCALARS)

SEARCHES = st.fixed_dictionaries({
    "v": st.one_of(st.just(1), JSON_VALUES),
    "type": st.one_of(st.just("search"), STRING_FIELDS),
    "account": STRING_FIELDS,
    "lat": st.one_of(NUMBERS, JSON_VALUES),
    "lon": NUMBERS,
    "ts": st.one_of(NUMBERS, st.booleans()),
})
ENTRIES = st.one_of(
    st.fixed_dictionaries({"id": STRING_FIELDS, "class_m": st.one_of(NUMBERS, JSON_VALUES)}),
    # near misses: an extra or a missing key, or not an object
    st.fixed_dictionaries({"id": TEXT, "class_m": NUMBERS, "extra": JSON_VALUES}),
    st.fixed_dictionaries({"id": TEXT}),
    JSON_VALUES,
)
RESULTS = st.fixed_dictionaries({
    "v": st.one_of(st.just(1), JSON_VALUES),
    "type": st.one_of(st.just("result"), STRING_FIELDS),
    "entries": st.one_of(st.lists(ENTRIES, max_size=4), JSON_VALUES),
})


@st.composite
def near_misses(draw, shapes):
    """A message of one of `shapes` with a key dropped, a key added, or
    neither."""
    msg = draw(shapes)
    change = draw(st.sampled_from(["none", "drop", "add"]))
    if change == "drop":
        del msg[draw(st.sampled_from(sorted(msg)))]
    elif change == "add":
        msg[draw(TEXT)] = draw(JSON_VALUES)
    return msg


MESSAGES = st.one_of(near_misses(SEARCHES), near_misses(RESULTS), st.dictionaries(TEXT, JSON_VALUES, max_size=4))


def json_dumps_line(msg) -> bytes:
    return (json.dumps(msg, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n").encode()


def assert_encodes_as_json_dumps(msg) -> None:
    try:
        want = json_dumps_line(msg)
    except Exception as exc:  # noqa: BLE001 - encode must raise the same
        with pytest.raises(type(exc)) as got:
            encode(msg)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
    else:
        assert encode(msg) == want


def assert_decodes_as_json_loads(line: str) -> None:
    try:
        want = json.loads(line)
    except ValueError as exc:  # a JSONDecodeError, or an int past the digit limit
        with pytest.raises(DecodeError) as got:
            decode(line)
        assert str(got.value) == f"invalid JSON: {getattr(exc, 'msg', exc)}"
        return
    if not isinstance(want, dict):
        with pytest.raises(DecodeError, match="must be a JSON object"):
            decode(line)
        return
    # repr tells -0.0 from 0.0 and shows NaN, which compares unequal to itself.
    assert repr(decode(line)) == repr(want)
    try:
        raw = line.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate has no UTF-8 form
        return
    assert repr(decode(raw)) == repr(want)


def search(**fields) -> dict:
    return {"v": 1, "type": "search", "account": "a", "lat": 23.0, "lon": 51.35, "ts": 0.0, **fields}


def result(*entries, **fields) -> dict:
    return {"v": 1, "type": "result", "entries": list(entries), **fields}


class TestEncodeMatchesJsonDumps:
    @settings(max_examples=400, deadline=None)
    @given(MESSAGES)
    def test_any_message(self, msg):
        assert_encodes_as_json_dumps(msg)

    @pytest.mark.parametrize("value", [-0.0, 5e-324, 1e308, -1e308, 2**64, -(2**64), 10**400, True, False, None])
    @pytest.mark.parametrize("field", ["lat", "lon", "ts", "v"])
    def test_pinned_search_numbers(self, field, value):
        assert_encodes_as_json_dumps(search(**{field: value}))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_floats_raise_as_json_dumps(self, value):
        for msg in (search(lat=value), search(ts=value), result({"id": "t", "class_m": value}), result(v=value)):
            with pytest.raises(ValueError):
                json_dumps_line(msg)
            assert_encodes_as_json_dumps(msg)

    @pytest.mark.parametrize("text", [
        "", "é世界", "\x00\x1f\x7f", '"', "\\", 'a"b\\c\n\t', "\ud800", "\U0001f600", "  ",
    ])
    def test_pinned_strings_in_account_and_id(self, text):
        assert_encodes_as_json_dumps(search(account=text))
        assert_encodes_as_json_dumps(search(type=text))
        assert_encodes_as_json_dumps(result({"id": text, "class_m": 500}, {"id": "u", "class_m": 100}))
        assert_encodes_as_json_dumps(result({"id": text, "class_m": 500}, type=text))

    @pytest.mark.parametrize("entries", [
        [], [{"id": "t", "class_m": 500}] * 3, [{"id": "t", "class_m": True}],
        [{"id": 5, "class_m": "500"}], [{"id": "t", "class_m": 500, "x": 1}], [{"id": "t"}],
        [["t", 500]], [{"id": "t", "class_m": 500}, 7], [{"id": "t", "class_m": math.nan}, 7],
        [{"id": "t", "class_m": [1, {"b": 2, "a": 1}]}], [{"id": "t", "class_m": 10**5000}],
    ])
    def test_pinned_result_entries(self, entries):
        assert_encodes_as_json_dumps(result(*entries))

    def test_pinned_near_misses(self):
        for msg in (
            {k: v for k, v in search().items() if k != "ts"},
            search(extra=1),
            search(account=5),
            result(entries="t"),
            result(type=None),
            {"v": 1, "type": "error", "code": "INTERNAL", "retry_after_s": 0.0},
            {"entries": [], "type": "result", 1: 2},
        ):
            assert_encodes_as_json_dumps(msg)

    def test_a_circular_value_raises_as_json_dumps(self):
        msg = result()
        msg["entries"].append({"id": "t", "class_m": msg})
        assert_encodes_as_json_dumps(msg)


class TestDecodeMatchesJsonLoads:
    @settings(max_examples=400, deadline=None)
    @given(MESSAGES, st.sampled_from(["", " ", "\t\r\n ", "﻿"]), st.sampled_from(["", "\n", " \r\n", "x", "{}"]))
    def test_encoded_lines_with_padding(self, msg, before, after):
        try:
            text = json.dumps(msg, sort_keys=True, separators=(",", ":"))
        except ValueError:
            return  # a circular or digit-limit value has no line to decode
        assert_decodes_as_json_loads(before + text + after)

    @settings(max_examples=400, deadline=None)
    @given(JSON_VALUES, st.integers(min_value=0, max_value=40))
    def test_cut_lines(self, value, cut):
        text = json.dumps({"k": value})
        assert_decodes_as_json_loads(text[:cut])
        assert_decodes_as_json_loads(text[:cut] + text[cut + 1:])

    @settings(max_examples=400, deadline=None)
    @given(st.text(st.sampled_from('{}[]":,.-+eE0123456789 \ntrufalsenNI\\\x00é'), max_size=30))
    def test_arbitrary_text(self, text):
        assert_decodes_as_json_loads(text)

    @pytest.mark.parametrize("line", [
        '﻿{"v":1}\n',  # BOM-prefixed
        '  \t{"v": 1} \r\n',  # whitespace padding
        '{"v":1}\n{"v":1}\n',  # trailing data
        '{"v":1} x',
        '  ﻿{"v":1}',  # a BOM after whitespace is not a BOM
        "", "   ", "\n", "[1, 2]", '"text"', "NaN", '{"a": NaN, "b": -Infinity, "c": -0.0}',
        '{"a": 5e-324, "b": 1e308, "c": 18446744073709551616, "d": 1e400}',
        '{"a": "\\ud800", "b": "\\u00e9\\"\\\\"}', '{"a": "\x01"}', '{"a": 1,}', '{"a" 1}', "{",
        pytest.param('{"a": ' + "1" * 5000 + "}", id="int_past_the_digit_limit"),
    ])
    def test_pinned_lines(self, line):
        assert_decodes_as_json_loads(line)

    def test_bytes_that_are_not_utf8(self):
        with pytest.raises(DecodeError, match="not valid UTF-8"):
            decode(b'{"a": "\xff"}\n')
