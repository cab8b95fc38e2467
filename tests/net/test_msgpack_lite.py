"""Spec-conformance and fuzz tests for the dependency-free msgpack codec."""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import msgpack_lite
from repro.net.msgpack_lite import (
    MsgpackError,
    MsgpackTruncated,
    SpanMap,
    packb,
    unpackb,
)
from repro.sim.rng import SeededRNG

# ---------------------------------------------------------------------------
# Known-answer vectors straight from the msgpack spec
# ---------------------------------------------------------------------------


SPEC_VECTORS = [
    (None, b"\xc0"),
    (False, b"\xc2"),
    (True, b"\xc3"),
    (0, b"\x00"),
    (127, b"\x7f"),
    (-1, b"\xff"),
    (-32, b"\xe0"),
    (128, b"\xcc\x80"),
    (255, b"\xcc\xff"),
    (256, b"\xcd\x01\x00"),
    (65535, b"\xcd\xff\xff"),
    (65536, b"\xce\x00\x01\x00\x00"),
    (2**32 - 1, b"\xce\xff\xff\xff\xff"),
    (2**32, b"\xcf\x00\x00\x00\x01\x00\x00\x00\x00"),
    (2**64 - 1, b"\xcf" + b"\xff" * 8),
    (-33, b"\xd0\xdf"),
    (-128, b"\xd0\x80"),
    (-129, b"\xd1\xff\x7f"),
    (-32768, b"\xd1\x80\x00"),
    (-32769, b"\xd2\xff\xff\x7f\xff"),
    (-(2**31), b"\xd2\x80\x00\x00\x00"),
    (-(2**31) - 1, b"\xd3\xff\xff\xff\xff\x7f\xff\xff\xff"),
    (-(2**63), b"\xd3\x80" + b"\x00" * 7),
    (1.5, b"\xcb" + struct.pack(">d", 1.5)),
    ("", b"\xa0"),
    ("hi", b"\xa2hi"),
    ("a" * 31, b"\xbf" + b"a" * 31),
    ("a" * 32, b"\xd9\x20" + b"a" * 32),
    (b"", b"\xc4\x00"),
    (b"\x01\x02", b"\xc4\x02\x01\x02"),
    ([], b"\x90"),
    ([1, 2, 3], b"\x93\x01\x02\x03"),
    ({}, b"\x80"),
    ({"a": 1}, b"\x81\xa1a\x01"),
]


class TestSpecVectors:
    @pytest.mark.parametrize("value, encoded", SPEC_VECTORS)
    def test_known_encodings(self, value, encoded):
        assert packb(value) == encoded
        assert unpackb(encoded) == value

    def test_integer_boundaries_use_smallest_encoding(self):
        # The format byte families must switch exactly at the spec limits.
        assert len(packb(127)) == 1 and len(packb(128)) == 2
        assert len(packb(255)) == 2 and len(packb(256)) == 3
        assert len(packb(65535)) == 3 and len(packb(65536)) == 5
        assert len(packb(-32)) == 1 and len(packb(-33)) == 2

    def test_str16_and_str32(self):
        long = "x" * 70000
        data = packb(long)
        assert data[0] == 0xDA or data[0] == 0xDB
        assert unpackb(data) == long

    def test_array16_and_map16(self):
        items = list(range(20))
        assert unpackb(packb(items)) == items
        mapping = {f"k{i}": i for i in range(20)}
        assert unpackb(packb(mapping)) == mapping

    def test_float32_decodes(self):
        data = b"\xca" + struct.pack(">f", 0.5)
        assert unpackb(data) == 0.5

    def test_unicode_round_trip(self):
        value = {"θέμα": "δίκτυο", "日本": "東京", "emoji": "🛰️"}
        assert unpackb(packb(value)) == value


# ---------------------------------------------------------------------------
# Error handling
# ---------------------------------------------------------------------------


class TestErrors:
    def test_truncated_raises_truncation(self):
        data = packb({"key": [1, 2, "three"]})
        for cut in range(1, len(data)):
            with pytest.raises(MsgpackTruncated):
                unpackb(data[:cut])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(MsgpackError, match="trailing"):
            unpackb(packb(1) + b"\x00")

    def test_ext_marker_rejected(self):
        with pytest.raises(MsgpackError, match="marker"):
            unpackb(b"\xc7\x01\x00\x00")  # ext8

    def test_reserved_marker_rejected(self):
        with pytest.raises(MsgpackError):
            unpackb(b"\xc1")

    def test_invalid_utf8_rejected(self):
        with pytest.raises(MsgpackError, match="UTF-8"):
            unpackb(b"\xa2\xff\xfe")

    def test_unserializable_type_rejected(self):
        with pytest.raises(MsgpackError):
            packb({"bad": object()})

    def test_out_of_range_int_rejected(self):
        with pytest.raises(MsgpackError):
            packb(2**64)
        with pytest.raises(MsgpackError):
            packb(-(2**63) - 1)


# ---------------------------------------------------------------------------
# Fuzz: arbitrary protocol-shaped values round-trip to identity
# ---------------------------------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**64 - 1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=64),
    st.binary(max_size=64),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.dictionaries(st.text(max_size=12), children, max_size=6),
    ),
    max_leaves=25,
)


class TestFuzz:
    @given(values)
    @settings(max_examples=300, deadline=None)
    def test_round_trip_identity(self, value):
        decoded = unpackb(packb(value))
        assert decoded == value

    @given(values)
    @settings(max_examples=150, deadline=None)
    def test_every_truncation_raises_cleanly(self, value):
        data = packb(value)
        for cut in (1, len(data) // 2, len(data) - 1):
            if 0 < cut < len(data):
                with pytest.raises(MsgpackError):
                    unpackb(data[:cut])

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=150, deadline=None)
    def test_floats_are_exact(self, value):
        # Always float64 on the wire: no precision loss, ever.
        decoded = unpackb(packb(value))
        assert decoded == value and math.copysign(1, decoded) == math.copysign(1, value)

    @given(st.binary(min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_garbage_never_crashes(self, data):
        # Arbitrary bytes either decode to something or raise MsgpackError;
        # nothing else may escape.
        try:
            unpackb(data)
        except MsgpackError:
            pass


# ---------------------------------------------------------------------------
# Decoder equivalence: the inlined container loops against one call per value
# ---------------------------------------------------------------------------
#
# The reference is the decoder as it stood before ``_unpack_array`` /
# ``_unpack_map`` decoded fixint / fixstr / float64 in their loop bodies:
# every value, key or item, goes through ``ref_unpack``.  It shares no code
# with the module under test.

_REF_NUMBERS = {
    0xCA: (">f", 4), 0xCB: (">d", 8),
    0xCC: (">B", 1), 0xCD: (">H", 2), 0xCE: (">I", 4), 0xCF: (">Q", 8),
    0xD0: (">b", 1), 0xD1: (">h", 2), 0xD2: (">i", 4), 0xD3: (">q", 8),
}
_REF_SIZES = {
    0xC4: ">B", 0xC5: ">H", 0xC6: ">I", 0xD9: ">B", 0xDA: ">H", 0xDB: ">I",
    0xDC: ">H", 0xDD: ">I", 0xDE: ">H", 0xDF: ">I",
}


def _ref_read(fmt, data, offset):
    try:
        return struct.unpack_from(fmt, data, offset)[0]
    except struct.error:
        raise MsgpackTruncated("msgpack data truncated") from None


def _ref_raw(data, offset, size):
    raw = bytes(data[offset : offset + size])
    if len(raw) != size:
        raise MsgpackTruncated("msgpack data truncated")
    return raw, offset + size


def _ref_str(data, offset, size):
    raw, end = _ref_raw(data, offset, size)
    try:
        return raw.decode("utf-8"), end
    except UnicodeDecodeError as error:
        raise MsgpackError(f"invalid UTF-8 in msgpack string: {error}") from None


def _ref_array(data, offset, size):
    items = []
    for _ in range(size):
        value, offset = ref_unpack(data, offset)
        items.append(value)
    return items, offset


def _ref_map(data, start, offset, size):
    result = SpanMap()
    for _ in range(size):
        key, offset = ref_unpack(data, offset)
        if type(key) is not str:
            try:
                hash(key)
            except TypeError:
                raise MsgpackError("unhashable msgpack map key") from None
        result[key], offset = ref_unpack(data, offset)
    result._span = (data, start, offset)
    return result, offset


def ref_unpack(data, offset):
    try:
        marker = data[offset]
    except IndexError:
        raise MsgpackTruncated("msgpack data truncated") from None
    start, offset = offset, offset + 1
    if marker <= 0x7F:
        return marker, offset
    if marker <= 0x8F:
        return _ref_map(data, start, offset, marker & 0x0F)
    if marker <= 0x9F:
        return _ref_array(data, offset, marker & 0x0F)
    if marker <= 0xBF:
        return _ref_str(data, offset, marker & 0x1F)
    if marker >= 0xE0:
        return marker - 0x100, offset
    if marker in _REF_NUMBERS:
        fmt, width = _REF_NUMBERS[marker]
        return _ref_read(fmt, data, offset), offset + width
    if marker in (0xC0, 0xC2, 0xC3):
        return {0xC0: None, 0xC2: False, 0xC3: True}[marker], offset
    if marker not in _REF_SIZES:
        raise MsgpackError(f"unsupported msgpack marker 0x{marker:02x}")
    fmt = _REF_SIZES[marker]
    size = _ref_read(fmt, data, offset)
    body = offset + struct.calcsize(fmt)
    if marker >= 0xDE:
        return _ref_map(data, start, body, size)
    if marker >= 0xDC:
        return _ref_array(data, body, size)
    if marker >= 0xD9:
        return _ref_str(data, body, size)
    return _ref_raw(data, body, size)


def outcome(unpack, data):
    """``(value, end)``, or the class of the codec error raised — anything
    that is not a :class:`MsgpackError` escapes and fails the test."""
    try:
        return unpack(data, 0)
    except MsgpackError as error:
        return type(error)


def assert_same_decoding(got, want, data, where):
    """Equal values of equal types (floats bit for bit), and every map's
    span the same ``(data, start, end)``."""
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert got._span[0] is data and want._span[0] is data, where
        assert got._span[1:] == want._span[1:], where
        assert len(got) == len(want), where
        # Pairwise, in insertion order: a corrupted key can be a NaN, which
        # neither equals itself nor can be looked up.
        for (got_key, got_value), (want_key, want_value) in zip(got.items(), want.items()):
            assert_same_decoding(got_key, want_key, data, where)
            assert_same_decoding(got_value, want_value, data, where)
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for got_item, want_item in zip(got, want):
            assert_same_decoding(got_item, want_item, data, where)
    elif isinstance(want, float):
        assert struct.pack(">d", got) == struct.pack(">d", want), where
    else:
        assert got == want, where


def assert_decoders_agree(data, where, prefixes=True):
    """Same outcome — value, end offset and spans, or exception class — on
    ``data`` and, with ``prefixes``, on every proper prefix of it."""
    cuts = range(len(data) + 1) if prefixes else [len(data)]
    for cut in cuts:
        piece = data[:cut]
        at = where if cut == len(data) else f"prefix [:{cut}]; {where}"
        got = outcome(msgpack_lite._unpack, piece)
        want = outcome(ref_unpack, piece)
        if isinstance(want, tuple):
            assert isinstance(got, tuple), f"raised {got}, reference decoded; {at}"
            assert got[1] == want[1], f"end offset; {at}"
            assert_same_decoding(got[0], want[0], piece, at)
        else:
            assert got is want, f"{got} != {want}; {at}"


EQUIVALENCE_SCALARS = [
    None, True, False,
    0, 1, 127, 128, 255, 256, 65535, 65536, 2**32 - 1, 2**32, 2**64 - 1,
    -1, -32, -33, -128, -129, -32768, -32769, -(2**31) - 1, -(2**63),
    0.0, -0.0, 1.5, 1e-310, 1.7976931348623157e308, math.inf, -math.inf, math.nan,
    "", "x", "topic", "δίκτυο", "東京🛰️", "a" * 31, "a" * 32, "é" * 16, "b" * 255,
    "b" * 256, b"", b"\x00\xff", b"z" * 300,
]
EQUIVALENCE_KEYS = [
    "t", "a", "ts", "id", "", "θέμα", "k" * 31, "k" * 32, "k" * 300,
    0, 7, 127, 128, -1, 1.5, None, True, b"raw",
]


def random_value(rng, budget, depth=0):
    """A nested value of at most ``budget[0]`` further leaves (the prefix
    sweep is quadratic in the encoding's length)."""
    budget[0] -= 1
    roll = rng.random()
    if depth < 4 and budget[0] > 0 and roll < 0.5:
        size = min(rng.choice([0, 1, 2, 3, 15, 16, 17]), budget[0])
        if roll < 0.25:
            return [random_value(rng, budget, depth + 1) for _ in range(size)]
        return {
            key: random_value(rng, budget, depth + 1)
            for key in rng.sample(EQUIVALENCE_KEYS, size)
        }
    return rng.choice(EQUIVALENCE_SCALARS)


def check_decoder_equivalence(seed, count=10):
    """``count`` random nested values of ``SeededRNG(seed)``: whole
    encodings, every proper prefix, and seeded single-byte corruptions
    (with every prefix of those too) decode the same under both decoders."""
    repro = f"repro: check_decoder_equivalence(seed={seed}, count={count})"
    rng = SeededRNG(seed)
    for index in range(count):
        data = packb(random_value(rng, [rng.choice([6, 20, 40])]))
        where = f"value {index}; {repro}"
        assert_decoders_agree(data, where)
        for _ in range(min(len(data), 16)):
            position = rng.randint(0, len(data) - 1)
            corrupt = bytearray(data)
            corrupt[position] = rng.randint(0, 255)
            assert_decoders_agree(
                bytes(corrupt),
                f"byte {position} -> 0x{corrupt[position]:02x}; {where}",
                prefixes=len(data) <= 256,
            )


#: One corruption per position the loops now decode in place (map key, map
#: value, array item) and per way a value can be refused there, with the
#: class the whole input must raise.
_BAD_STR = b"\xa2\xff\xfe"  # fixstr, invalid UTF-8
_BAD_STR8 = b"\xd9\x02\xff\xfe"  # the same behind the fall-through
TARGETED_CORRUPTIONS = [
    ("invalid UTF-8 in a key", b"\x82\xa1a\x01" + _BAD_STR + b"\x02", MsgpackError),
    ("invalid UTF-8 in a str8 key", b"\x82\xa1a\x01" + _BAD_STR8 + b"\x02", MsgpackError),
    ("invalid UTF-8 in a map value", b"\x82\xa1a" + _BAD_STR + b"\xa1b\x02", MsgpackError),
    ("invalid UTF-8 in a str8 map value", b"\x82\xa1a" + _BAD_STR8 + b"\xa1b\x02",
     MsgpackError),
    ("invalid UTF-8 in an array item", b"\x93\x01" + _BAD_STR + b"\x02", MsgpackError),
    ("invalid UTF-8 in a str8 array item", b"\x93\x01" + _BAD_STR8 + b"\x02", MsgpackError),
    ("an array as map key", b"\x82\xa1a\x01\x91\x01\x02", MsgpackError),
    ("a map as map key", b"\x81\x81\xa1a\x01\x02", MsgpackError),
    # The key is refused before the value behind it is looked at.
    ("an array as map key, value cut short", b"\x81\x92\x01\x02\xcb\x00", MsgpackError),
    ("unsupported marker as key", b"\x82\xa1a\x01\xc1\x02", MsgpackError),
    ("unsupported marker as map value", b"\x82\xa1a\xc1\xa1b\x02", MsgpackError),
    ("unsupported marker as array item", b"\x93\x01\xc1\x02", MsgpackError),
    ("ext marker as array item", b"\x92\xc7\x01\x00\x00\x01", MsgpackError),
    ("float64 cut short as map value", b"\x81\xa1a\xcb\x3f\xf8\x00", MsgpackTruncated),
    ("float64 cut short as array item", b"\x91\xcb\x3f\xf8\x00", MsgpackTruncated),
    ("fixstr key cut short", b"\x81\xa5top", MsgpackTruncated),
    # The length check precedes the UTF-8 decode: half a character at the
    # end of the buffer is a truncation, not bad UTF-8.
    ("multi-byte character cut by the buffer end", b"\x91\xa2\xce", MsgpackTruncated),
    ("map with a missing value", b"\x81\xa1a", MsgpackTruncated),
]


class TestDecoderEquivalence:
    @pytest.mark.parametrize("value, encoded", SPEC_VECTORS)
    def test_spec_vectors(self, value, encoded):
        assert_decoders_agree(encoded, f"repro: spec vector {value!r}")
        nested = b"\x92" + encoded + b"\x81\xa1k" + encoded
        assert_decoders_agree(nested, f"repro: spec vector {value!r}, nested")

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
    def test_random_nested_values(self, seed):
        check_decoder_equivalence(seed)

    @given(st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_random_nested_values_fuzz(self, seed):
        check_decoder_equivalence(seed, count=3)

    @pytest.mark.parametrize(
        "what, data, expected", TARGETED_CORRUPTIONS,
        ids=[what for what, _data, _expected in TARGETED_CORRUPTIONS],
    )
    def test_targeted_corruptions(self, what, data, expected):
        where = f"repro: TARGETED_CORRUPTIONS, {what!r}"
        assert_decoders_agree(data, where)
        assert outcome(msgpack_lite._unpack, data) is expected, where
        assert outcome(ref_unpack, data) is expected, where
