"""Dependency-free msgpack codec (the subset the wire protocol needs).

The wire protocol frames are msgpack maps/arrays of strings, numbers,
booleans, ``None`` and byte strings.  This module is the transport's one
codec — :mod:`repro.net.wire` binds ``packb``/``unpackb`` from here,
always — so the transport works on a bare Python install and has one set
of error behaviour.  The encoding follows the msgpack spec exactly for
the supported types, so its frames interoperate with any conforming
msgpack peer:

* nil / true / false;
* integers (fixint, [u]int8/16/32/64 — always the smallest encoding);
* float64 (floats are never narrowed; float32 is decoded but not emitted);
* str (fixstr/str8/str16/str32, UTF-8);
* bin (bin8/16/32);
* array (fixarray/array16/array32);
* map (fixmap/map16/map32).

Ext types and timestamps are not produced by the protocol; decoding one
raises :class:`MsgpackError` rather than guessing.

Splicing.  Every decoded map is a :class:`SpanMap` — a ``dict`` that
remembers which bytes it was decoded from — and :meth:`SpanMap.packed`
mints a :class:`Packed` value that :func:`packb` emits verbatim, so a
relay can pass a validated map on without re-walking it.  The span is
valid msgpack (it was just decoded in full) but only as canonical as its
original writer made it.
"""

from __future__ import annotations

import struct
from typing import Any, List, Tuple


class MsgpackError(ValueError):
    """Malformed or unsupported msgpack data."""


class MsgpackTruncated(MsgpackError):
    """The buffer ended inside a value (caller should wait for more bytes)."""


class Packed:
    """An already-encoded msgpack value; :func:`packb` emits it verbatim.

    Minted only by :meth:`SpanMap.packed`, i.e. from bytes this decoder
    has just decoded in full — never build one from caller-supplied bytes
    (a plain ``bytes`` value still packs as msgpack ``bin``).
    """

    __slots__ = ("data",)

    def __init__(self, data: bytes) -> None:
        self.data = data


class SpanMap(dict):
    """A decoded msgpack map plus the byte span it was decoded from.

    The span describes the map as decoded; mutate the map and
    :meth:`packed` no longer describes it.
    """

    __slots__ = ("_span",)

    def packed(self) -> Packed:
        """The map's own encoding, copied out of the source buffer (so the
        result does not keep the whole buffer alive)."""
        source, start, end = self._span
        return Packed(source[start:end])


_FIXINT = [bytes((value,)) for value in range(0x80)]
_FIXSTR = [bytes((0xA0 | size,)) for size in range(0x20)]
_PACK_U8 = struct.Struct(">BB").pack
_PACK_U16 = struct.Struct(">BH").pack
_PACK_U32 = struct.Struct(">BI").pack
_PACK_U64 = struct.Struct(">BQ").pack
_PACK_I8 = struct.Struct(">Bb").pack
_PACK_I16 = struct.Struct(">Bh").pack
_PACK_I32 = struct.Struct(">Bi").pack
_PACK_I64 = struct.Struct(">Bq").pack
_PACK_F64 = struct.Struct(">Bd").pack


def packb(obj: Any) -> bytes:
    """Serialize ``obj`` to msgpack bytes."""
    out: List[bytes] = []
    _pack(obj, out)
    return b"".join(out)


def _pack(obj: Any, out: List[bytes]) -> None:
    packer = _PACKERS.get(type(obj))
    if packer is None:  # a subclass of a supported type, or nothing we know
        for base, packer in _PACKERS.items():
            if isinstance(obj, base):
                break
        else:
            raise MsgpackError(f"cannot serialize {type(obj).__name__} to msgpack")
    packer(obj, out)


def _pack_int(value: int, out: List[bytes]) -> None:
    if 0 <= value <= 0x7F:
        out.append(_FIXINT[value])
    elif -32 <= value < 0:
        out.append(bytes((value & 0xFF,)))
    elif value > 0:
        if value <= 0xFF:
            out.append(_PACK_U8(0xCC, value))
        elif value <= 0xFFFF:
            out.append(_PACK_U16(0xCD, value))
        elif value <= 0xFFFFFFFF:
            out.append(_PACK_U32(0xCE, value))
        elif value <= 0xFFFFFFFFFFFFFFFF:
            out.append(_PACK_U64(0xCF, value))
        else:
            raise MsgpackError("integer out of 64-bit msgpack range")
    else:
        if value >= -0x80:
            out.append(_PACK_I8(0xD0, value))
        elif value >= -0x8000:
            out.append(_PACK_I16(0xD1, value))
        elif value >= -0x80000000:
            out.append(_PACK_I32(0xD2, value))
        elif value >= -0x8000000000000000:
            out.append(_PACK_I64(0xD3, value))
        else:
            raise MsgpackError("integer out of 64-bit msgpack range")


def _pack_str(value: str, out: List[bytes]) -> None:
    data = value.encode("utf-8")
    size = len(data)
    if size <= 0x1F:
        out.append(_FIXSTR[size])
    elif size <= 0xFF:
        out.append(_PACK_U8(0xD9, size))
    elif size <= 0xFFFF:
        out.append(_PACK_U16(0xDA, size))
    elif size <= 0xFFFFFFFF:
        out.append(_PACK_U32(0xDB, size))
    else:
        raise MsgpackError("string too long for msgpack")
    out.append(data)


def _pack_bin(data: Any, out: List[bytes]) -> None:
    data = bytes(data)  # bytearray / memoryview; a no-op for bytes
    size = len(data)
    if size <= 0xFF:
        out.append(_PACK_U8(0xC4, size))
    elif size <= 0xFFFF:
        out.append(_PACK_U16(0xC5, size))
    elif size <= 0xFFFFFFFF:
        out.append(_PACK_U32(0xC6, size))
    else:
        raise MsgpackError("bytes too long for msgpack")
    out.append(data)


def _pack_array(items: Any, out: List[bytes]) -> None:
    size = len(items)
    if size <= 0x0F:
        out.append(bytes((0x90 | size,)))
    elif size <= 0xFFFF:
        out.append(_PACK_U16(0xDC, size))
    elif size <= 0xFFFFFFFF:
        out.append(_PACK_U32(0xDD, size))
    else:
        raise MsgpackError("array too long for msgpack")
    for item in items:
        _pack(item, out)


def _pack_map(mapping: dict, out: List[bytes]) -> None:
    size = len(mapping)
    if size <= 0x0F:
        out.append(bytes((0x80 | size,)))
    elif size <= 0xFFFF:
        out.append(_PACK_U16(0xDE, size))
    elif size <= 0xFFFFFFFF:
        out.append(_PACK_U32(0xDF, size))
    else:
        raise MsgpackError("map too long for msgpack")
    for key, value in mapping.items():
        _pack(key, out)
        _pack(value, out)


_PACKERS = {
    str: _pack_str,
    int: _pack_int,
    float: lambda value, out: out.append(_PACK_F64(0xCB, value)),
    Packed: lambda value, out: out.append(value.data),
    dict: _pack_map,
    list: _pack_array,
    tuple: _pack_array,
    bool: lambda value, out: out.append(b"\xc3" if value else b"\xc2"),
    type(None): lambda value, out: out.append(b"\xc0"),
    bytes: _pack_bin,
    bytearray: _pack_bin,
    memoryview: _pack_bin,
}


def unpackb(data: bytes, offset: int = 0) -> Any:
    """Deserialize the one msgpack value at ``data[offset:]``; trailing
    bytes are an error."""
    value, end = _unpack(data, offset)
    if end != len(data):
        raise MsgpackError(f"{len(data) - end} trailing bytes after msgpack value")
    return value


_TRUNCATED = "msgpack data truncated"


def _invalid_utf8(error: UnicodeDecodeError) -> MsgpackError:
    return MsgpackError(f"invalid UTF-8 in msgpack string: {error}")


#: marker -> (bound ``unpack_from``, width) of the fixed-width numbers.
_NUMBERS = {
    0xCA: (struct.Struct(">f").unpack_from, 4),
    0xCB: (struct.Struct(">d").unpack_from, 8),
    0xCC: (struct.Struct(">B").unpack_from, 1),
    0xCD: (struct.Struct(">H").unpack_from, 2),
    0xCE: (struct.Struct(">I").unpack_from, 4),
    0xCF: (struct.Struct(">Q").unpack_from, 8),
    0xD0: (struct.Struct(">b").unpack_from, 1),
    0xD1: (struct.Struct(">h").unpack_from, 2),
    0xD2: (struct.Struct(">i").unpack_from, 4),
    0xD3: (struct.Struct(">q").unpack_from, 8),
}

#: marker -> the length field of the sized families (bin 0xC4-0xC6,
#: str 0xD9-0xDB, array 0xDC-0xDD, map 0xDE-0xDF), as in ``_NUMBERS``.
_SIZES = {
    0xC4: _NUMBERS[0xCC],
    0xC5: _NUMBERS[0xCD],
    0xC6: _NUMBERS[0xCE],
    0xD9: _NUMBERS[0xCC],
    0xDA: _NUMBERS[0xCD],
    0xDB: _NUMBERS[0xCE],
    0xDC: _NUMBERS[0xCD],
    0xDD: _NUMBERS[0xCE],
    0xDE: _NUMBERS[0xCD],
    0xDF: _NUMBERS[0xCE],
}


def _unpack(data: bytes, offset: int) -> Tuple[Any, int]:
    # Every read is bounds-checked where it happens: an index or struct
    # read past the end raises, a slice comes back short.
    try:
        marker = data[offset]
    except IndexError:
        raise MsgpackTruncated(_TRUNCATED) from None
    offset += 1
    if marker <= 0x7F:  # positive fixint
        return marker, offset
    if marker <= 0xBF:
        if marker >= 0xA0:  # fixstr (``_unpack_str``, inlined)
            end = offset + marker - 0xA0
            raw = data[offset:end]
            if len(raw) != marker - 0xA0:
                raise MsgpackTruncated(_TRUNCATED)
            try:
                return raw.decode("utf-8"), end
            except UnicodeDecodeError as error:
                raise _invalid_utf8(error) from None
        if marker >= 0x90:  # fixarray
            return _unpack_array(data, offset, marker & 0x0F)
        return _unpack_map(data, offset - 1, offset, marker & 0x0F)  # fixmap
    if marker >= 0xE0:  # negative fixint
        return marker - 0x100, offset
    number = _NUMBERS.get(marker)
    if number is not None:
        read, width = number
        try:
            return read(data, offset)[0], offset + width
        except struct.error:
            raise MsgpackTruncated(_TRUNCATED) from None
    if marker == 0xC0:
        return None, offset
    if marker == 0xC2:
        return False, offset
    if marker == 0xC3:
        return True, offset
    sized = _SIZES.get(marker)
    if sized is None:
        raise MsgpackError(f"unsupported msgpack marker 0x{marker:02x}")
    read, width = sized
    try:
        size = read(data, offset)[0]
    except struct.error:
        raise MsgpackTruncated(_TRUNCATED) from None
    body = offset + width
    if marker >= 0xDE:
        return _unpack_map(data, offset - 1, body, size)
    if marker >= 0xDC:
        return _unpack_array(data, body, size)
    if marker >= 0xD9:
        return _unpack_str(data, body, size)
    return _unpack_bin(data, body, size)


def _unpack_str(data: bytes, offset: int, size: int) -> Tuple[str, int]:
    end = offset + size
    raw = data[offset:end]
    if len(raw) != size:
        raise MsgpackTruncated(_TRUNCATED)
    try:
        return raw.decode("utf-8"), end
    except UnicodeDecodeError as error:
        raise _invalid_utf8(error) from None


def _unpack_bin(data: bytes, offset: int, size: int) -> Tuple[bytes, int]:
    end = offset + size
    raw = bytes(data[offset:end])
    if len(raw) != size:
        raise MsgpackTruncated(_TRUNCATED)
    return raw, end


# The two container loops decode positive fixint, fixstr and float64 in
# place — four values in five of every data-plane frame are one of the
# three — and hand every other marker to ``_unpack``.  Each inlined block
# is ``_unpack``'s own branch for that marker: same bounds checks in the
# same order, same exception classes.

_UNPACK_F64 = _NUMBERS[0xCB][0]


def _unpack_array(data: bytes, offset: int, size: int) -> Tuple[List[Any], int]:
    items: List[Any] = []
    append = items.append
    for _ in range(size):
        try:
            marker = data[offset]
        except IndexError:
            raise MsgpackTruncated(_TRUNCATED) from None
        if marker <= 0x7F:  # positive fixint
            append(marker)
            offset += 1
        elif 0xA0 <= marker <= 0xBF:  # fixstr
            begin = offset + 1
            offset = begin + marker - 0xA0
            raw = data[begin:offset]
            if len(raw) != marker - 0xA0:
                raise MsgpackTruncated(_TRUNCATED)
            try:
                append(raw.decode("utf-8"))
            except UnicodeDecodeError as error:
                raise _invalid_utf8(error) from None
        elif marker == 0xCB:  # float64
            try:
                append(_UNPACK_F64(data, offset + 1)[0])
            except struct.error:
                raise MsgpackTruncated(_TRUNCATED) from None
            offset += 9
        else:
            value, offset = _unpack(data, offset)
            append(value)
    return items, offset


def _unpack_map(
    data: bytes, start: int, offset: int, size: int
) -> Tuple[SpanMap, int]:
    """``start`` is the map's marker byte, ``offset`` its first key."""
    result = SpanMap()
    for _ in range(size):
        try:
            marker = data[offset]
        except IndexError:
            raise MsgpackTruncated(_TRUNCATED) from None
        if 0xA0 <= marker <= 0xBF:  # fixstr key
            begin = offset + 1
            offset = begin + marker - 0xA0
            raw = data[begin:offset]
            if len(raw) != marker - 0xA0:
                raise MsgpackTruncated(_TRUNCATED)
            try:
                key = raw.decode("utf-8")
            except UnicodeDecodeError as error:
                raise _invalid_utf8(error) from None
        else:
            key, offset = _unpack(data, offset)
            if type(key) is not str:
                try:
                    hash(key)
                except TypeError:
                    raise MsgpackError("unhashable msgpack map key") from None
        try:
            marker = data[offset]
        except IndexError:
            raise MsgpackTruncated(_TRUNCATED) from None
        if marker <= 0x7F:  # positive fixint
            result[key] = marker
            offset += 1
        elif 0xA0 <= marker <= 0xBF:  # fixstr
            begin = offset + 1
            offset = begin + marker - 0xA0
            raw = data[begin:offset]
            if len(raw) != marker - 0xA0:
                raise MsgpackTruncated(_TRUNCATED)
            try:
                result[key] = raw.decode("utf-8")
            except UnicodeDecodeError as error:
                raise _invalid_utf8(error) from None
        elif marker == 0xCB:  # float64
            try:
                result[key] = _UNPACK_F64(data, offset + 1)[0]
            except struct.error:
                raise MsgpackTruncated(_TRUNCATED) from None
            offset += 9
        else:
            result[key], offset = _unpack(data, offset)
    result._span = (data, start, offset)
    return result, offset
