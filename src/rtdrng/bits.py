"""Packed bit sequences and their on-disk format, streamed both ways.

File layout: 8-byte magic b"RTDBITS1", 8-byte little-endian unsigned bit
count, then the payload packed 8 bits per byte with the first bit in the
most significant position; the final byte is zero-padded.

A ``BitStream`` holds its payload in memory or leaves it in its file, and
either way it is read one byte range at a time (``BitStream._bytes``).
``read_bits`` checks a file's header, size and pad bits and leaves the
payload on disk.  ``BitWriter`` packs a stream of known length chunk by
chunk, into memory or straight into a file from ``sidecar.output_file``,
keeping only the partial last byte; its ``stream`` refuses a stream short
of its length, and the file replaces its path only once its block succeeds,
so a bit file never holds a partial stream.  ``write_bits`` does the same.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .sidecar import output_file

MAGIC = b"RTDBITS1"
_HEADER = struct.Struct("<8sQ")
# bits unpacked at a time when a whole stream is scanned
_CHUNK_BITS = 1 << 20


def _bit_array(values, what: str = "bits") -> np.ndarray:
    """``values`` as uint8, refused unless each is exactly 0 or 1 (bool passes).

    The check comes before the cast, which would wrap 256 to 0, -255 to 1
    and truncate 0.5 to 0.
    """
    arr = np.asarray(values)
    if arr.dtype.kind in "biu":
        bad = arr.size and (arr.min() < 0 or arr.max() > 1)
    else:
        bad = not np.all((arr == 0) | (arr == 1))
    if bad:
        raise ValueError(f"{what} must be 0 or 1")
    return arr.astype(np.uint8, copy=False)


class BitFileError(ValueError):
    """Malformed bitstream file."""


class _FilePayload:
    """The payload of an open bit file, read one byte range at a time.

    A slice reads its bytes into a new array.  A file cut shorter after it
    was opened raises BitFileError, never returns fewer bytes.
    """

    __slots__ = ("_file", "size")

    def __init__(self, file, size: int):
        self._file = file  # unbuffered, so each range is read straight into its array
        self.size = size

    def __del__(self):
        self._file.close()

    def __getitem__(self, key: slice) -> np.ndarray:
        lo, hi, _ = key.indices(self.size)
        out = np.empty(max(0, hi - lo), dtype=np.uint8)
        self._file.seek(_HEADER.size + lo)
        got = 0
        while got < out.size and (read := self._file.readinto(out[got:])):
            got += read
        if got < out.size:
            raise BitFileError(f"{self._file.name}: cut short of its {self.size} payload bytes")
        return out


class BitStream:
    """Immutable ordered bit sequence with exact length, stored packed.

    The packed payload is an in-memory array or, for a stream read_bits
    opened or a BitWriter wrote to a file, the file's own payload; either
    is read a byte range at a time through _bytes.
    """

    __slots__ = ("_payload", "_length")

    def __init__(self, packed, length: int):
        if not isinstance(packed, _FilePayload):
            packed = np.asarray(packed, dtype=np.uint8)
        if length < 0:
            raise ValueError("length must be nonnegative")
        if packed.size != (length + 7) // 8:
            raise ValueError("packed size inconsistent with bit length")
        if length % 8 and packed.size:
            tail = int(packed[-1:][0]) & ((1 << (8 - length % 8)) - 1)
            if tail:
                raise ValueError("trailing pad bits must be zero")
        self._payload = packed
        self._length = length

    @classmethod
    def from_array(cls, bits) -> "BitStream":
        """Build from a 0/1 array; first element becomes the first bit."""
        arr = _bit_array(bits)
        if arr.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        return cls(np.packbits(arr), arr.size)

    def _bytes(self, lo: int, hi: int) -> np.ndarray:
        """Packed bytes [lo, hi), clipped to the payload: a view in memory, a read from a file."""
        return self._payload[lo:hi]

    def _unpack(self, start: int, stop: int) -> np.ndarray:
        """Bits [start, stop) as uint8 0/1, unpacked from only the bytes they span."""
        if not 0 <= start <= stop <= self._length:
            raise ValueError(f"bit range [{start}, {stop}) outside a stream of {self._length}")
        lo = start // 8
        return np.unpackbits(self._bytes(lo, (stop + 7) // 8))[start - 8 * lo : stop - 8 * lo]

    def to_array(self) -> np.ndarray:
        """Unpack to a uint8 array of 0/1 values."""
        return self._unpack(0, self._length)

    def __len__(self) -> int:
        return self._length

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitStream):
            return NotImplemented
        step = _CHUNK_BITS // 8
        return self._length == other._length and all(
            np.array_equal(self._bytes(lo, lo + step), other._bytes(lo, lo + step))
            for lo in range(0, self._payload.size, step)
        )

    def __repr__(self) -> str:
        return f"BitStream(len={self._length})"

    def ones_fraction(self) -> float:
        if self._length == 0:
            raise ValueError("empty bit stream")
        ones = sum(
            int(np.count_nonzero(self._unpack(lo, min(lo + _CHUNK_BITS, self._length))))
            for lo in range(0, self._length, _CHUNK_BITS)
        )
        return ones / self._length


class BitWriter:
    """Packs 0/1 chunks of any length, in order, into a stream of known length.

    The last <8 bits of a chunk stay in a partial byte that the next chunk
    completes, so chunk boundaries need not fall on bytes.  Without a file
    the bytes fill one in-memory payload.  Given a file from
    ``sidecar.output_file``, which hashes what it is given, the writer
    writes the header at once, then each chunk's whole bytes as they are
    packed; it holds only the partial byte.
    """

    def __init__(self, length: int, file=None):
        self._length = length
        self._done = 0
        self._tail = 0  # the partial byte, first bits most significant
        self._file = file
        if file is None:
            self._packed = np.zeros((length + 7) // 8, dtype=np.uint8)
            self._pos = 0
        else:
            file.write(_HEADER.pack(MAGIC, length))

    def _emit(self, packed: np.ndarray) -> None:
        if self._file is None:
            self._packed[self._pos : self._pos + packed.size] = packed
            self._pos += packed.size
        else:
            self._file.write(packed)

    def append(self, bits: np.ndarray) -> None:
        if self._done + bits.size > self._length:
            raise ValueError("packer overflow")
        if not bits.size:
            return
        used = self._done % 8
        self._done += bits.size
        end = self._done == self._length
        if used:
            head, bits = bits[: 8 - used], bits[8 - used :]
            self._tail |= int(np.packbits(head)[0]) >> used
            if used + head.size < 8 and not end:
                return
            self._emit(np.array([self._tail], dtype=np.uint8))
            self._tail = 0
        packed = np.packbits(bits)
        if self._done % 8 and not end:
            self._tail = int(packed[-1])
            packed = packed[:-1]
        self._emit(packed)

    def stream(self) -> BitStream:
        """The packed stream, refused short of its length; a file writer's is its file's read_bits."""
        if self._done != self._length:
            raise ValueError(f"packed {self._done} of {self._length} bits")
        if self._file is None:
            return BitStream(self._packed, self._length)
        self._file.flush()
        return read_bits(self._file.name)


def write_bits(path, stream: BitStream) -> None:
    """Write `stream` to `path` a byte range at a time, through a temporary sibling."""
    step = _CHUNK_BITS // 8
    with output_file(path) as fh:
        fh.write(_HEADER.pack(MAGIC, len(stream)))
        for lo in range(0, stream._payload.size, step):
            fh.write(stream._bytes(lo, lo + step))


def read_bits(path) -> BitStream:
    """Open a bit file, checking its header, size and pad bits; the payload stays on disk."""
    path = Path(path)
    fh = open(path, "rb", buffering=0)
    try:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise BitFileError(f"{path}: truncated header")
        magic, length = _HEADER.unpack(header)
        if magic != MAGIC:
            raise BitFileError(f"{path}: bad magic {magic!r}")
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if size != (length + 7) // 8:
            raise BitFileError(f"{path}: payload holds {size} bytes, expected {(length + 7) // 8}")
    except BaseException:
        fh.close()
        raise
    try:
        return BitStream(_FilePayload(fh, size), length)
    except BitFileError:
        raise
    except ValueError as exc:
        raise BitFileError(f"{path}: {exc}") from exc


__all__ = ["MAGIC", "BitFileError", "BitStream", "BitWriter", "read_bits", "write_bits"]
