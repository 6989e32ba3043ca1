"""Packed bit sequences and their on-disk format.

File layout: 8-byte magic b"RTDBITS1", 8-byte little-endian unsigned bit
count, then the payload packed 8 bits per byte with the first bit in the
most significant position; the final byte is zero-padded.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

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


class BitStream:
    """Immutable ordered bit sequence with exact length, stored packed."""

    __slots__ = ("_packed", "_length")

    def __init__(self, packed: np.ndarray, length: int):
        packed = np.asarray(packed, dtype=np.uint8)
        if length < 0:
            raise ValueError("length must be nonnegative")
        if packed.size != (length + 7) // 8:
            raise ValueError("packed size inconsistent with bit length")
        if length % 8 and packed.size:
            tail = int(packed[-1]) & ((1 << (8 - length % 8)) - 1)
            if tail:
                raise ValueError("trailing pad bits must be zero")
        self._packed = packed
        self._length = length

    @classmethod
    def from_array(cls, bits) -> "BitStream":
        """Build from a 0/1 array; first element becomes the first bit."""
        arr = _bit_array(bits)
        if arr.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        return cls(np.packbits(arr), arr.size)

    def _unpack(self, start: int, stop: int) -> np.ndarray:
        """Bits [start, stop) as uint8 0/1, unpacked from only the bytes they span."""
        if not 0 <= start <= stop <= self._length:
            raise ValueError(f"bit range [{start}, {stop}) outside a stream of {self._length}")
        lo = start // 8
        return np.unpackbits(self._packed[lo : (stop + 7) // 8])[start - 8 * lo : stop - 8 * lo]

    def to_array(self) -> np.ndarray:
        """Unpack to a uint8 array of 0/1 values."""
        return self._unpack(0, self._length)

    def __len__(self) -> int:
        return self._length

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitStream):
            return NotImplemented
        return self._length == other._length and np.array_equal(self._packed, other._packed)

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


class _Packer:
    """Packs 0/1 chunks of any length, in order, into a stream of known length.

    The last <8 bits of a chunk stay in a partial byte that the next chunk
    completes, so chunk boundaries need not fall on bytes.
    """

    def __init__(self, length: int):
        self._packed = np.zeros((length + 7) // 8, dtype=np.uint8)
        self._length = length
        self._done = 0

    def append(self, bits: np.ndarray) -> None:
        if self._done + bits.size > self._length:
            raise ValueError("packer overflow")
        pos, used = divmod(self._done, 8)
        self._done += bits.size
        if used:
            head = bits[: 8 - used]
            self._packed[pos] |= int(np.packbits(head)[0]) >> used
            bits = bits[8 - used :]
            pos += 1
        if bits.size:
            self._packed[pos : pos + (bits.size + 7) // 8] = np.packbits(bits)

    def stream(self) -> BitStream:
        if self._done != self._length:
            raise ValueError(f"packed {self._done} of {self._length} bits")
        return BitStream(self._packed, self._length)


def write_bits(path, stream: BitStream) -> None:
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, len(stream)))
        fh.write(stream._packed)  # the payload itself, not a copy


def read_bits(path) -> BitStream:
    """Read a bit file, holding its payload once, in the returned stream."""
    path = Path(path)
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise BitFileError(f"{path}: truncated header")
        magic, length = _HEADER.unpack(header)
        if magic != MAGIC:
            raise BitFileError(f"{path}: bad magic {magic!r}")
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if size != (length + 7) // 8:
            raise BitFileError(f"{path}: payload holds {size} bytes, expected {(length + 7) // 8}")
        payload = np.empty(size, dtype=np.uint8)
        if fh.readinto(payload) != size:
            raise BitFileError(f"{path}: payload changed while being read")
    try:
        return BitStream(payload, length)
    except ValueError as exc:
        raise BitFileError(f"{path}: {exc}") from exc


__all__ = ["MAGIC", "BitFileError", "BitStream", "read_bits", "write_bits"]
