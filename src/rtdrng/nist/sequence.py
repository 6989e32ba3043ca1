"""Per-sequence derivations the tests share, and groups of sequences.

Several tests read the same derivations of a sequence.  The cumulative
sums and both excursion tests read the +/-1 walk.  Both template tests,
Universal, ApEn and Serial read the value of the bit window at every
position: each of their windows is the top bits of the widest one.  A
``_Sequence`` computes each derivation on first request and keeps it for
the tests that follow, so the battery builds each once per sequence.

Berlekamp-Massey is limited by per-step overhead on the 1100 blocks of a
single 550k-bit sequence, so a ``_Group`` of sequences runs it once over
the blocks of all of its rows, on the first request from any of them.  A
group holds as many sequences as fit in ``_GROUP_BYTES`` at one byte per
bit, which bounds the lockstep state whatever the sequence count.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from .gf2 import column_complexities

_GROUP_BYTES = 3 << 20  # byte-per-bit rows in one Berlekamp-Massey pass
_MAX_WIDTH = 63  # widest window an int64 holds


def window_values(bits: np.ndarray, width: int) -> np.ndarray:
    """Value of the cyclic ``width``-bit window at every position of a 0/1 array.

    Window i reads bits i, i + 1, ..., i + width - 1 (indices mod n), most
    significant first, so below n - width + 1 it is the plain window.  The
    sequence, extended cyclically by width - 1 bits, is packed into bytes.
    Byte k and the ones after it form a word that holds every window
    starting at one of the positions 8k..8k+7, and the window at offset r
    is that word shifted right by (word bits - width - r).  A width above
    57 does not fit a 64-bit word at offset 7; its window is the 32-bit
    window followed by the (width - 32)-bit one 32 positions on.
    """
    if not 1 <= width <= _MAX_WIDTH:
        raise ValueError(f"window width must be in [1, {_MAX_WIDTH}]")
    n = bits.size
    if width > 57:
        head = window_values(bits, 32).astype(np.int64) << (width - 32)
        return head | np.roll(window_values(bits, width - 32), -32)
    span = (width + 14) // 8  # bytes holding bits r .. r + width - 1 for every r < 8
    word = np.dtype(f"u{(1, 2, 4, 4, 8, 8, 8, 8)[span - 1]}")
    out_dtype = next(
        d for d in (np.uint8, np.uint16, np.uint32, np.int64) if np.iinfo(d).bits >= width
    )
    starts = -(-n // 8)  # bytes in which a window starts
    packed = np.zeros(starts + span - 1, dtype=np.uint8)
    ext = np.packbits(np.resize(bits, n + width - 1))
    packed[: ext.size] = ext
    words = packed[:starts].astype(word)
    for j in range(1, span):
        words <<= 8
        words |= packed[j : j + starts]
    out = np.empty(starts * 8, dtype=out_dtype)
    mask = (1 << width) - 1
    for r in range(8):
        out[r::8] = (words >> (8 * span - width - r)) & mask
    return out[:n]


class _Sequence:
    """One sequence and the derivations its tests share, each built on first use."""

    def __init__(self, group: _Group, row: int):
        self._bits: np.ndarray | None = None
        self._group = group
        self._row = row
        self._walk: tuple[np.ndarray, int] | None = None
        self._windows: tuple[np.ndarray, int] | None = None
        self._counts: tuple[int, np.ndarray] | None = None

    def __len__(self) -> int:
        return self._group.length

    @property
    def bits(self) -> np.ndarray:
        """The 0/1 array, read from the group on first use."""
        if self._bits is None:
            self._bits = self._group.row(self._row)
        return self._bits

    def walk(self) -> tuple[np.ndarray, int]:
        """Cumulative +/-1 walk (int32 below 2^31 bits) and its cycle count J."""
        if self._walk is None:
            walk = self.bits.astype(np.int32 if self.bits.size < 2**31 else np.int64)
            walk <<= 1
            walk -= 1
            np.add.accumulate(walk, out=walk)  # in the walk's own dtype
            j = int(np.count_nonzero(walk == 0)) + (0 if walk[-1] == 0 else 1)
            self._walk = (walk, j)
        return self._walk

    def windows(self, width: int) -> tuple[np.ndarray, int]:
        """Cyclic windows of at least ``width`` bits at every position, and their width."""
        if self._windows is None or self._windows[1] < width:
            self._windows = (window_values(self.bits, width), width)
        return self._windows

    def cyclic_counts(self, width: int) -> np.ndarray:
        """Occurrences of each of the 2^width cyclic ``width``-bit window values."""
        if self._counts is None or self._counts[0] != width:
            values, wide = self.windows(width)
            top = values.astype(np.intp)
            top >>= wide - width
            self._counts = (width, np.bincount(top, minlength=1 << width))
        return self._counts[1]

    def linear_complexities(self, m: int) -> np.ndarray:
        """Linear complexity of each of the n // m leading m-bit blocks."""
        return self._group.linear_complexities(m)[self._row]


class _Group:
    """``size`` sequences of ``length`` bits that share one Berlekamp-Massey pass.

    ``row(i)`` returns the 0/1 array of sequence i; it is read once for the
    sequence's holder and once more while the pass transposes the blocks.
    """

    def __init__(self, row: Callable[[int], np.ndarray], size: int, length: int):
        self.row = row
        self.size = size
        self.length = length
        self._complexities: tuple[int, np.ndarray] | None = None

    def sequence(self, index: int) -> _Sequence:
        return _Sequence(self, index)

    def linear_complexities(self, m: int) -> np.ndarray:
        """(size, n // m) linear complexities of every row's m-bit blocks."""
        if self._complexities is None or self._complexities[0] != m:
            n_blocks = self.length // m
            columns = np.empty((m, self.size * n_blocks), dtype=np.uint8)
            for i in range(self.size):
                block = slice(i * n_blocks, (i + 1) * n_blocks)
                columns[:, block] = self.row(i)[: n_blocks * m].reshape(n_blocks, m).T
            complexities = column_complexities(columns).reshape(self.size, -1)
            self._complexities = (m, complexities)
        return self._complexities[1]


def as_sequence(bits) -> _Sequence:
    """The holder of ``bits``: itself, or a one-sequence group of its 0/1 array."""
    if isinstance(bits, _Sequence):
        return bits
    arr = bits.to_array() if hasattr(bits, "to_array") else np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("bits must be a nonempty one-dimensional sequence")
    return _Group(lambda i: arr, 1, arr.size).sequence(0)


def battery_sequences(stream, count: int, length: int) -> Iterator[_Sequence]:
    """Holders of the ``count`` consecutive ``length``-bit sequences of a BitStream.

    Sequences are grouped ``_GROUP_BYTES // length`` at a time (at least
    one).  Each is unpacked from the packed stream only when a test first
    reads it, so the previous holder is gone by then.
    """
    size = max(1, _GROUP_BYTES // length)
    for first in range(0, count, size):
        def row(i, first=first):
            return stream._unpack((first + i) * length, (first + i + 1) * length)

        group = _Group(row, min(size, count - first), length)
        for i in range(group.size):
            yield group.sequence(i)
