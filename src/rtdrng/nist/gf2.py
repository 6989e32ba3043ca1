"""GF(2) kernels: LFSR linear complexity and binary matrix rank.

Both run in lockstep over a batch (the blocks of a group of sequences, or
the matrices of one): every step is a whole-array operation over the batch.
"""

from __future__ import annotations

import numpy as np

_ONE = np.uint64(1)
_TOP = np.uint64(63)
_FOLDS = tuple(np.uint64(s) for s in (32, 16, 8, 4, 2, 1))


def _times_x(words: np.ndarray) -> None:
    """In place: multiply each column's word-major (W, B) polynomial by x."""
    carry = words[:-1] >> _TOP
    words <<= _ONE
    words[1:] |= carry


def column_complexities(columns: np.ndarray) -> np.ndarray:
    """Linear complexity of each column of an (m, B) uint8 0/1 matrix.

    Row t holds bit t of every block.  Berlekamp-Massey runs in lockstep
    over all columns.  The state is word-major, (W, B) uint64 with
    W = ceil((m + 1) / 64) and bit i of a polynomial holding the
    coefficient of x^i: the connection polynomial, the previous one
    pre-multiplied by x^(t - last_change), and the window (bit i =
    s[t - i]).  The discrepancy is the parity of poly AND window; updates
    are selected with all-ones/all-zeros masks.  At step t no polynomial
    has a bit above t + 2, so only the low words are touched.
    """
    m, n_blocks = columns.shape
    n_words = m // 64 + 1
    poly, shifted, window = np.zeros((3, n_words, n_blocks), dtype=np.uint64)
    poly[0] = 1
    shifted[0] = 2  # prev * x^(t - last_change) at t = 0, last_change = -1
    length = np.zeros(n_blocks, dtype=np.uint64)
    for t in range(m):
        k = min(n_words, (t + 2) // 64 + 1)
        _times_x(window[:k])
        window[0] |= columns[t]
        d = np.bitwise_xor.reduce(poly[:k] & window[:k], axis=0)
        for s in _FOLDS:
            d ^= d >> s
        d &= _ONE
        change = -(d & (length << _ONE <= t))  # all ones where the length changes
        poly[:k] ^= shifted[:k] & -d
        shifted[:k] ^= poly[:k] & change  # on a change, shifted takes the old poly
        length += (t + 1 - (length << _ONE)) & change
        _times_x(shifted[:k])
    return length.astype(np.int64)


def berlekamp_massey(bits) -> int:
    """Length of the shortest LFSR generating the sequence over GF(2)."""
    seq = np.asarray(bits, dtype=np.uint8)
    if seq.ndim != 1 or seq.size == 0:
        raise ValueError("sequence must be nonempty")
    return int(column_complexities(seq[:, None])[0])


def gf2_ranks(matrices) -> np.ndarray:
    """Rank over GF(2) of every matrix in a (B, R, C) stack of 0/1 values.

    Elimination runs in lockstep with each row packed into uint64 words.
    For every column, each matrix XORs its first row holding that bit into
    all rows holding it, the pivot included: the pivot row leaves the
    system and the rank grows by one, since no remaining row has the bit.
    """
    stack = np.asarray(matrices, dtype=np.uint8)
    if stack.ndim != 3:
        raise ValueError("matrices must be a three-dimensional stack")
    n_mats, n_rows, n_cols = stack.shape
    padded = np.zeros((n_mats, n_rows, -(-n_cols // 64) * 64), dtype=np.uint8)
    padded[:, :, :n_cols] = stack
    rows = np.packbits(padded, axis=2).view(">u8").astype(np.uint64)
    rank = np.zeros(n_mats, dtype=np.int64)
    index = np.arange(n_mats)
    for col in range(n_cols):
        has = (rows[:, :, col // 64] >> np.uint64(63 - col % 64)) & _ONE
        pivot = rows[index, has.argmax(axis=1)]
        rows ^= pivot[:, None, :] & -has[:, :, None]
        rank += has.any(axis=1)
    return rank


def gf2_rank(matrix) -> int:
    """Rank of a 0/1 matrix over GF(2)."""
    m = np.asarray(matrix, dtype=np.uint8)
    if m.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    return int(gf2_ranks(m[None])[0])


__all__ = [
    "berlekamp_massey",
    "column_complexities",
    "gf2_rank",
    "gf2_ranks",
]
