"""GF(2) kernels: LFSR linear complexity and binary matrix rank.

Both run in lockstep over a batch (the blocks of a group of sequences, or
the matrices of one): every step is a whole-array operation over the batch.
"""

from __future__ import annotations

import numpy as np

_ONE = np.uint64(1)


def column_complexities(columns: np.ndarray) -> np.ndarray:
    """Linear complexity of each column of an (m, B) uint8 0/1 matrix.

    Row t holds bit t of every block.  Berlekamp-Massey runs in lockstep
    over all columns, bit-sliced: each uint64 word holds one bit of 64
    blocks, so a polynomial is an (rows, ceil(B / 64)) array whose row i
    holds the coefficient of x^i of every block.  The state is the
    connection polynomial ``poly`` and the previous one pre-multiplied by
    x^(t - last_change), ``shifted``, which is a view into a larger buffer:
    multiplying it by x moves the view one row down, with no carry.  The
    sequence is stored reversed, so the discrepancy at step t is the XOR
    over rows of poly[i] & s[t - i] on one contiguous slice.  Only rows that
    can be nonzero are touched: poly has degree at most max L and shifted at
    most t + 1 - min L, over the real blocks (padding blocks stay at L = 0).
    """
    m, n_blocks = columns.shape
    n_words = -(-n_blocks // 64)
    packed = np.zeros((m, n_words * 8), dtype=np.uint8)
    packed[:, : -(-n_blocks // 8)] = np.packbits(columns[::-1], axis=1, bitorder="little")
    reversed_bits = packed.view(np.uint64)  # row j holds bit m - 1 - j
    poly = np.zeros((m + 1, n_words), dtype=np.uint64)
    poly[0] = ~np.uint64(0)
    # shifted's row i is buffer row i + m - 1 - t at step t; it is x at t = 0
    buffer = np.zeros((m + 1, n_words), dtype=np.uint64)
    buffer[m] = ~np.uint64(0)
    scratch = np.empty((m + 1, n_words), dtype=np.uint64)
    d = np.empty(n_words, dtype=np.uint64)
    length = np.zeros(n_words * 64, dtype=np.int32)
    real = length[:n_blocks]
    low = high = 0  # min and max L over the real blocks
    for t in range(m):
        k = high + 1
        np.bitwise_and(poly[:k], reversed_bits[m - 1 - t : m - 1 - t + k], out=scratch[:k])
        np.bitwise_xor.reduce(scratch[:k], axis=0, out=d)
        if not d.any():
            continue
        k = t + 2 - low
        shifted = buffer[m - 1 - t : m + 1 - low]
        np.bitwise_and(shifted, d, out=scratch[:k])
        poly[:k] ^= scratch[:k]
        lanes = np.unpackbits(d.view(np.uint8), bitorder="little").view(bool)
        lanes &= length <= t // 2  # 2L <= t
        if not lanes.any():
            continue
        change = np.packbits(lanes, bitorder="little").view(np.uint64)
        # on a change shifted takes the old poly, which is the new poly XOR shifted
        np.bitwise_and(poly[:k], change, out=scratch[:k])
        shifted ^= scratch[:k]
        length += (t + 1 - 2 * length) * lanes
        low, high = int(real.min()), int(real.max())
    return real.astype(np.int64)


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
    packed = np.zeros((n_mats, n_rows, -(-n_cols // 64) * 8), dtype=np.uint8)
    packed[:, :, : -(-n_cols // 8)] = np.packbits(stack, axis=2)
    rows = packed.view(">u8").astype(np.uint64)
    rank = np.zeros(n_mats, dtype=np.int64)
    index = np.arange(n_mats)
    for col in range(n_cols):
        has = (rows[:, :, col // 64] >> np.uint64(63 - col % 64)) & _ONE
        pivot = rows[index, has.argmax(axis=1)]
        rows ^= pivot[:, None, :] & -has[:, :, None]
        rank += has.any(axis=1)
    return rank


__all__ = ["column_complexities", "gf2_ranks"]
