"""Block-wise two-universal hashing for randomness distillation.

Raw bits are cut into blocks of n and each block is compressed to l < n
output bits by a seeded binary convolution over GF(2): output bit j is the
parity of seed[j : j + n] AND block.  The (n + l - 1)-bit seed defines a
Toeplitz-structured linear map, a standard two-universal family, so sizing
l = floor(n * h_min - 2k)

from a per-bit min-entropy estimate h_min keeps each output block within
2^-k of uniform (leftover hashing).  One seed is reused across all blocks;
callers control seed freshness.

The map is evaluated exactly, with XOR only, by the method of four
Russians: a table of the 256 XOR combinations of the seed's first eight
shifts serves every byte of every block, because the Toeplitz structure
turns block byte c's contribution into that table's rows read from byte c
on.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .bits import BitStream, BitWriter, _bit_array

# bytes of one chunk's working set, at least one block: a block's packed
# bytes, its output bytes and their gathered term, and its output unpacked
# a byte a bit, plus the block unpacked and packed again where n is not a
# multiple of 8 (README, Memory)
_CHUNK_BYTES = 4 << 20


class InsufficientEntropyError(ValueError):
    """The requested security parameter leaves no extractable output."""


@dataclass(frozen=True, eq=False)
class ExtractorConfig:
    """Block sizes, hash seed and security exponent (epsilon = 2^-k).

    l = None sizes l per run (choose_block_params), as seed = None leaves the
    seed to the run; extract needs both set.
    """

    n: int = 1000
    l: int | None = 330
    seed: np.ndarray | None = None
    epsilon_exponent: int = 32

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.l is not None and not 0 < self.l < self.n:
            raise ValueError("require 0 < l < n")
        # a fixed cap on n, checked without allocating: it keeps extract's
        # 256-row shift table, 32 (n + l) bytes, under 1 GiB
        if self.n > 2**24:
            raise ValueError(f"n must be at most 2^24 = {2**24}")
        if self.epsilon_exponent < 1:
            raise ValueError("epsilon_exponent must be at least 1")
        if self.seed is not None:
            if self.l is None:
                raise ValueError("a seed needs a fixed l")
            seed = _bit_array(self.seed, "seed bits")
            if seed.ndim != 1 or seed.size != self.n + self.l - 1:
                raise ValueError(f"seed must be exactly {self.n + self.l - 1} bits")
            object.__setattr__(self, "seed", seed)

    def seed_fingerprint(self) -> str:
        if self.seed is None:
            raise ValueError("no seed set")
        return hashlib.sha256(np.packbits(self.seed).tobytes()).hexdigest()[:16]


def min_entropy_estimate(bits: BitStream) -> float:
    """Per-bit min-entropy from the most common value: -log2(max(p0, p1))."""
    if len(bits) < 1000:
        raise ValueError("need at least 1000 bits for a min-entropy estimate")
    p1 = bits.ones_fraction()
    return float(-np.log2(max(p1, 1.0 - p1)))


def choose_block_params(h_min: float, n: int, epsilon_exponent: int) -> int:
    """Output block length l = floor(n*h_min - 2k) for security 2^-k."""
    if not 0.0 <= h_min <= 1.0:
        raise ValueError("h_min must be in [0, 1]")
    if n < 1:
        raise ValueError("n must be at least 1")
    if epsilon_exponent < 1:
        raise ValueError("epsilon_exponent must be at least 1")
    l = math.floor(n * h_min - 2 * epsilon_exponent)
    if l <= 0:
        raise InsufficientEntropyError(
            f"insufficient entropy for requested security: n*h_min = {n * h_min:.1f} "
            f"leaves no output after the 2k = {2 * epsilon_exponent} bit penalty"
        )
    return l


def _shift_table(seed: np.ndarray, n: int, l: int) -> np.ndarray:
    """Row v: the XOR of the seed shifted left by b for each bit b set in byte v.

    Bit b of v counts from the most significant, as packbits orders a
    block's bits.  Each row is packed, ceil(n/8) + ceil(l/8) bytes, and the
    seed reads as zero past its last bit.  Rows 2^k to 2^(k+1) - 1 are the
    first 2^k rows XOR the shift of bit value 2^k, so the 256 rows take 8
    vector XORs.
    """
    width = -(-n // 8) + -(-l // 8)
    padded = np.zeros(8 * width + 7, dtype=np.uint8)
    padded[: seed.size] = seed
    table = np.zeros((256, width), dtype=np.uint8)
    for k in range(8):
        shifted = np.packbits(padded[7 - k : 7 - k + 8 * width])
        np.bitwise_xor(table[: 1 << k], shifted, out=table[1 << k : 2 << k])
    return table


def extract(bits: BitStream, cfg: ExtractorConfig, sink: BitWriter | None = None) -> BitStream:
    """Hash every full n-bit block with the shared seed and concatenate.

    Output length is floor(len/n) * l; a trailing partial block is dropped.
    Output bit j of a block is the XOR over its set bits i of seed[i + j].
    For the eight bits of block byte c, that is bit j of row v of the shift
    table read from byte c on, v being the byte's value, so the block's
    ceil(l/8) output bytes are the XOR of ceil(n/8) byte-aligned table
    slices, one per block byte.  A chunk of blocks is hashed at a time: its
    packed bytes (the stream's own when n is a multiple of 8, else the
    chunk repacked a block to a row with a zero tail) index each slice in
    turn with one gather into a reused buffer, which is XORed into a reused
    accumulator; the accumulated bytes are unpacked to l bits a block and
    packed onto the output before the next chunk is read.  The arithmetic
    is exact XOR, and the working set, about _CHUNK_BYTES plus the
    32 (n + l)-byte table, does not grow with the input.  The output goes
    to `sink`, a BitWriter of floor(len/n) * l bits, or else to one in
    memory.
    """
    if cfg.l is None:
        raise ValueError("extraction requires a fixed l; see choose_block_params")
    if cfg.seed is None:
        raise ValueError("extraction requires a seed; see derive_seed")
    n, l = cfg.n, cfg.l
    n_blocks = len(bits) // n
    if n_blocks < 1:
        raise ValueError(f"input shorter than one block of {n} bits")
    in_bytes, out_bytes = -(-n // 8), -(-l // 8)
    table = _shift_table(cfg.seed, n, l)
    aligned = n % 8 == 0
    per_block = in_bytes + 2 * out_bytes + l + (0 if aligned else n + in_bytes)
    rows = min(n_blocks, max(1, _CHUNK_BYTES // per_block))
    acc = np.empty((rows, out_bytes), dtype=np.uint8)
    term = np.empty((rows, out_bytes), dtype=np.uint8)
    out = BitWriter(n_blocks * l) if sink is None else sink
    for lo in range(0, n_blocks, rows):
        m = min(rows, n_blocks - lo)
        if aligned:
            block_bytes = bits._bytes(lo * in_bytes, (lo + m) * in_bytes).reshape(m, in_bytes)
        else:
            block_bytes = np.packbits(bits._unpack(lo * n, (lo + m) * n).reshape(m, n), axis=1)
        # uint8 indices are always in range; mode="clip" gathers straight
        # into out=, where the default mode would buffer it
        hashed, part = acc[:m], term[:m]
        np.take(table[:, :out_bytes], block_bytes[:, 0], axis=0, out=hashed, mode="clip")
        for c in range(1, in_bytes):
            np.take(table[:, c : c + out_bytes], block_bytes[:, c], axis=0, out=part, mode="clip")
            hashed ^= part
        del block_bytes  # freed before the next chunk's bytes are read
        out.append(np.unpackbits(hashed, axis=1, count=l).reshape(-1))
    return out.stream()


def derive_seed(bits: BitStream, n: int, l: int) -> np.ndarray:
    """Deterministic fallback seed hashed from the first 10*(n+l) raw bits.

    Only for keeping the pipeline usable when no explicit seed is supplied;
    outputs derived this way are flagged in stage metadata.
    """
    need = 10 * (n + l)
    if len(bits) < need:
        raise ValueError(f"need at least {need} bits to derive a seed")
    material = np.packbits(bits._unpack(0, need)).tobytes()
    seed_len = n + l - 1
    chunks = []
    counter = 0
    while 8 * sum(len(c) for c in chunks) < seed_len:
        chunks.append(hashlib.sha256(material + counter.to_bytes(4, "big")).digest())
        counter += 1
    stream = np.unpackbits(np.frombuffer(b"".join(chunks), dtype=np.uint8))
    return stream[:seed_len].copy()


__all__ = [
    "ExtractorConfig",
    "InsufficientEntropyError",
    "min_entropy_estimate",
    "choose_block_params",
    "extract",
    "derive_seed",
]
