"""Block-wise two-universal hashing for randomness distillation.

Raw bits are cut into blocks of n and each block is compressed to l < n
output bits by a seeded binary convolution over GF(2): output bit j is the
parity of seed[j : j + n] AND block.  The (n + l - 1)-bit seed defines a
Toeplitz-structured linear map, a standard two-universal family, so sizing
l = floor(n * h_min - 2k)

from a per-bit min-entropy estimate h_min keeps each output block within
2^-k of uniform (leftover hashing).  One seed is reused across all blocks;
callers control seed freshness.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .bits import BitStream

_BLOCK_CHUNK = 1 << 13


class InsufficientEntropyError(ValueError):
    """The requested security parameter leaves no extractable output."""


@dataclass(frozen=True, eq=False)
class ExtractorConfig:
    """Block sizes, hash seed and security exponent (epsilon = 2^-k)."""

    n: int = 1000
    l: int = 330
    seed: np.ndarray | None = None
    epsilon_exponent: int = 32

    def __post_init__(self):
        if not 0 < self.l < self.n:
            raise ValueError("require 0 < l < n")
        # extract's float32 GEMM sums reach n; float32 is exact only to 2^24
        if self.n > 2**24:
            raise ValueError(f"n must be at most 2^24 = {2**24}")
        if self.epsilon_exponent < 1:
            raise ValueError("epsilon_exponent must be at least 1")
        if self.seed is not None:
            seed = np.asarray(self.seed, dtype=np.uint8)
            if seed.ndim != 1 or seed.size != self.n + self.l - 1:
                raise ValueError(f"seed must be exactly {self.n + self.l - 1} bits")
            if seed.size and seed.max() > 1:
                raise ValueError("seed bits must be 0 or 1")
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


def seeded_hash_block(seed, block, l: int):
    """Hash one n-bit block to l bits: out[j] = parity(seed[j:j+n] & block)."""
    seed = np.asarray(seed, dtype=np.uint8)
    block = np.asarray(block, dtype=np.uint8)
    n = block.size
    if seed.size != n + l - 1:
        raise ValueError(f"seed must be {n + l - 1} bits for n={n}, l={l}")
    windows = np.lib.stride_tricks.sliding_window_view(seed, n)[:l]
    return (windows.astype(np.int64) @ block.astype(np.int64)) % 2


def extract(bits: BitStream, cfg: ExtractorConfig) -> BitStream:
    """Hash every full n-bit block with the shared seed and concatenate.

    Output length is floor(len/n) * l; a trailing partial block is dropped.
    The GF(2) matrix product runs through float32 BLAS in chunks; block sums
    stay at or below n <= 2^24 so the arithmetic is exact.
    """
    if cfg.seed is None:
        raise ValueError("extraction requires a seed; see derive_seed")
    n_blocks = len(bits) // cfg.n
    if n_blocks < 1:
        raise ValueError(f"input shorter than one block of {cfg.n} bits")
    data = bits.to_array()[: n_blocks * cfg.n].reshape(n_blocks, cfg.n)
    windows = np.lib.stride_tricks.sliding_window_view(cfg.seed, cfg.n)[: cfg.l]
    hash_t = windows.astype(np.float32).T
    out = np.empty((n_blocks, cfg.l), dtype=np.uint8)
    for lo in range(0, n_blocks, _BLOCK_CHUNK):
        hi = min(lo + _BLOCK_CHUNK, n_blocks)
        sums = data[lo:hi].astype(np.float32) @ hash_t
        out[lo:hi] = sums.astype(np.int64) & 1
    return BitStream.from_array(out.reshape(-1))


def derive_seed(bits: BitStream, n: int, l: int) -> np.ndarray:
    """Deterministic fallback seed hashed from the first 10*(n+l) raw bits.

    Only for keeping the pipeline usable when no explicit seed is supplied;
    outputs derived this way are flagged in stage metadata.
    """
    need = 10 * (n + l)
    if len(bits) < need:
        raise ValueError(f"need at least {need} bits to derive a seed")
    material = np.packbits(bits.to_array()[:need]).tobytes()
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
    "seeded_hash_block",
    "extract",
    "derive_seed",
]
