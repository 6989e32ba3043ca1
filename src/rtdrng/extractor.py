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

from .bits import BitStream, _Packer

# float32 input bytes hashed per GEMM; a chunk holds at least one block
_CHUNK_BYTES = 8 << 20


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
        # extract's float32 GEMM sums reach n; float32 is exact only to 2^24
        if self.n > 2**24:
            raise ValueError(f"n must be at most 2^24 = {2**24}")
        if self.epsilon_exponent < 1:
            raise ValueError("epsilon_exponent must be at least 1")
        if self.seed is not None:
            if self.l is None:
                raise ValueError("a seed needs a fixed l")
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


def extract(bits: BitStream, cfg: ExtractorConfig) -> BitStream:
    """Hash every full n-bit block with the shared seed and concatenate.

    Output length is floor(len/n) * l; a trailing partial block is dropped.
    The GF(2) matrix product runs through float32 BLAS, a chunk of blocks at
    a time: each chunk is unpacked from the packed input into one reused
    float32 buffer of about _CHUNK_BYTES, multiplied into one reused sums
    buffer, and its parities are packed onto the output before the next
    chunk is read.  Block sums stay at or below n <= 2^24, so the float32
    arithmetic and the uint32 cast are exact, and the working set does not
    grow with the input.
    """
    if cfg.l is None:
        raise ValueError("extraction requires a fixed l; see choose_block_params")
    if cfg.seed is None:
        raise ValueError("extraction requires a seed; see derive_seed")
    n, l = cfg.n, cfg.l
    n_blocks = len(bits) // n
    if n_blocks < 1:
        raise ValueError(f"input shorter than one block of {n} bits")
    windows = np.lib.stride_tricks.sliding_window_view(cfg.seed, n)[:l]
    hash_t = windows.astype(np.float32).T
    rows = min(n_blocks, max(1, _CHUNK_BYTES // (4 * n)))
    blocks = np.empty((rows, n), dtype=np.float32)
    sums = np.empty((rows, l), dtype=np.float32)
    parity = np.empty((rows, l), dtype=np.uint32)
    out = _Packer(n_blocks * l)
    for lo in range(0, n_blocks, rows):
        m = min(rows, n_blocks - lo)
        np.copyto(blocks[:m], bits._unpack(lo * n, (lo + m) * n).reshape(m, n))
        np.matmul(blocks[:m], hash_t, out=sums[:m])
        np.copyto(parity[:m], sums[:m], casting="unsafe")
        np.bitwise_and(parity[:m], 1, out=parity[:m])
        out.append(parity[:m].reshape(-1))
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
