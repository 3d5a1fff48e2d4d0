"""Counter-based random streams for reproducible, schedule-independent draws.

Every draw is a pure function of ``(seed, stream, substream, position)``:
the Philox generator is keyed by ``(seed, stream, substream)`` and the
position within a vectorized block plays the role of the counter.  Distinct
replications (streams) therefore never share state, so running them in any
order, or in parallel, yields bitwise-identical results.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

# substream tags within one (seed, stream) pair
SUB_ETA = 0
SUB_SHOCKS = 1
SUB_HISTOGRAM = 2

_STREAM_BITS = 8  # low bits of key[1] hold the substream tag


def check_seed(seed: int) -> None:
    """Refuse a seed that is not a 64-bit key: reduced modulo 2**64, it
    would draw another seed's values."""
    if not 0 <= seed < (1 << 64):
        raise ValueError(f"seed must be in 0..2**64-1, got {seed!r}")


def keyed_generator(seed: int, stream: int = 0, substream: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, stream, substream)."""
    check_seed(seed)
    if not 0 <= substream < (1 << _STREAM_BITS):
        raise ValueError(f"substream out of range: {substream}")
    if stream < 0 or stream >= (1 << (64 - _STREAM_BITS)):
        raise ValueError(f"stream out of range: {stream}")
    key = np.array([np.uint64(seed),
                    np.uint64((stream << _STREAM_BITS) | substream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def uniform_open(gen: np.random.Generator, size) -> np.ndarray:
    """Uniform draws strictly inside (0, 1), symmetric about 1/2.

    Uses the midpoint construction (k + 0.5) * 2**-53 so the inverse-CDF
    transform below never sees 0 or 1.
    """
    raw = gen.integers(0, 1 << 53, size=size, dtype=np.uint64)
    return (raw.astype(np.float64) + 0.5) * 2.0**-53


def gaussian(gen: np.random.Generator, size, sigma: float) -> np.ndarray:
    """N(0, sigma^2) draws via the inverse normal CDF of a counter-based uniform."""
    if sigma == 0.0:
        return np.zeros(size, dtype=np.float64)
    return sigma * ndtri(uniform_open(gen, size))
