"""Counter-based random number streams.

Every stochastic computation in the package derives its randomness from
``seed_stream(seed, index)``: a Philox-keyed generator.  Distinct indices
give statistically independent streams, identical (seed, index) pairs give
identical sequences on every platform, and a stream's output does not
depend on how many draws are requested per call.
"""

from __future__ import annotations

import numpy as np

__all__ = ["seed_stream"]

_MASK64 = (1 << 64) - 1


def seed_stream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent, reproducible stream number ``index`` of a 64-bit seed."""
    seed = int(seed)
    index = int(index)
    if index < 0:
        raise ValueError("stream index must be >= 0")
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
