"""Counter-based random number streams.

Every stochastic computation in the package derives its randomness from
``seed_stream(seed, index)``: a Philox-keyed generator.  Distinct indices
give statistically independent streams, identical (seed, index) pairs give
identical sequences on every platform, and a stream's output does not
depend on how many draws are requested per call.

A stream is keyed, not seeded: its Philox key is the pair
``(seed mod 2^64, index mod 2^64)`` and its counter starts at 0, exactly as
``Philox(key=[seed, index])`` would set them (Salmon et al., SC 2011).  The
key reaches Philox through a private key sequence rather than the ``key``
argument, because with ``key=`` numpy still builds a ``SeedSequence`` from
operating-system entropy and then discards it; a stream draws no entropy.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["seed_stream"]

_MASK64 = (1 << 64) - 1


class _PhiloxKey(ISeedSequence):
    """Hands Philox a fixed 128-bit key as the two uint64 words it asks for.

    Philox requests exactly ``generate_state(2, np.uint64)`` when seeded
    from a sequence; any other request means a different consumer, which
    this sequence cannot serve without inventing bits, so it raises.
    """

    __slots__ = ("_key",)

    def __init__(self, seed: int, index: int):
        self._key = (seed & _MASK64, index & _MASK64)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a Philox key sequence yields only (2, uint64), "
                             f"not ({n_words}, {np.dtype(dtype)})")
        return np.array(self._key, dtype=np.uint64)


def seed_stream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent, reproducible stream number ``index`` of a 64-bit seed."""
    seed = int(seed)
    index = int(index)
    if index < 0:
        raise ValueError("stream index must be >= 0")
    return np.random.Generator(np.random.Philox(_PhiloxKey(seed, index)))
