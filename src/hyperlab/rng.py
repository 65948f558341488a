"""Seedable, platform-independent randomness.

All sampling in the package flows through a Philox counter-based bit
generator, so identical seeds reproduce identical streams on any platform
and under any worker count.  ``RNG_ALGORITHM`` is the identifier recorded
in experiment outputs.  `make_generator` keys Philox with a `_PhiloxKey`,
the key as an int that is its own seed sequence, yielding [key, 0]: the
state is that of `Philox(key=seed)`, which would first draw OS entropy and
discard it, a third of a short seeded run's cost.  `_PhiloxKey` becomes an
`ISeedSequence` on first use, not at import, as importing that class loads
`numpy.random` and would slow `import hyperlab` by half or more.
"""

from __future__ import annotations

from functools import cache

import numpy as np

RNG_ALGORITHM = "philox4x64"
SEED_MIXER = "splitmix64"

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class _PhiloxKey(int):
    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        # Philox asks for its 2-word key; any other request would key it differently
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a Philox key is 2 uint64 words, not {n_words} {np.dtype(dtype)}")
        return np.array([self, 0], dtype=np.uint64)


@cache
def _key_type() -> type:
    return np.random.bit_generator.ISeedSequence.register(_PhiloxKey)


def make_generator(seed: int) -> np.random.Generator:
    """Return a fresh generator for a 64-bit seed."""
    return np.random.Generator(np.random.Philox(_key_type()(seed & _MASK64)))


def splitmix64(x: int) -> int:
    """The splitmix64 finalizer; pure 64-bit integer arithmetic."""
    z = (x + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def trial_seed(base_seed: int, trial: int) -> int:
    """Per-trial seed: splitmix64 stream member ``trial`` of ``base_seed``.

    Splittable by construction: trial t is reproducible in isolation
    without generating seeds 0..t-1.
    """
    return splitmix64((base_seed + trial * _GOLDEN) & _MASK64)
