"""Named RNG streams, each derived from a run seed.

Every stochastic component draws from its own stream so that consuming one
stream never shifts another (e.g. prompt-edge sampling cannot perturb
classifier initialization). This is what makes the tau=1 reduction to linear
probing bit-exact rather than approximate.
"""

from __future__ import annotations

import numpy as np

# Each code is the first entropy word of its stream: renumbering one would
# change every value it draws. Code 4 is retired.
_STREAM_CODES = {
    "classifier-init": 1,
    "prompt-init": 2,
    "sampling": 3,
    "encoder-init": 5,
    "corruption": 6,
    "views": 7,
    "mask": 8,
    "noise": 9,
}


def rng_stream(name, *keys):
    """A Generator keyed by (stream name, *integer keys)."""
    if name not in _STREAM_CODES:
        raise KeyError(f"unknown RNG stream '{name}'")
    entropy = [_STREAM_CODES[name]] + [int(k) & 0xFFFFFFFF for k in keys]
    return np.random.default_rng(np.random.SeedSequence(entropy))
