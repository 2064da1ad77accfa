"""Deterministic seeding and stream splitting.

Every stochastic routine in this package draws from a counter-based
Philox4x64-10 generator (numpy's implementation), keyed by a 64-bit
integer.  Independent streams for Monte Carlo replications are obtained
by hashing the canonical text form of a label tuple with BLAKE2b, so
distinct (seed, model, s, N, method, replication) tuples map to distinct
keys in a way that is stable across platforms and processes.
"""

from __future__ import annotations

import hashlib

import numpy as np

GENERATOR_NAME = "philox4x64-10"


def _canonical(part) -> str:
    # repr() keeps float labels exact (shortest round-trip form)
    if isinstance(part, float):
        return repr(part)
    return str(part)


def derive_seed(*parts) -> int:
    """Map a tuple of labels to a 64-bit stream key."""
    text = "|".join(_canonical(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _key(seed) -> int:
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
    return int(seed) & (2**64 - 1)


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator for one stream; same seed, same draws."""
    return np.random.Generator(np.random.Philox(key=_key(seed)))


def stream_uniforms(seeds, count: int) -> np.ndarray:
    """The first ``count`` uniforms of each seed's stream, as a (len(seeds), count) array.

    Row r equals ``make_rng(seeds[r]).random(count)``.  One Philox per call
    is re-keyed through its state (counter 0, key ``[seed, 0]``, empty
    buffer), which skips the SeedSequence a new generator builds and never
    uses.  The generator is local to the call, so threads never share one.
    """
    out = np.empty((len(seeds), count))
    bit_generator = np.random.Philox(key=0)
    generator = np.random.Generator(bit_generator)
    state = bit_generator.state
    for seed, row in zip(seeds, out):
        state["state"]["key"][0] = _key(seed)
        bit_generator.state = state
        generator.random(out=row)
    return out
