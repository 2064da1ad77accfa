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


def _canonical(part) -> str:
    # repr() keeps float labels exact (shortest round-trip form)
    if isinstance(part, float):
        return repr(part)
    return str(part)


def _digest_key(text: str) -> int:
    return int.from_bytes(hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "big")


def derive_seed(*parts) -> int:
    """Map a tuple of labels to a 64-bit stream key."""
    return _digest_key("|".join(_canonical(p) for p in parts))


def derive_seeds(*parts, count: int) -> list[int]:
    """``[derive_seed(*parts, r) for r in range(count)]``, with the shared text built once."""
    prefix = "".join(_canonical(p) + "|" for p in parts)
    return [_digest_key(f"{prefix}{r}") for r in range(count)]


def _key(seed) -> int:
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
    return int(seed) & (2**64 - 1)


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator for one stream; same seed, same draws."""
    return np.random.Generator(np.random.Philox(key=_key(seed)))


def stream_uniforms(seeds, count: int, start: int = 0) -> np.ndarray:
    """Uniforms ``start .. start + count - 1`` of each seed's stream, as a (len(seeds), count) array.

    Row r equals ``make_rng(seeds[r]).random(start + count)[start:]``.  One
    Philox per call is re-keyed through its state (key ``[seed, 0]``, the
    counter at the four-draw block holding draw ``start``, empty buffer),
    which skips the SeedSequence a new generator builds and never uses.
    The generator is local to the call, so threads never share one.
    """
    skip = start % 4
    out = np.empty((len(seeds), skip + count))
    bit_generator = np.random.Philox(key=0)
    generator = np.random.Generator(bit_generator)
    state = bit_generator.state
    state["state"]["counter"][0] = start // 4
    for seed, row in zip(seeds, out):
        state["state"]["key"][0] = _key(seed)
        bit_generator.state = state
        generator.random(out=row)
    return out[:, skip:]
