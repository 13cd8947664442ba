"""Seed handling.

Every randomized operation takes an explicit seed.  Bit streams come from
the counter-based Philox generator, so a given seed produces the same
stream on every platform, and independent substreams are derived by
spawning children from a SeedSequence rather than by reusing or
incrementing integer seeds.

Seeds are treated as values: splitting the same seed twice yields the
same children.  numpy's SeedSequence.spawn is stateful (each call
advances an internal counter), so seed_sequence rebuilds a fresh
sequence from the identifying (entropy, spawn_key) pair instead of
handing back the caller's object.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParam


def seed_sequence(seed) -> np.random.SeedSequence:
    """A fresh SeedSequence for ``seed``; a seed numpy refuses (negative,
    fractional, a string), a bool or None (numpy would read 1 or OS entropy)
    raises InvalidParam naming it."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(entropy=seed.entropy, spawn_key=seed.spawn_key)
    if seed is None or isinstance(seed, bool):
        raise InvalidParam(f"seed {seed!r} is not a valid seed: pass an integer")
    try:
        return np.random.SeedSequence(seed)
    except (TypeError, ValueError) as exc:
        raise InvalidParam(f"seed {seed!r} is not a valid seed: {exc}") from None


def make_rng(seed) -> np.random.Generator:
    """Generator over the Philox stream identified by ``seed``."""
    return np.random.Generator(np.random.Philox(seed_sequence(seed)))


def split(seed, n: int) -> list[np.random.SeedSequence]:
    """``n`` independent child seeds derived from ``seed``, as a pure function."""
    return seed_sequence(seed).spawn(n)
