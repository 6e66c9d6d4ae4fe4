"""Deterministic random-stream derivation.

All randomness in this package flows through counter-based Philox
generators keyed by a master seed plus an integer spawn key, so any
sub-computation can be reproduced in isolation and results are identical
across platforms and process schedules.
"""

import numpy as np

from .errors import ConfigError


def _seed_sequence(seed, key):
    # the one SeedSequence behind every stream and derived seed
    seed, key = int(seed), tuple(int(k) for k in key)
    if seed < 0 or any(k < 0 for k in key):
        raise ConfigError(f"seed and stream key must be nonnegative, got seed={seed}, key={key}")
    return np.random.SeedSequence(entropy=seed, spawn_key=key)


def stream(seed, *key):
    """Return a Generator for the substream identified by ``key``.

    ``seed`` is the master seed; ``key`` is a tuple of small nonnegative
    integers (for experiments: (experiment_id, d, n, trial)). The same
    (seed, key) pair always yields the same stream. A negative seed or key
    entry raises ConfigError.
    """
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, key)))


def substream_seed(seed, *key):
    """Derive a plain integer seed for APIs that take one.

    Hashes (seed, key) through SeedSequence into a single 64-bit value.
    """
    return int(_seed_sequence(seed, key).generate_state(1, np.uint64)[0])
