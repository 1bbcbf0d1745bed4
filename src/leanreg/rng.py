"""Deterministic random-number substreams.

All randomness in leanreg flows through Philox (a counter-based
generator) keyed by ``numpy.random.SeedSequence``.  A substream is
addressed by an integer seed plus an index path, e.g. ``(seed, b)`` for
bootstrap replicate ``b``.  Streams depend only on their address, never
on execution order, so a replicate's draws depend only on its address:
not on how many replicates a run makes or how they are grouped for
computation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["substream", "spawn_seed"]


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the Philox generator addressed by ``(seed, *path)``.

    The same address always yields the same stream; distinct addresses
    yield statistically independent streams.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in path))
    return np.random.Generator(np.random.Philox(ss))


def spawn_seed(seed: int, *path: int) -> int:
    """Derive a child integer seed from ``(seed, *path)``.

    Used when a sub-task (e.g. the bootstrap inside one coverage
    replication) itself takes an integer seed: the child seed is a pure
    function of the address, keeping the whole run reproducible.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in path))
    return int(ss.generate_state(1, np.uint64)[0])
