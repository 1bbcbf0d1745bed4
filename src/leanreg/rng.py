"""Deterministic random-number substreams.

All randomness in leanreg flows through Philox (a counter-based
generator).  A substream is addressed by an integer seed plus an index
path, e.g. ``(seed, b)`` for bootstrap replicate ``b``, and its Philox
key is the one ``numpy.random.SeedSequence(seed, spawn_key=path)``
derives.  Streams depend only on their address, never on execution
order, so a replicate's draws depend only on its address: not on how
many replicates a run makes or how they are grouped for computation.

The key derivation is a port of ``SeedSequence``'s ``mix_entropy`` and
``generate_state`` on uint32 words.  The same code runs on Python ints,
for one address, and on uint32 arrays, for the last index of a whole
range of addresses at once; the tests pin it to ``SeedSequence`` itself.
Replicate loops draw from :func:`substreams`, which resets one Philox
generator to each derived key instead of building a generator per
replicate.

Bootstrap resampling indices come from :func:`resample_indices`, which
yields replicates 0 .. B-1 in blocks of one size, each drawn at once:
raw 64-bit Philox words, each split into its low and then its high
32-bit half, mapped to ``range(n)`` by Lemire's multiply-shift ``(half
* n) >> 32``.  That is exactly what ``Generator.integers(0, n, size=n)``
computes, so each row keeps the bits numpy would draw; a row in which
numpy would reject a half is drawn again on its own, keeping only the
accepted halves, as numpy does.
"""

from __future__ import annotations

import numpy as np

from .core import check_integer
from .exceptions import DomainError

__all__ = ["philox_keys", "substream", "substreams", "spawn_seeds", "resample_indices"]

# SeedSequence's constants (numpy/random/bit_generator.pyx).
POOL_SIZE = 4
MASK32 = 0xFFFFFFFF
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715
XSHIFT = 16

# Every operation below is written so that it is exact on Python ints
# (masked to 32 bits) and on uint32 arrays (which wrap modulo 2^32, so
# the mask changes nothing).


def _hashmix(value, const: int):
    """``(hashmix(value), next hash constant)``."""
    value = value ^ const
    const = const * MULT_A & MASK32
    value = value * const & MASK32
    return value ^ value >> XSHIFT, const


def _mix(x, y):
    result = (MIX_MULT_L * x - MIX_MULT_R * y) & MASK32
    return result ^ result >> XSHIFT


def _absorb(pool: list, const: int, word):
    """Mix one entropy word past the first ``POOL_SIZE`` into every pool word."""
    for dst in range(POOL_SIZE):
        hashed, const = _hashmix(word, const)
        pool[dst] = _mix(pool[dst], hashed)
    return const


def _words(value) -> list[int]:
    """A non-negative integer as SeedSequence reads it: little-endian uint32 words."""
    value = int(value)
    if value < 0:
        raise DomainError(f"seeds and stream indices must be non-negative, got {value}")
    words = [value & MASK32]
    while value := value >> 32:
        words.append(value & MASK32)
    return words


def _prefix(seed, path) -> tuple[list[int], int]:
    """Entropy pool and hash constant after mixing in ``(seed, *path)``."""
    check_integer(seed, "seed", 0)
    entropy = _words(seed)
    # SeedSequence pads the seed's words to the pool size with zeros
    # when a spawn key follows; without one, hashing the missing words
    # as zeros gives the same pool, so padding is always exact.
    entropy += [0] * (POOL_SIZE - len(entropy))
    for k in path:
        entropy += _words(k)
    const = INIT_A
    pool = []
    for word in entropy[:POOL_SIZE]:
        hashed, const = _hashmix(word, const)
        pool.append(hashed)
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                hashed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], hashed)
    for word in entropy[POOL_SIZE:]:
        const = _absorb(pool, const, word)
    return pool, const


def _keys(pool: list):
    """``generate_state(2, np.uint64)`` of a pool: the two 64-bit Philox key words."""
    const = INIT_B
    state = []
    for i in range(4):  # four uint32 words, low word first
        value = pool[i % POOL_SIZE] ^ const
        const = const * MULT_B & MASK32
        value = value * const & MASK32
        state.append(np.asarray(value ^ value >> XSHIFT, dtype=np.uint64))
    return [lo | hi << np.uint64(32) for lo, hi in (state[0:2], state[2:4])]


def philox_keys(seed: int, path, indices) -> np.ndarray:
    """Philox keys of the addresses ``(seed, *path, b)`` for each b in ``indices``, shape (m, 2).

    Row i equals ``SeedSequence(seed, spawn_key=(*path, indices[i]))
    .generate_state(2, np.uint64)``.  The pool after ``(seed, *path)`` is
    shared; only the words of each b are mixed as arrays.  Each b must
    be below 2^64; a seed that is not an integer, or a negative seed,
    path entry or index, raises :class:`~leanreg.exceptions.DomainError`.
    """
    pool, const = _prefix(seed, path)
    b = np.asarray(indices)
    if b.size and (b.dtype.kind not in "iu" or b.min() < 0):
        raise DomainError("stream indices must be non-negative integers below 2^64")
    b = b.astype(np.uint64).ravel()
    # b is one uint32 word, or two where b >= 2^32.
    lo = (b & np.uint64(MASK32)).astype(np.uint32)
    hi = (b >> np.uint64(32)).astype(np.uint32)
    pool = [np.full(b.shape, p, dtype=np.uint32) for p in pool]
    const = _absorb(pool, const, lo)
    if hi.any():
        extended = list(pool)
        _absorb(extended, const, hi)
        pool = [np.where(hi > 0, e, p) for e, p in zip(extended, pool)]
    return np.stack(_keys(pool), axis=-1)


def spawn_seeds(seed: int, *path: int, count: int) -> list[int]:
    """Child integer seeds of the addresses ``(seed, *path, b)`` for b = 0 .. count-1.

    For a sub-task that itself takes an integer seed (the bootstrap
    inside one coverage replication), child b is the first word of
    address b's Philox key, ``SeedSequence(seed, spawn_key=(*path,
    b)).generate_state(1, np.uint64)[0]``: a pure function of the
    address, so the whole run stays reproducible.
    """
    check_integer(count, "count", 0)
    return philox_keys(seed, path, np.arange(count))[:, 0].tolist()


def _streams(keys):
    """One generator, put in the state of a fresh Philox with each row of the (m, 2) ``keys`` in turn."""
    # An integer seed spares the OS entropy a seedless Philox would
    # draw; every draw comes after a reset.  The state holds Python
    # ints, which the setter reads faster than numpy scalars.
    gen = np.random.Generator(np.random.Philox(0))
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0] * 4, "key": None},
        "buffer": [0] * 4,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for lo in range(0, len(keys), 128):  # 128 keys at a time: as Python ints a key takes ~150 bytes
        for key in keys[lo : lo + 128].tolist():
            state["state"]["key"] = key
            gen.bit_generator.state = state
            yield gen


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the Philox generator addressed by ``(seed, *path)``.

    The same address always yields the same stream; distinct addresses
    yield statistically independent streams.
    """
    return next(_streams(np.array([_keys(_prefix(seed, path)[0])], dtype=np.uint64)))


def substreams(seed: int, *path: int, count: int):
    """Yield the generators of ``(seed, *path, b)`` for b = 0 .. count-1, in order.

    Each yielded generator draws exactly what ``substream(seed, *path,
    b)`` would.  It is one generator object, reset to the next key on
    every step, so draw from it before advancing the iterator.  The
    keys are derived (and the address validated) when this is called.
    """
    check_integer(count, "count", 0)
    return _streams(philox_keys(seed, path, np.arange(count)))


def _halves(words: np.ndarray) -> np.ndarray:
    """The 32-bit halves of 64-bit words in the order numpy reads them, low half first.

    Arithmetic, not a view of the bytes, so byte order cannot matter.
    """
    halves = np.empty((*words.shape[:-1], 2 * words.shape[-1]), dtype=np.uint64)
    np.bitwise_and(words, MASK32, out=halves[..., 0::2])
    np.right_shift(words, 32, out=halves[..., 1::2])
    return halves


def _lemire(halves: np.ndarray, n: int) -> np.ndarray:
    """Map each 32-bit half to ``range(n)`` in place; return the mask of halves numpy rejects.

    The value is Lemire's multiply-shift ``(half * n) >> 32``; numpy
    rejects a half whose low product word is below ``(2**32 - n) % n``,
    which leaves every value equally likely.  The cast to uint32 keeps
    the low word.
    """
    halves *= np.uint64(n)
    rejected = halves.astype(np.uint32) < (2**32 - n) % n
    halves >>= np.uint64(32)
    return rejected


def _accepted(gen: np.random.Generator, n: int) -> np.ndarray:
    """n values of ``gen.integers(0, n, size=n)``, rejections and all."""
    kept = np.empty(0, dtype=np.uint64)
    while kept.size < n:
        values = _halves(gen.bit_generator.random_raw(n // 2 + 1))
        rejected = _lemire(values, n)
        kept = np.concatenate([kept, values[~rejected]])
    return kept[:n]


def resample_indices(seed: int, B: int, size: int, n: int):
    """Yield the n draws from ``range(n)`` of replicates 0 .. B-1, ``size`` replicates a block.

    Every block has ``size`` rows but the last, and row b of the
    concatenated blocks equals ``substream(seed, b).integers(0, n,
    size=n)``, bit for bit, as the tests pin.  Each stream gives
    ``ceil(n / 2)`` raw words in one call, and one multiply-shift maps a
    whole block.  A rejected half makes numpy draw another, which shifts
    the rest of its row; such a row, which has probability below n^2 /
    2^32, is drawn again from its key.  The keys of all B replicates are
    derived when this is called; n must lie in 1 .. 2^32, where numpy
    maps 32-bit halves.  Only the block a caller holds stays in memory.
    """
    check_integer(B, "B", 0)
    check_integer(size, "size", 1)
    check_integer(n, "n", 1)
    n = int(n)
    if n > 2**32:
        raise DomainError(f"n must be at most 2^32 to resample by 32-bit halves, got {n}")
    return _index_blocks(philox_keys(seed, (), np.arange(B, dtype=np.uint64)), int(size), n)


def _index_blocks(keys: np.ndarray, size: int, n: int):
    """The index blocks of :func:`resample_indices`: ``size`` keys a block, one stream per row."""
    streams = _streams(keys)
    count = (n + 1) // 2
    for lo in range(0, len(keys), size):
        block = keys[lo : lo + size]
        words = np.array([gen.bit_generator.random_raw(count) for _, gen in zip(range(len(block)), streams)])
        values = _halves(words)[:, :n]
        redraw = np.flatnonzero(np.any(_lemire(values, n), axis=1))
        for r, gen in zip(redraw, _streams(block[redraw])):
            values[r] = _accepted(gen, n)
        # Every value is below 2^32, so the signed view reads the same numbers.
        yield values.view(np.int64)
