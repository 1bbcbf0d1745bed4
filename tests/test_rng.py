"""The Philox key port, pinned to numpy's own SeedSequence as the oracle, and the
batched resampling indices, pinned to numpy's own ``Generator.integers``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leanreg import rng
from leanreg.bootstrap import chunk_size
from leanreg.exceptions import DomainError
from leanreg.rng import philox_keys, resample_indices, spawn_seeds, substream, substreams

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
SEEDS = st.integers(0, 2**128 - 1)
PATHS = st.lists(st.integers(0, 2**40), max_size=3).map(tuple)
# Index ranges near 0, anywhere below 2^40, and across 2^32, where an
# index gains a second uint32 word of entropy.
STARTS = st.integers(0, 20) | st.integers(0, 2**40) | st.integers(2**32 - 8, 2**32 + 8)


def oracle(seed, *path) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=path)


def oracle_stream(seed, *path) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(oracle(seed, *path)))


def draws(gen: np.random.Generator) -> list:
    # Five 32-bit floats leave half a 64-bit word buffered, which a reset
    # must discard.  They come first: a stale word read as 0 by bounded
    # integers would be rejected and redrawn, hiding a missed reset.
    return [
        gen.random(5, dtype=np.float32),
        gen.integers(0, 1000, size=17),
        gen.random(5),
        gen.standard_normal(9),
        gen.choice(4, size=11, p=[0.1, 0.2, 0.3, 0.4]),
    ]


def assert_same_draws(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


class TestKeyPort:
    @PROPERTY
    @given(seed=SEEDS, path=PATHS, start=STARTS, count=st.integers(0, 12))
    def test_keys_match_seed_sequence(self, seed, path, start, count):
        indices = np.arange(start, start + count, dtype=np.uint64)
        keys = philox_keys(seed, path, indices)
        assert keys.dtype == np.uint64
        assert keys.shape == (count, 2)
        for key, b in zip(keys, range(start, start + count)):
            assert np.array_equal(key, oracle(seed, *path, b).generate_state(2, np.uint64))

    @PROPERTY
    @given(seed=SEEDS, path=PATHS)
    def test_one_address_matches_seed_sequence(self, seed, path):
        assert_same_draws(draws(substream(seed, *path)), draws(oracle_stream(seed, *path)))

    @PROPERTY
    @given(seed=SEEDS, path=PATHS, count=st.integers(0, 6))
    def test_reused_generator_draws_as_a_fresh_one(self, seed, path, count):
        got = [draws(gen) for gen in substreams(seed, *path, count=count)]
        assert len(got) == count
        for b, drawn in enumerate(got):
            assert_same_draws(drawn, draws(oracle_stream(seed, *path, b)))
        assert spawn_seeds(seed, *path, count=count) == [
            int(oracle(seed, *path, b).generate_state(1, np.uint64)[0]) for b in range(count)
        ]


class TestAddressDomain:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: substream(-1),
            lambda: substream(3, 0, -2),
            lambda: substreams(-1, count=3),
            lambda: substreams(4, -1, count=3),
            lambda: spawn_seeds(7, -2, count=3),
            lambda: philox_keys(1, (), [0, -1]),
            lambda: philox_keys(1, (), [2**64]),
            lambda: resample_indices(1, 0, 1, 2**32 + 1),
        ],
        ids=["seed", "path", "substreams_seed", "substreams_path",
             "spawn_seeds_path", "index", "index_beyond_64_bits", "resample_n_beyond_32_bits"],
    )
    def test_rejected_with_domain_error(self, call):
        with pytest.raises(DomainError):
            call()

    def test_seeds_beyond_64_bits_keep_working(self):
        seed = 2**64 + 12345
        assert_same_draws(draws(substream(seed, 2)), draws(oracle_stream(seed, 2)))


# n = 98304 = 3 * 2^15 rejects about 1.5 halves per row of n draws, so
# most of its rows take the redraw.
SIZES = st.sampled_from([1, 2, 2000, 98304]) | st.integers(1, 999).map(lambda k: 2 * k + 1)


def integers_oracle(seed, b, n):
    return substream(seed, b).integers(0, n, size=n)


def assert_rows_match(got, seed, indices, n):
    assert got.shape == (len(indices), n)
    for row, b in zip(got, indices, strict=True):
        want = integers_oracle(seed, b, n)
        assert row.dtype == want.dtype
        assert np.array_equal(row, want)


def assert_blocks_match(blocks, seed, B, size, n):
    # Blocks of ``size`` consecutive replicates from 0, the last holding the rest.
    edges = [*range(0, B, size), B]
    assert len(blocks) == len(edges) - 1
    for got, lo, hi in zip(blocks, edges, edges[1:]):
        assert_rows_match(got, seed, range(lo, hi), n)


class TestResampleIndices:
    @PROPERTY
    @given(seed=SEEDS, n=SIZES, B=st.integers(0, 13), size=st.integers(1, 5))
    def test_consecutive_ranges_match_generator_integers(self, seed, n, B, size):
        # Blocks share one run of streams; each must start where the one
        # before it stopped.
        assert_blocks_match(list(resample_indices(seed, B, size, n)), seed, B, size, n)

    @PROPERTY
    @given(
        seed=SEEDS,
        n=st.sampled_from([2000, 98304]) | st.integers(50, 499).map(lambda k: 2 * k + 1),
        chunks=st.integers(1, 2),
        edge=st.integers(-1, 1),
    )
    def test_chunks_match_generator_integers(self, seed, n, chunks, edge):
        # B one short of, at and one past a whole number of chunks.
        size = chunk_size(n)
        B = max(1, chunks * size + edge)
        assert_blocks_match(list(resample_indices(seed, B, size, n)), seed, B, size, n)

    def test_rejected_rows_are_redrawn(self, monkeypatch):
        redrawn = []

        def counting(gen, n):
            redrawn.append(n)
            return accepted(gen, n)

        accepted = rng._accepted
        monkeypatch.setattr(rng, "_accepted", counting)
        seed, n = 2**100 + 5, 98304
        blocks = list(resample_indices(seed, 6, 3, n))
        assert len(redrawn) >= 2
        assert_blocks_match(blocks, seed, 6, 3, n)

    def test_halves_are_numpys_32_bit_draws(self):
        # Low half first.  At n = 2^32, the largest n resampled, the
        # multiply-shift returns the half itself, as numpy does; a row of
        # 2^32 draws would take 32 GiB, so this pins that case.
        words = np.array([0x0123456789ABCDEF, 0xFFFFFFFF00000000], dtype=np.uint64)
        assert rng._halves(words).tolist() == [0x89ABCDEF, 0x01234567, 0, 0xFFFFFFFF]
        halves = rng._halves(substream(3).bit_generator.random_raw(4))
        assert np.array_equal(halves, substream(3).integers(0, 2**32, size=8, dtype=np.uint64))


# Philox4x64-10's multipliers and key increments (Random123, as numpy uses them).
PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
MASK64 = 2**64 - 1


def positioned_philox(key, block) -> np.random.Generator:
    """A Philox generator with ``key`` whose next four raw words are ``block``.

    Each Philox round is invertible for a known key (its multipliers are
    odd), so the rounds run backwards from ``block`` give the counter
    that produces it; numpy increments its counter before each block.
    """
    x = list(block)
    for r in reversed(range(10)):
        k0, k1 = ((k + r * w) & MASK64 for k, w in zip(key, PHILOX_W))
        x0 = x[3] * pow(PHILOX_M[0], -1, 2**64) & MASK64
        x2 = x[1] * pow(PHILOX_M[1], -1, 2**64) & MASK64
        x = [x0, x[0] ^ (PHILOX_M[1] * x2 >> 64) ^ k0, x2, x[2] ^ (PHILOX_M[0] * x0 >> 64) ^ k1]
    counter = (sum(v << 64 * i for i, v in enumerate(x)) - 1) % 2**256
    gen = np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
    state = gen.bit_generator.state
    state["state"]["counter"] = np.array([counter >> 64 * i & MASK64 for i in range(4)], dtype=np.uint64)
    state["buffer_pos"] = 4
    gen.bit_generator.state = state
    return gen


class TestRejectionBoundary:
    @PROPERTY
    @given(
        key=st.tuples(st.integers(0, MASK64), st.integers(0, MASK64)),
        n=st.integers(1, 2**31 - 1).map(lambda k: 2 * k + 1),
        data=st.data(),
    )
    def test_numpy_rejects_exactly_below_the_threshold(self, key, n, data):
        # For odd n every low product word is reached by exactly one
        # half.  The half at the threshold and the one just below it
        # are put first in a Philox block, an accepted half after them;
        # numpy's first draw shows which of them it rejects.
        inverse = pow(n, -1, 2**32)
        threshold = (2**32 - n) % n
        accepted = data.draw(st.integers(threshold, 2**32 - 1)) * inverse % 2**32
        for low, rejected in ((threshold - 1, True), (threshold, False)):
            half = low * inverse % 2**32
            block = [half | accepted << 32, 0, 0, 0]
            gen = positioned_philox(key, block)
            assert gen.bit_generator.random_raw(4).tolist() == block
            want = positioned_philox(key, block).integers(0, n, size=1)
            values = rng._halves(np.array(block[:1], dtype=np.uint64))
            rejects = rng._lemire(values, n)
            assert rejects.tolist() == [rejected, False]
            assert np.array_equal(values[~rejects][:1], want)
