"""The Philox key port, pinned to numpy's own SeedSequence as the oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leanreg.exceptions import DomainError
from leanreg.rng import philox_keys, spawn_seeds, substream, substreams

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
        ],
        ids=["seed", "path", "substreams_seed", "substreams_path",
             "spawn_seeds_path", "index", "index_beyond_64_bits"],
    )
    def test_rejected_with_domain_error(self, call):
        with pytest.raises(DomainError):
            call()

    def test_seeds_beyond_64_bits_keep_working(self):
        seed = 2**64 + 12345
        assert_same_draws(draws(substream(seed, 2)), draws(oracle_stream(seed, 2)))
