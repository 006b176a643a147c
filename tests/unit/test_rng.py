"""Tests for repro.core.rng."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rng import DerivedStreams, RngStreams, name_digest


class TestRngStreams:
    def test_same_seed_same_stream_sequence(self):
        a = RngStreams(42).stream("topology")
        b = RngStreams(42).stream("topology")
        assert a.random(5).tolist() == b.random(5).tolist()

    def test_different_seeds_differ(self):
        a = RngStreams(1).stream("topology")
        b = RngStreams(2).stream("topology")
        assert a.random(5).tolist() != b.random(5).tolist()

    def test_streams_are_independent_of_creation_order(self):
        first = RngStreams(7)
        first.stream("a")
        x = first.stream("b").random(3).tolist()
        second = RngStreams(7)
        y = second.stream("b").random(3).tolist()
        assert x == y

    def test_different_names_give_different_sequences(self):
        streams = RngStreams(7)
        assert (
            streams.stream("a").random(5).tolist()
            != streams.stream("b").random(5).tolist()
        )

    def test_stream_is_cached(self):
        streams = RngStreams(7)
        assert streams.stream("x") is streams.stream("x")

    def test_fork_is_deterministic_and_uncached(self):
        streams = RngStreams(7)
        a = streams.fork("probe", 3).random(4).tolist()
        b = streams.fork("probe", 3).random(4).tolist()
        assert a == b
        assert streams.fork("probe", 3) is not streams.fork("probe", 3)

    def test_fork_indices_differ(self):
        streams = RngStreams(7)
        assert (
            streams.fork("probe", 0).random(4).tolist()
            != streams.fork("probe", 1).random(4).tolist()
        )

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            RngStreams(-1)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            RngStreams(0).stream("")

    def test_seed_property(self):
        assert RngStreams(99).seed == 99

    def test_repr_mentions_seed(self):
        assert "seed=5" in repr(RngStreams(5))


def reference_draws(entropy, digest, lengths):
    """Consecutive ``random`` calls on the per-digest NumPy generator."""
    generator = np.random.default_rng(
        np.random.SeedSequence(entropy=entropy, spawn_key=(digest,))
    )
    return [generator.random(length).tolist() for length in lengths]


#: Entropies of one 32-bit word, several, and more than the 4-word pool.
ENTROPIES = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**128 - 1),
    st.integers(2**128, 2**200),
)
#: Digests of one spawn word and of two, with the split's edges.
DIGESTS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63 - 1]),
    st.integers(0, 2**63 - 1),
)
#: Phase lengths up to past a fresh instance's 64-step jump table.
LENGTHS = st.integers(0, 140)


class TestDerivedStreams:
    @given(
        entropy=ENTROPIES,
        lanes=st.lists(st.tuples(DIGESTS, LENGTHS, LENGTHS), max_size=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_two_phases_equal_numpy_generators(self, entropy, lanes):
        streams = DerivedStreams(entropy)
        digests = np.array([digest for digest, _, _ in lanes], dtype=np.uint64)
        first = np.array([length for _, length, _ in lanes], dtype=np.int64)
        second = np.array([length for _, _, length in lanes], dtype=np.int64)
        batch = streams.lanes(digests)
        got_first = batch.random(np.zeros_like(first), first).tolist()
        got_second = batch.random(first, second).tolist()
        expected_first: list = []
        expected_second: list = []
        for digest, head, tail in lanes:
            head_draws, tail_draws = reference_draws(entropy, digest, [head, tail])
            expected_first += head_draws
            expected_second += tail_draws
        assert got_first == expected_first
        assert got_second == expected_second

    def test_jump_tables_grow_across_batches(self):
        """A later batch reaching past the tables an earlier one grew
        still matches, and so do short draws read from grown tables."""
        streams = DerivedStreams(7)
        digests = np.array([3, 2**40 + 9], dtype=np.uint64)
        for lengths in ([5, 0], [300, 70], [2, 1000], [1, 1]):
            counts = np.array(lengths, dtype=np.int64)
            got = streams.lanes(digests).random(np.zeros_like(counts), counts)
            expected = [
                draw
                for digest, length in zip(digests.tolist(), lengths)
                for draw in reference_draws(7, digest, [length])[0]
            ]
            assert got.tolist() == expected

    def test_draws_span_several_blocks(self):
        """A phase longer than one array pass (8192 draws) is computed in
        blocks that split lanes; every block matches."""
        digests = np.arange(600, dtype=np.uint64) * np.uint64(2**40 + 3)
        counts = np.full(600, 30, dtype=np.int64)
        batch = DerivedStreams(7).lanes(digests)
        head = batch.random(np.zeros_like(counts), counts).tolist()
        tail = batch.random(counts, counts).tolist()
        expected_head: list = []
        expected_tail: list = []
        for digest in digests.tolist():
            first, second = reference_draws(7, digest, [30, 30])
            expected_head += first
            expected_tail += second
        assert head == expected_head
        assert tail == expected_tail

    def test_empty_digest_array(self):
        batch = DerivedStreams(7).lanes(np.array([], dtype=np.uint64))
        empty = np.array([], dtype=np.int64)
        assert batch.random(empty, empty).shape == (0,)

    def test_zero_length_phases(self):
        batch = DerivedStreams(7).lanes(np.array([1, 2], dtype=np.uint64))
        zeros = np.zeros(2, dtype=np.int64)
        assert batch.random(zeros, zeros).shape == (0,)

    def test_matches_rng_streams_stream(self):
        """``RngStreams.stream`` derives the same generator."""
        digest = np.array([name_digest("planner")], dtype=np.uint64)
        got = DerivedStreams(11).lanes(digest).random(
            np.zeros(1, dtype=np.int64), np.array([9])
        )
        assert got.tolist() == RngStreams(11).stream("planner").random(9).tolist()

    def test_negative_entropy_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            DerivedStreams(-1)
