"""Deterministic random-number streams.

Every stochastic component of the simulation draws from its own named
stream derived from a single master seed.  This keeps experiments
reproducible (same seed => same dataset) while preventing accidental
coupling between components: adding draws to the topology generator does
not perturb the last-mile latency sequence, for example.
:class:`DerivedStreams` computes the draws of many derived streams at
once, for callers that need thousands of them.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

#: NumPy's ``SeedSequence`` hashing and mixing constants
#: (``numpy/random/bit_generator.pyx``) and its pool size in words.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_POOL_SIZE = 4

#: The 128-bit LCG multiplier of NumPy's ``PCG64``.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = 2**128 - 1

#: Jump-table length a :class:`DerivedStreams` starts with; it doubles
#: whenever a draw reaches past it.
_INITIAL_JUMPS = 64
#: Draws computed per array pass.
_BLOCK = 8192

# Typed operands: NumPy converts a Python int operand on every call,
# which doubles the cost of an operation on a short array.
_U32_16 = np.uint32(16)
_U64_1 = np.uint64(1)
_U64_11 = np.uint64(11)
_U64_32 = np.uint64(32)
_U64_58 = np.uint64(58)
_U64_63 = np.uint64(63)
_U64_LOW32 = np.uint64(0xFFFFFFFF)

_Const = Union[np.uint32, np.ndarray]


def name_digest(name: str) -> int:
    """A stable, platform-independent 63-bit digest of a stream name.

    Used as the ``spawn_key`` of derived seed sequences so the mapping
    from name to stream is identical across processes and Python
    versions (unlike :func:`hash`, which is salted).
    """
    digest = 0
    for ch in name:
        digest = (digest * 1_000_003 + ord(ch)) % (2**63)
    return digest


class RngStreams:
    """A factory of independent, named :class:`numpy.random.Generator`.

    Streams are derived with ``SeedSequence.spawn``-style child sequences
    keyed by a stable hash of the stream name, so the mapping from name to
    stream is independent of creation order.
    """

    def __init__(self, seed: int) -> None:
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The master seed this factory was created with."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same name always maps to the same underlying sequence for a
        given master seed, regardless of how many other streams exist.
        """
        if not name:
            raise ValueError("stream name must be a non-empty string")
        if name not in self._streams:
            digest = name_digest(name)
            seq = np.random.SeedSequence(entropy=self._seed, spawn_key=(digest,))
            self._streams[name] = np.random.default_rng(seq)
        return self._streams[name]

    def fork(self, name: str, index: int) -> np.random.Generator:
        """A per-entity generator, e.g. one stream per probe.

        Unlike :meth:`stream` the result is not cached; callers own it.
        """
        digest = name_digest(name)
        seq = np.random.SeedSequence(
            entropy=self._seed, spawn_key=(digest, int(index))
        )
        return np.random.default_rng(seq)

    def __repr__(self) -> str:
        return f"RngStreams(seed={self._seed}, open_streams={len(self._streams)})"


def _hash(value: np.ndarray, before: _Const, after: _Const) -> np.ndarray:
    """``SeedSequence``'s ``hashmix`` on uint32 words, given its hash
    constant's value before and after the call."""
    value = (value ^ before) * after
    return value ^ (value >> _U32_16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s ``mix`` of pool words with hashed words."""
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _U32_16)


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The first ``count + 1`` values of a ``SeedSequence`` hash
    constant: ``init``, multiplied by ``mult`` once per hash."""
    constants = [init]
    for _ in range(count):
        constants.append(constants[-1] * mult & 0xFFFFFFFF)
    return np.array(constants, dtype=np.uint32)


def _mul128(
    a_hi: np.ndarray, a_lo: np.ndarray, b_hi: np.ndarray, b_lo: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Products modulo 2**128 of 128-bit values held as uint64 limbs."""
    # High word of a_lo * b_lo from 32-bit partial products.
    a0 = a_lo & _U64_LOW32
    a1 = a_lo >> _U64_32
    b0 = b_lo & _U64_LOW32
    b1 = b_lo >> _U64_32
    cross_ab = a0 * b1
    cross_ba = a1 * b0
    mid = (
        ((a0 * b0) >> _U64_32)
        + (cross_ab & _U64_LOW32)
        + (cross_ba & _U64_LOW32)
    )
    carry = a1 * b1 + (cross_ab >> _U64_32) + (cross_ba >> _U64_32)
    hi = carry + (mid >> _U64_32) + a_hi * b_lo + a_lo * b_hi
    return hi, a_lo * b_lo


def _add128(
    a_hi: np.ndarray, a_lo: np.ndarray, b_hi: np.ndarray, b_lo: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Sums modulo 2**128 of 128-bit values held as uint64 limbs."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _limbs(values: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """128-bit ints as (high, low) uint64 arrays."""
    return (
        np.array([value >> 64 for value in values], dtype=np.uint64),
        np.array([value & 0xFFFFFFFFFFFFFFFF for value in values], dtype=np.uint64),
    )


class DerivedStreams:
    """Batch form of the generators derived from one entropy.

    For an entropy ``e`` and digests ``d``, :meth:`lanes` and
    :meth:`DerivedLanes.random` return, bit for bit, the uniforms of
    ``np.random.default_rng(np.random.SeedSequence(entropy=e,
    spawn_key=(d,)))``, for a whole array of digests in a fixed number
    of array passes instead of one ``SeedSequence`` and one
    ``Generator`` per digest:

    - the ``SeedSequence`` pool after the run-entropy words, and the
      hash constants that follow, are computed once here; each lane
      mixes in only its spawn words, one 32-bit word for a digest below
      2**32 and two above, as NumPy splits them;
    - ``generate_state(4, uint64)`` runs per lane and gives the initial
      state ``init`` and the increment ``inc`` of ``PCG64``;
    - draw ``k`` of a lane is the XSL-RR output, as the double
      ``(x >> 11) * 2**-53``, of its state after seeding and ``k + 1``
      LCG steps.  Seeding is two steps from 0 with ``init`` added after
      the first, so that state is ``M**(k+2) * init + C_(k+3) * inc mod
      2**128`` with ``C_j = 1 + M + ... + M**(j-1)``, from jump tables
      that grow on demand.

    The per-digest generator is the reference it is tested against.
    """

    def __init__(self, entropy: int) -> None:
        if entropy < 0:
            raise ValueError(f"entropy must be non-negative, got {entropy}")
        # SeedSequence's coercion of an int: little-endian 32-bit words
        # ([0] for zero), zero-padded to the pool when a spawn key
        # follows.
        words = [entropy & 0xFFFFFFFF]
        rest = entropy >> 32
        while rest:
            words.append(rest & 0xFFFFFFFF)
            rest >>= 32
        words += [0] * (_POOL_SIZE - len(words))
        # One hash per pool word, one per ordered pair of pool words,
        # one per pool word for each entropy word past the pool, then
        # the same for each of the (up to two) spawn words.
        calls = _POOL_SIZE * (len(words) + 2)
        consts = _hash_constants(_INIT_A, _MULT_A, calls)
        call = 0
        pool: List[np.ndarray] = []
        for word in words[:_POOL_SIZE]:
            value = np.array([word], dtype=np.uint32)
            pool.append(_hash(value, consts[call], consts[call + 1]))
            call += 1
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    hashed = _hash(pool[src], consts[call], consts[call + 1])
                    pool[dst] = _mix(pool[dst], hashed)
                    call += 1
        for word in words[_POOL_SIZE:]:
            value = np.array([word], dtype=np.uint32)
            for dst in range(_POOL_SIZE):
                hashed = _hash(value, consts[call], consts[call + 1])
                pool[dst] = _mix(pool[dst], hashed)
                call += 1
        self._pool = np.concatenate(pool)[:, None]
        #: (before, after) hash constants of each spawn word, one row
        #: per pool word.
        self._spawn_consts = [
            (
                consts[start : start + _POOL_SIZE, None],
                consts[start + 1 : start + 1 + _POOL_SIZE, None],
            )
            for start in (call, call + _POOL_SIZE)
        ]
        #: ... and of generate_state's eight output words.
        state = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
        self._state_consts = (state[:-1, None], state[1:, None])
        self._jumps = self._jump_tables(_INITIAL_JUMPS)

    @staticmethod
    def _jump_tables(size: int) -> Tuple[np.ndarray, np.ndarray]:
        """High and low limbs of ``[M**i, C_(i+1)]`` for ``i < size``, as
        two ``(2, size)`` arrays."""
        powers = [1]
        sums = [1]
        for _ in range(size - 1):
            powers.append(powers[-1] * _PCG_MULT & _MASK128)
            sums.append((sums[-1] * _PCG_MULT + 1) & _MASK128)
        power_hi, power_lo = _limbs(powers)
        sum_hi, sum_lo = _limbs(sums)
        return np.stack([power_hi, sum_hi]), np.stack([power_lo, sum_lo])

    def jumps(self, index: int) -> Tuple[np.ndarray, np.ndarray]:
        """The jump tables, grown to hold ``index``."""
        size = self._jumps[0].shape[1]
        if index >= size:
            while index >= size:
                size *= 2
            self._jumps = self._jump_tables(size)
        return self._jumps

    def lanes(self, digests: np.ndarray) -> "DerivedLanes":
        """Seeded ``PCG64`` states, one lane per digest (below 2**64)."""
        digests = np.asarray(digests, dtype=np.uint64)
        low = (digests & _U64_LOW32).astype(np.uint32)
        high = (digests >> _U64_32).astype(np.uint32)
        before, after = self._spawn_consts[0]
        pool = _mix(self._pool, _hash(low, before, after))
        two_words = high != 0
        if two_words.any():
            before, after = self._spawn_consts[1]
            mixed = _mix(pool, _hash(high, before, after))
            pool = np.where(two_words, mixed, pool)
        before, after = self._state_consts
        words = _hash(pool[[0, 1, 2, 3, 0, 1, 2, 3]], before, after)
        words = words.astype(np.uint64)
        # The eight words read as four little-endian uint64s: the
        # initial state's and the sequence's high and low limbs.
        init_hi, init_lo, seq_hi, seq_lo = words[0::2] | (words[1::2] << _U64_32)
        inc_hi = (seq_hi << _U64_1) | (seq_lo >> _U64_63)
        inc_lo = (seq_lo << _U64_1) | _U64_1
        return DerivedLanes(
            self, np.stack([init_hi, inc_hi]), np.stack([init_lo, inc_lo])
        )


class DerivedLanes:
    """The ``PCG64`` seeds of one :meth:`DerivedStreams.lanes` batch, as
    ``(2, lanes)`` limb arrays of ``[init, inc]``."""

    def __init__(
        self, streams: DerivedStreams, hi: np.ndarray, lo: np.ndarray
    ) -> None:
        self._streams = streams
        self._hi = hi
        self._lo = lo

    def random(self, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Draws ``starts[i]`` to ``starts[i] + counts[i] - 1`` of every
        lane's stream (integer arrays, one entry per lane), concatenated
        in lane order.

        A phase that starts where an earlier one stopped continues the
        stream, as consecutive ``Generator.random`` calls do.
        """
        total = int(counts.sum())
        out = np.empty(total, dtype=np.float64)
        if total == 0:
            return out
        # Draw k reads [M**(k+2), C_(k+3)] at jump index k + 2.
        lane_of = np.repeat(np.arange(len(counts)), counts)
        first = starts - np.cumsum(counts) + counts
        index = np.arange(2, total + 2) + first[lane_of]
        table_hi, table_lo = self._streams.jumps(int((starts + counts).max()) + 1)
        # Blocks of draws small enough for the temporaries to stay in
        # cache (2.5x faster than one pass over a day's batch).
        for begin in range(0, total, _BLOCK):
            at = index[begin : begin + _BLOCK]
            lanes = lane_of[begin : begin + _BLOCK]
            # [M**(k+2), C_(k+3)] times [init, inc], then the rows summed.
            hi, lo = _mul128(
                table_hi[:, at],
                table_lo[:, at],
                self._hi[:, lanes],
                self._lo[:, lanes],
            )
            hi, lo = _add128(hi[0], lo[0], hi[1], lo[1])
            # XSL-RR output, then the 53-bit double.
            folded = hi ^ lo
            rotation = hi >> _U64_58
            folded = (folded >> rotation) | (folded << (-rotation & _U64_63))
            out[begin : begin + _BLOCK] = (folded >> _U64_11) * 2.0**-53
        return out
