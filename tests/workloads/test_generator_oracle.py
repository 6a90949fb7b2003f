"""The batched stream builders against the scalar builders they replace.

``_ScalarStreamBuilder`` keeps the original per-access builders, which draw
every random number with one scalar ``Generator`` call.  The batched
builders must produce the same ``(is_write, tag)`` columns and leave the
generator in exactly the same state (``bit_generator.state``, including the
buffered 32-bit half-word) after every stream, so a trace built from many
streams on one generator is unchanged.  The golden trace pins only cover the
shipped profiles; the cases here cover the edges they miss: write and miss
fractions of 0 and 1, reuse windows 0..8 (window 0 draws no miss test,
window 1 draws no integer), deterministic and log-normal cold gaps, tag
spaces that wrap, tag-space exhaustion, and rejected integer draws.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.workloads.generator import _SetStreamBuilder


class _ScalarStreamBuilder(_SetStreamBuilder):
    """The builders as they were before batching: one scalar draw at a time."""

    def stable_stream(self, length):
        profile = self._profile
        random = self._rng.random
        write_fraction = profile.write_fraction
        gap_cap = max(length // 2, 1)
        hot_tags = [self._claim_tag() for _ in range(profile.hot_lines_per_set)]
        cold_tags = [self._claim_tag() for _ in range(profile.cold_lines_per_set)]
        tags = hot_tags + cold_tags
        is_write = [False] * len(tags)
        installed = len(tags)
        cold_next = [installed + min(self._sample_gap(), gap_cap) for _ in cold_tags]
        next_due = min(cold_next, default=length)
        hot_count = len(hot_tags)
        hot_cursor = 0
        position = installed
        while position < length:
            if next_due <= position:
                index = next(i for i, when in enumerate(cold_next) if when <= position)
                tags.append(cold_tags[index])
                is_write.append(False)
                position += 1
                cold_next[index] = position + min(self._sample_gap(), gap_cap)
                next_due = min(cold_next)
                continue
            tags.append(hot_tags[hot_cursor % hot_count])
            hot_cursor += 1
            is_write.append(random() < write_fraction)
            position += 1
        return is_write[:length], tags[:length]

    def churn_stream(self, length):
        profile = self._profile
        random = self._rng.random
        integers = self._rng.integers
        window = profile.churn_reuse_window
        live = self._live_tags
        tags = []
        is_write = []
        for i in range(length):
            is_write.append(random() < profile.write_fraction)
            reuse = min(i, window)
            if not reuse or random() < profile.churn_miss_fraction:
                tag = self._claim_tag()
            else:
                tag = tags[i - reuse + int(integers(reuse))]
            tags.append(tag)
            if i >= window:
                expired = tags[i - window]
                if expired not in tags[i - window + 1 :]:
                    live.discard(expired)
        return is_write, tags


def _profile(**fields):
    # A stand-in with the attributes the builders read: the real profile
    # rejects a reuse window of 0, which the draw replay must still handle.
    base = dict(
        write_fraction=0.3,
        churn_miss_fraction=0.3,
        churn_reuse_window=4,
        hot_lines_per_set=4,
        cold_lines_per_set=2,
        cold_gap_median=40.0,
        cold_gap_sigma=0.8,
    )
    base.update(fields)
    return SimpleNamespace(**base)


def _mapper(tag_bits):
    return SimpleNamespace(config=SimpleNamespace(tag_bits=tag_bits))


def _build(builder_class, kind, length, profile, tag_bits, rng):
    builder = builder_class(_mapper(tag_bits), 0, profile, rng)
    stream = builder.stable_stream if kind == "stable" else builder.churn_stream
    try:
        is_write, tags = stream(length)
    except TraceError as error:
        return "error", str(error)
    return [bool(value) for value in is_write], [int(value) for value in tags]


def _assert_same_streams(streams, profile, tag_bits, rng_factory):
    """Build ``streams`` on one generator per side; compare after each."""
    scalar_rng, batched_rng = rng_factory(), rng_factory()
    for kind, length in streams:
        expected = _build(_ScalarStreamBuilder, kind, length, profile, tag_bits, scalar_rng)
        actual = _build(_SetStreamBuilder, kind, length, profile, tag_bits, batched_rng)
        assert actual == expected, (kind, length)
        if expected[0] == "error":
            return  # the generator state after a failed stream is unspecified
        assert batched_rng.bit_generator.state == scalar_rng.bit_generator.state


fractions = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
stream_lists = st.lists(
    st.tuples(st.sampled_from(["stable", "churn"]), st.integers(1, 3000)),
    min_size=1,
    max_size=4,
)


@settings(max_examples=120, deadline=None)
@given(
    streams=stream_lists,
    write_fraction=fractions,
    miss_fraction=fractions,
    window=st.integers(0, 8),
    cold_gap_sigma=st.one_of(st.just(0.0), st.floats(0.05, 2.0)),
    cold_gap_median=st.floats(1.0, 400.0),
    hot_lines=st.integers(1, 6),
    cold_lines=st.integers(0, 3),
    tag_bits=st.sampled_from([3, 4, 20]),
    seed=st.integers(0, 2**32 - 1),
    warm_buffer=st.booleans(),
)
def test_batched_streams_equal_scalar_streams(
    streams,
    write_fraction,
    miss_fraction,
    window,
    cold_gap_sigma,
    cold_gap_median,
    hot_lines,
    cold_lines,
    tag_bits,
    seed,
    warm_buffer,
):
    profile = _profile(
        write_fraction=write_fraction,
        churn_miss_fraction=miss_fraction,
        churn_reuse_window=window,
        hot_lines_per_set=hot_lines,
        cold_lines_per_set=cold_lines,
        cold_gap_median=cold_gap_median,
        cold_gap_sigma=cold_gap_sigma,
    )

    def rng_factory():
        rng = np.random.default_rng(seed)
        if warm_buffer:
            rng.integers(3)  # leaves a buffered half-word behind
        return rng

    _assert_same_streams(streams, profile, tag_bits, rng_factory)


@pytest.mark.parametrize("window", [0, 1, 2, 3, 8])
@pytest.mark.parametrize("tag_bits", [3, 4])
def test_wrapping_tag_spaces_and_exhaustion(window, tag_bits):
    # Streaming misses only (7 or 15 usable tags): the counter wraps; a
    # window of 8 or more live tags exhausts a 3-bit space.
    profile = _profile(churn_miss_fraction=1.0, churn_reuse_window=window)
    _assert_same_streams(
        [("churn", 400), ("churn", 50)],
        profile,
        tag_bits,
        lambda: np.random.default_rng(11),
    )


def test_exhaustion_raises_the_same_error():
    profile = _profile(churn_miss_fraction=0.5, churn_reuse_window=8)
    rng = np.random.default_rng(5)
    builder = _SetStreamBuilder(_mapper(3), 0, profile, rng)
    with pytest.raises(TraceError, match="tag space exhausted"):
        builder.churn_stream(500)


#: PCG64 (XSL-RR 128/64) as numpy implements it: step, then output.
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_MASK64 = (1 << 64) - 1


def _output(state):
    rotation = state >> 122
    folded = ((state >> 64) ^ state) & _MASK64
    return ((folded >> rotation) | (folded << (64 - rotation))) & _MASK64


def _generator_emitting(word, at, has_uint32, uinteger):
    """A generator whose raw output number ``at`` (0-based) is ``word``."""
    high = 0x9E3779B97F4A7C15
    rotation = high >> 58
    folded = ((word << rotation) | (word >> (64 - rotation))) & _MASK64
    state = (high << 64) | (folded ^ high)
    assert _output(state) == word
    increment = 2 * 0x5851F42D4C957F2D + 1
    inverse = pow(_MULTIPLIER, -1, 1 << 128)
    for _ in range(at + 1):
        state = ((state - increment) * inverse) & _MASK128
    bit_generator = np.random.PCG64()
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": increment},
        "has_uint32": has_uint32,
        "uinteger": uinteger,
    }
    return np.random.Generator(bit_generator)


@pytest.mark.parametrize(
    ("has_uint32", "at", "word"),
    [
        # Access 2 pulls word 5 (k=2); access 3 takes its zero high half.
        (0, 5, 0x0000000012345678),
        # Access 2 takes the buffered half; access 3 pulls word 7, whose
        # low half is zero.
        (1, 7, 0x1234567800000000),
        # As above, then the buffered zero high half is rejected as well.
        (1, 7, 0x0000000000000000),
    ],
)
def test_rejected_integer_draws(has_uint32, at, word):
    # Window 3 and no misses: access 0 takes word 0, access 1 words 1 and 2,
    # access 2 words 3 and 4 plus an integers(2) draw, access 3 two more
    # words plus an integers(3) draw.  A zero half gives Lemire's leftover
    # 0, below the threshold 2**32 % 3 == 1, so numpy rejects it and draws
    # another half-word.
    profile = _profile(churn_miss_fraction=0.0, churn_reuse_window=3)

    def rng_factory():
        return _generator_emitting(word, at, has_uint32, 0xCAFEF00D)

    assert int(rng_factory().bit_generator.random_raw(at + 1)[at]) == word
    for length in (4, 5, 40):
        _assert_same_streams([("churn", length)], profile, 20, rng_factory)


def test_non_pcg64_generator_is_refused():
    profile = _profile()
    rng = np.random.Generator(np.random.MT19937(1))
    builder = _SetStreamBuilder(_mapper(20), 0, profile, rng)
    with pytest.raises(TypeError, match="PCG64"):
        builder.churn_stream(10)
