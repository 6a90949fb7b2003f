"""L2-level trace generation from SPEC workload profiles.

The generator materialises a :class:`~repro.workloads.trace.Trace` of L2
reads and write-backs whose *per-set access sequences* reproduce the
behaviour a profile describes.  Concealed-read accumulation is entirely a
per-set phenomenon (every parallel access to a set adds one concealed read to
each other resident way), so the generator works set by set:

* **Stable sets** hold a handful of hot lines that are re-read constantly
  (small concealed-read counts) plus one or two cold lines that are re-read
  only after a log-normally distributed number of intervening set accesses —
  these produce the heavy tails of Fig. 3 and the large REAP gains of Fig. 5.
* **Churn sets** mix streaming misses (brand-new blocks) with short-distance
  re-reads, producing fills, evictions and small concealed-read counts.

Per-set streams are generated independently and then interleaved by a
weighted random merge; the interleaving does not change any per-set order, so
the reliability behaviour is exactly the union of the per-set behaviours
while the global trace still looks like a realistic mixed access stream.

Generation is columnar and builds no per-access object:

1. each set's builder returns its ``(is_write, tag)`` NumPy columns;
2. the streams' columns are concatenated and every address is composed in
   one :meth:`~repro.cache.address.AddressMapper.compose_batch` call;
3. the merge shuffles one array of stream identifiers and scatters the
   concatenated columns through its stable argsort;
4. the result is a :meth:`Trace.from_columns` trace, whose records are only
   built if a caller asks for them.

The draw contract is the one of the original per-access builders: every
random number comes from the trace's one ``numpy.random.Generator`` (always
PCG64, seeded by :func:`generate_l2_trace`) in a fixed order, and the draws
of different decisions interleave, so that order is part of the output
(``tests/workloads/golden_traces.json`` pins it).  The builders draw in
batches without changing it:

* a stable set's hot run between two cold re-reads takes one
  ``rng.random(run)`` call, which yields the values ``run`` scalar
  ``rng.random()`` calls would; the cold gaps stay scalar draws between
  the runs;
* a churn stream pulls raw 64-bit PCG64 words once with
  ``bit_generator.random_raw`` and replays numpy's own arithmetic on them
  (:func:`_churn_decisions`): ``random()`` is ``(word >> 11) * 2**-53``,
  ``integers(k)`` is Lemire's bounded method on 32-bit halves, buffered
  the way numpy buffers them and with its rejection loop, and
  ``integers(1)`` draws nothing.  The generator is then set to exactly the
  state the scalar draws leave: the snapshot advanced by the words used,
  with the half-word buffer and its value.

``tests/workloads/test_generator_oracle.py`` keeps the scalar builders as an
oracle and checks columns and generator state after every stream.
"""

from __future__ import annotations

import numpy as np

from ..cache.address import AddressMapper
from ..config import CacheLevelConfig
from ..errors import ConfigurationError, TraceError
from .spec_profiles import SPECWorkloadProfile
from .trace import KIND_ORDER, AccessKind, Trace

_L2_READ = KIND_ORDER.index(AccessKind.L2_READ)
_L2_WRITE = KIND_ORDER.index(AccessKind.L2_WRITE)


class _SetStreamBuilder:
    """Builds the access stream of one cache set as ``(is_write, tag)`` columns."""

    def __init__(
        self,
        mapper: AddressMapper,
        set_index: int,
        profile: SPECWorkloadProfile,
        rng: np.random.Generator,
    ) -> None:
        self._set_index = set_index
        self._profile = profile
        self._rng = rng
        self._tag_bits = mapper.config.tag_bits
        self._max_tag = (1 << self._tag_bits) - 1
        self._next_fresh_tag = 1  # tag 0 is reserved for hot/cold lines' base
        self._live_tags: set[int] = set()

    def _fresh_tag(self) -> int:
        """Next unused tag, skipping tags that are still live on wraparound.

        Tags 1..max_tag are issued round-robin; a tag registered through
        :meth:`_claim_tag` (hot/cold lines, churn reuse-window residents)
        is never re-issued while it is live, so very long streams cannot
        silently alias two distinct lines onto one address.
        """
        max_tag = self._max_tag
        if len(self._live_tags) >= max_tag:
            raise TraceError(
                f"tag space exhausted for set {self._set_index}: all {max_tag} "
                f"usable tags ({self._tag_bits} tag bits, tag 0 "
                "reserved) are live"
            )
        tag = self._next_fresh_tag
        while tag in self._live_tags:
            tag += 1
            if tag > max_tag:
                tag = 1
        self._next_fresh_tag = tag + 1
        if self._next_fresh_tag > max_tag:
            self._next_fresh_tag = 1
        return tag

    def _claim_tag(self) -> int:
        """Draw a fresh tag and keep it live (excluded from reuse)."""
        tag = self._fresh_tag()
        self._live_tags.add(tag)
        return tag

    def stable_stream(self, length: int) -> tuple[np.ndarray, np.ndarray]:
        """Stream for a stable set: hot re-reads plus scheduled cold re-reads.

        Sampled cold gaps are capped at half the per-set stream length so that
        short calibration runs still exercise the cold re-read mechanism; the
        observed concealed-read tail therefore grows with trace length, just
        as the paper's tails grow with the simulated instruction count.

        The write draws of a hot run between two cold re-reads come from one
        ``rng.random(run)`` call, which yields exactly the values the run's
        scalar ``rng.random()`` calls would; only the cold gaps are sampled
        one at a time, between the runs, as before.

        Returns:
            The ``(is_write, tag)`` columns of the set's ``length`` accesses.
        """
        profile = self._profile
        hot_tags = [self._claim_tag() for _ in range(profile.hot_lines_per_set)]
        cold_tags = [self._claim_tag() for _ in range(profile.cold_lines_per_set)]
        gap_cap = max(length // 2, 1)

        # The resident lines are installed up front so later accesses hit.
        installed = len(hot_tags) + len(cold_tags)
        # Schedule the next re-read time (in set accesses) of each cold line.
        cold_next = [installed + min(self._sample_gap(), gap_cap) for _ in cold_tags]
        next_due = min(cold_next, default=length)

        cold_positions: list[int] = []
        cold_reads: list[int] = []
        hot_draws: list[np.ndarray] = []
        position = installed
        while position < length:
            if next_due <= position:
                # The lowest-numbered cold line that is due is re-read.
                index = next(i for i, when in enumerate(cold_next) if when <= position)
                cold_positions.append(position)
                cold_reads.append(cold_tags[index])
                position += 1
                cold_next[index] = position + min(self._sample_gap(), gap_cap)
                next_due = min(cold_next)
                continue
            run = min(next_due, length) - position
            hot_draws.append(self._rng.random(run))
            position += run

        size = max(length, installed)
        tags = np.empty(size, dtype=np.int64)
        is_write = np.zeros(size, dtype=bool)
        tags[:installed] = hot_tags + cold_tags
        tags[cold_positions] = cold_reads
        hot = np.ones(size, dtype=bool)
        hot[:installed] = False
        hot[cold_positions] = False
        hot_positions = np.flatnonzero(hot)
        hot_cycle = np.arange(len(hot_positions)) % len(hot_tags)
        tags[hot_positions] = np.array(hot_tags, dtype=np.int64)[hot_cycle]
        if hot_draws:
            is_write[hot_positions] = np.concatenate(hot_draws) < profile.write_fraction
        return is_write[:length], tags[:length]

    def churn_stream(self, length: int) -> tuple[np.ndarray, np.ndarray]:
        """Stream for a churn set: streaming misses plus short-distance reuse.

        Access ``i`` draws ``random() < write_fraction``; then, with
        ``reuse = min(i, churn_reuse_window)`` recent accesses to pick from,
        ``random() < churn_miss_fraction`` decides a streaming miss (a fresh
        tag) and otherwise ``integers(reuse)`` names the re-read one.  The
        draws are replayed from raw generator words
        (:func:`_churn_decisions`); the tags are resolved afterwards.

        Returns:
            The ``(is_write, tag)`` columns of the set's ``length`` accesses.
        """
        profile = self._profile
        window = profile.churn_reuse_window
        is_write, claims, source = _churn_decisions(
            self._rng,
            length,
            window,
            profile.write_fraction,
            profile.churn_miss_fraction,
        )
        first = self._next_fresh_tag
        last = first + int(np.count_nonzero(claims)) - 1
        if last > self._max_tag or any(tag >= first for tag in self._live_tags):
            return is_write, self._claim_walk(claims, source, window)
        # The counter cannot wrap, so the fresh tags are first, first + 1,
        # ...  A re-read takes the tag of its source access; pointer jumping
        # follows each chain of re-reads back to the miss that claimed it.
        origin = np.where(claims, np.arange(length), source)
        while True:
            hop = origin[origin]
            if np.array_equal(hop, origin):
                break
            origin = hop
        tags = (first - 1 + np.cumsum(claims))[origin]
        self._next_fresh_tag = last + 1 if last < self._max_tag else 1
        if window:
            # What the claim/release walk leaves live: the window's tags.
            self._live_tags.update(tags[max(length - window, 0) :].tolist())
        return is_write, tags

    def _claim_walk(
        self, claims: np.ndarray, source: np.ndarray, window: int
    ) -> np.ndarray:
        """Tags of a churn stream whose fresh-tag counter may wrap around.

        Claims tags one access at a time and frees each tag that leaves the
        reuse window without being re-read, so a wrapped counter skips only
        the tags still live (and raises once every usable tag is).
        """
        tags = [0] * len(claims)
        live = self._live_tags
        for i, (claim, j) in enumerate(zip(claims.tolist(), source.tolist())):
            tags[i] = self._claim_tag() if claim else tags[j]
            if i >= window:
                # The oldest tag leaves the window; free it unless reused.
                expired = tags[i - window]
                if expired not in tags[i - window + 1 : i + 1]:
                    live.discard(expired)
        return np.array(tags, dtype=np.int64)

    def _sample_gap(self) -> int:
        profile = self._profile
        if profile.cold_gap_sigma == 0.0:
            gap = profile.cold_gap_median
        else:
            gap = self._rng.lognormal(
                mean=np.log(profile.cold_gap_median), sigma=profile.cold_gap_sigma
            )
        return max(int(round(gap)), 1)


#: numpy's ``random()`` maps a 64-bit word ``w`` to ``(w >> 11) * 2**-53``.
_DOUBLE_UNIT = 1.0 / 9007199254740992.0
_LOW_HALF = 0xFFFFFFFF


class _RawWords:
    """PCG64 output words drawn ahead of the draws that will consume them."""

    def __init__(self, bit_generator: np.random.PCG64, count: int) -> None:
        self._bit_generator = bit_generator
        self.raw = np.zeros(0, dtype=np.uint64)
        self.uniform = np.zeros(0, dtype=np.float64)
        self.ensure(count)

    def ensure(self, count: int) -> None:
        """Hold at least ``count`` words (later words follow on in order)."""
        missing = count - len(self.raw)
        if missing > 0:
            more = self._bit_generator.random_raw(max(missing, len(self.raw)))
            self.raw = np.concatenate((self.raw, more))
            self.uniform = np.concatenate(
                (self.uniform, (more >> np.uint64(11)) * _DOUBLE_UNIT)
            )


def _churn_decisions(
    rng: np.random.Generator,
    length: int,
    window: int,
    write_fraction: float,
    miss_fraction: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The draws of a churn stream, replayed from raw PCG64 words.

    Per access ``i``, with ``reuse = min(i, window)``, the scalar loop draws
    ``random() < write_fraction``, then (if ``reuse``) ``random() <
    miss_fraction``, then (if no miss) ``integers(reuse)``.  Those are
    replayed here from words pulled once with ``random_raw``, using numpy's
    own arithmetic: ``random()`` takes a word; ``integers(k)`` takes a
    32-bit half -- the buffered high half of an earlier word if one is
    waiting, else the low half of a new word, whose high half is buffered
    -- and applies Lemire's bounded method with its rejection loop, while
    ``integers(1)`` consumes nothing.  Afterwards the generator is put into
    exactly the state the scalar draws leave: the snapshot advanced by the
    words used, with the half-word buffer set.

    Only the buffer parity and the miss words decide how many words an
    access consumes, so after the first two accesses every access's start
    word follows from a transition table over ``(word, buffered)`` states,
    walked for the whole stream by pointer jumping.  The first two
    accesses, and any access whose integer draw is rejected (probability
    below ``7 / 2**32`` per draw), are replayed one at a time.

    Returns:
        ``(is_write, claims, source)``: per access, whether it writes,
        whether it claims a fresh tag, and otherwise the index of the
        earlier access whose tag it re-reads.

    Raises:
        TypeError: if ``rng`` is not driven by :class:`numpy.random.PCG64`.
    """
    bit_generator = rng.bit_generator
    if type(bit_generator) is not np.random.PCG64:
        raise TypeError(
            "churn draws are replayed from PCG64 words; got "
            f"{type(bit_generator).__name__}"
        )
    is_write = np.zeros(length, dtype=bool)
    claims = np.ones(length, dtype=bool)
    source = np.zeros(length, dtype=np.int64)
    snapshot = bit_generator.state
    words = _RawWords(bit_generator, 3 * length + 3)
    # Generator position: words consumed, and the 32-bit buffer (whose
    # value numpy keeps, stale, after it has been used).
    position = 0
    buffered = bool(snapshot["has_uint32"])
    half = int(snapshot["uinteger"])

    def one_access(i: int) -> None:
        nonlocal position, buffered, half
        words.ensure(position + 2)
        is_write[i] = words.uniform[position] < write_fraction
        position += 1
        reuse = min(i, window)
        claims[i] = True
        if not reuse:
            return
        claims[i] = words.uniform[position] < miss_fraction
        position += 1
        if claims[i]:
            return
        draw = 0
        if reuse > 1:
            threshold = (1 << 32) % reuse
            while True:
                if buffered:
                    value, buffered = half, False
                else:
                    words.ensure(position + 1)
                    word = int(words.raw[position])
                    position += 1
                    value, half, buffered = word & _LOW_HALF, word >> 32, True
                product = value * reuse
                if (product & _LOW_HALF) >= threshold:
                    draw = product >> 32
                    break
        source[i] = i - reuse + draw

    i = 0
    while i < length:
        if i < min(window, 2):
            one_access(i)
            i += 1
            continue
        # The rest of the stream in one pass, up to a rejected integer draw.
        count = length - i
        words.ensure(position + 3 * count + 3)
        uniform = words.uniform[position:]
        starts, flags = _churn_path(uniform, count, window, miss_fraction, buffered)
        at = starts[:count]
        is_write[i:] = uniform[at] < write_fraction
        if window:
            missed = uniform[at + 1] < miss_fraction
            claims[i:] = missed
            source[i:] = np.arange(i - 1, length - 1)  # window 1: the last access
        if window > 1:
            draws = np.flatnonzero(~missed)
            from_buffer = flags[draws].astype(bool)
            pulled = words.raw[position + at[draws] + 2]
            # The buffer before each draw: the high half of the last word an
            # earlier draw pulled (draws alternate between pulling and using).
            last_pull = np.maximum.accumulate(
                np.where(from_buffer, -1, np.arange(len(draws)))
            )
            after = np.where(
                last_pull >= 0, pulled[last_pull] >> 32, np.uint64(half)
            )
            before = np.concatenate((np.array([half], dtype=np.uint64), after[:-1]))
            value = np.where(from_buffer, before, pulled & _LOW_HALF)
            reuse = np.minimum(draws + i, window).astype(np.uint64)
            product = value * reuse
            rejected = (product & _LOW_HALF) < np.uint64(1 << 32) % reuse
            source[i + draws] = (
                draws + i - reuse.astype(np.int64) + (product >> 32).astype(np.int64)
            )
            if rejected.any():
                first = int(np.argmax(rejected))
                stop = int(draws[first])
                position += int(at[stop])
                buffered = bool(flags[stop])
                half = int(before[first])
                one_access(i + stop)
                i += stop + 1
                continue
            if len(draws):
                half = int(after[-1])
        position += int(starts[count])
        buffered = bool(flags[count])
        i = length

    bit_generator.state = snapshot
    bit_generator.advance(position)
    state = bit_generator.state
    state["has_uint32"] = int(buffered)
    state["uinteger"] = half
    bit_generator.state = state
    return is_write, claims, source


def _churn_path(
    uniform: np.ndarray, count: int, window: int, miss_fraction: float, buffered: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Start word and buffer flag of ``count`` churn accesses, plus the end.

    An access past the first two starting at word ``p`` takes its write
    word and, with a window, its miss word ``p + 1``; if that does not miss
    and the window exceeds one, its integer draw pulls word ``p + 2`` when
    the buffer is empty and empties the buffer otherwise.  That fixes a
    transition table over the states ``2 * p + buffered``.  Pointer jumping
    squares the table ``log2(count)`` times; expanding the start state
    through the squared tables, largest first, interleaves the visited
    states in stream order.

    Returns:
        ``(starts, flags)`` of length ``count + 1``, relative to
        ``uniform[0]``; the last entry is the state after the stream.
    """
    num_words = len(uniform)
    word = np.arange(num_words)
    width = 1 + (window > 0)
    draws = np.zeros(num_words, dtype=bool)
    if window > 1:
        draws[:-1] = uniform[1:] >= miss_fraction
    # An access needs up to three words: states nearer the end (never
    # reached within the stream) lead to a sink.
    sink = 2 * num_words
    table = np.empty(sink + 1, dtype=np.int64)
    pulled = word + width + draws
    table[0:-1:2] = np.where(pulled < num_words - 2, 2 * pulled + draws, sink)
    kept = word + width
    table[1:-1:2] = np.where(kept < num_words - 2, 2 * kept + ~draws, sink)
    table[sink] = sink
    tables = [table]
    for _ in range(count.bit_length() - 1):
        tables.append(tables[-1][tables[-1]])
    path = np.array([int(buffered)], dtype=np.int64)
    for table in reversed(tables):
        doubled = np.empty(2 * len(path), dtype=np.int64)
        doubled[0::2] = path
        doubled[1::2] = table[path]
        path = doubled
    path = path[: count + 1]
    return path >> 1, path & 1


def generate_l2_trace(
    profile: SPECWorkloadProfile,
    config: CacheLevelConfig,
    num_accesses: int = 200_000,
    seed: int = 1,
) -> Trace:
    """Generate an L2-level trace for one SPEC-named profile.

    Args:
        profile: The workload profile.
        config: Geometry of the L2 the trace will drive (used to compose
            addresses that land in the intended sets).
        num_accesses: Total number of L2 accesses to generate.
        seed: Random seed; the same (profile, config, num_accesses, seed)
            always yields the same trace.

    Returns:
        A columnar :class:`Trace` (:meth:`Trace.from_columns`) of
        ``L2_READ`` / ``L2_WRITE`` accesses.

    Raises:
        TraceError: if ``num_accesses`` is not positive.
        ConfigurationError: if the profile needs more sets than the cache has.
    """
    if num_accesses <= 0:
        raise TraceError("num_accesses must be positive")
    total_sets_needed = profile.num_stable_sets + profile.num_churn_sets
    if total_sets_needed > config.num_sets:
        raise ConfigurationError(
            f"profile {profile.name!r} needs {total_sets_needed} sets but the cache "
            f"has only {config.num_sets}"
        )

    rng = np.random.default_rng(seed)
    mapper = AddressMapper(config)
    chosen_sets = rng.choice(config.num_sets, size=total_sets_needed, replace=False)
    stable_sets = [int(s) for s in chosen_sets[: profile.num_stable_sets]]
    churn_sets = [int(s) for s in chosen_sets[profile.num_stable_sets :]]

    # Split the access budget between the stable and churn populations.
    stable_budget = int(round(num_accesses * profile.stable_traffic_share))
    churn_budget = num_accesses - stable_budget

    # One (set index, is_write column, tag column) entry per non-empty stream.
    streams: list[tuple[int, np.ndarray, np.ndarray]] = []
    if stable_sets and stable_budget > 0:
        per_set = _split_budget(stable_budget, len(stable_sets), rng)
        for set_index, length in zip(stable_sets, per_set):
            if length == 0:
                continue
            builder = _SetStreamBuilder(mapper, set_index, profile, rng)
            streams.append((set_index, *builder.stable_stream(length)))
    if churn_sets and churn_budget > 0:
        per_set = _split_budget(churn_budget, len(churn_sets), rng)
        for set_index, length in zip(churn_sets, per_set):
            if length == 0:
                continue
            builder = _SetStreamBuilder(mapper, set_index, profile, rng)
            streams.append((set_index, *builder.churn_stream(length)))

    set_indices, write_columns, tag_columns = zip(*streams)
    lengths = [len(column) for column in tag_columns]
    is_write = np.concatenate(write_columns)
    tags = np.concatenate(tag_columns)
    indices = np.repeat(np.array(set_indices, dtype=np.int64), lengths)
    addresses = mapper.compose_batch(tags, indices)
    kinds = np.where(is_write, _L2_WRITE, _L2_READ).astype(np.int8)

    destination = _weighted_merge(lengths, rng)
    merged_kinds = np.empty_like(kinds)
    merged_kinds[destination] = kinds
    merged_addresses = np.empty_like(addresses)
    merged_addresses[destination] = addresses
    return Trace.from_columns(profile.name, merged_kinds, merged_addresses)


def _split_budget(total: int, parts: int, rng: np.random.Generator) -> list[int]:
    """Split ``total`` accesses roughly evenly over ``parts`` sets."""
    if parts <= 0:
        return []
    base = total // parts
    remainder = total - base * parts
    budgets = [base] * parts
    for index in rng.choice(parts, size=remainder, replace=False):
        budgets[int(index)] += 1
    return budgets


def _weighted_merge(lengths: list[int], rng: np.random.Generator) -> np.ndarray:
    """Randomly interleave several streams, preserving each stream's order.

    A uniformly random interleaving is drawn by shuffling the multiset of
    stream identifiers (one entry per access).  Slot ``j`` of the merged
    trace takes the next unconsumed access of stream ``order[j]``; a stable
    argsort of ``order`` lists the slots stream by stream, in order, so it
    is exactly the merged position of each access of the concatenated
    streams.

    Returns:
        ``destination`` with ``merged[destination] = concatenated``.
    """
    order = np.repeat(np.arange(len(lengths), dtype=np.int32), lengths)
    rng.shuffle(order)
    return np.argsort(order, kind="stable")
