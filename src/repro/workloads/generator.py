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

1. each set's builder returns plain ``(is_write, tag)`` lists, drawing its
   random numbers one at a time in a fixed order (the draws of different
   decisions interleave, so the order is part of the output);
2. the streams' columns are concatenated and every address is composed in
   one :meth:`~repro.cache.address.AddressMapper.compose_batch` call;
3. the merge shuffles one array of stream identifiers and scatters the
   concatenated columns through its stable argsort;
4. the result is a :meth:`Trace.from_columns` trace, whose records are only
   built if a caller asks for them.
"""

from __future__ import annotations

from itertools import chain

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

    def stable_stream(self, length: int) -> tuple[list[bool], list[int]]:
        """Stream for a stable set: hot re-reads plus scheduled cold re-reads.

        Sampled cold gaps are capped at half the per-set stream length so that
        short calibration runs still exercise the cold re-read mechanism; the
        observed concealed-read tail therefore grows with trace length, just
        as the paper's tails grow with the simulated instruction count.

        Returns:
            The ``(is_write, tag)`` columns of the set's ``length`` accesses.
        """
        profile = self._profile
        random = self._rng.random
        write_fraction = profile.write_fraction
        gap_cap = max(length // 2, 1)
        hot_tags = [self._claim_tag() for _ in range(profile.hot_lines_per_set)]
        cold_tags = [self._claim_tag() for _ in range(profile.cold_lines_per_set)]

        # Install the resident lines up front so later accesses hit.
        tags = hot_tags + cold_tags
        is_write = [False] * len(tags)

        # Schedule the next re-read time (in set accesses) of each cold line.
        installed = len(tags)
        cold_next = [installed + min(self._sample_gap(), gap_cap) for _ in cold_tags]
        next_due = min(cold_next, default=length)

        hot_count = len(hot_tags)
        hot_cursor = 0
        position = installed
        while position < length:
            if next_due <= position:
                # The lowest-numbered cold line that is due is re-read.
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

    def churn_stream(self, length: int) -> tuple[list[bool], list[int]]:
        """Stream for a churn set: streaming misses plus short-distance reuse.

        Returns:
            The ``(is_write, tag)`` columns of the set's ``length`` accesses.
        """
        profile = self._profile
        random = self._rng.random
        integers = self._rng.integers
        write_fraction = profile.write_fraction
        miss_fraction = profile.churn_miss_fraction
        window = profile.churn_reuse_window
        claim = self._claim_tag
        live = self._live_tags
        tags: list[int] = []
        is_write: list[bool] = []
        # The reuse window before access ``i`` is ``tags[i - reuse : i]``.
        for i in range(length):
            is_write.append(random() < write_fraction)
            reuse = min(i, window)
            if not reuse or random() < miss_fraction:
                tag = claim()
            else:
                # Draws exactly what ``rng.choice(window tags)`` would.
                tag = tags[i - reuse + int(integers(reuse))]
            tags.append(tag)
            if i >= window:
                # The oldest tag leaves the window; free it unless reused.
                expired = tags[i - window]
                if expired not in tags[i - window + 1 :]:
                    live.discard(expired)
        return is_write, tags

    def _sample_gap(self) -> int:
        profile = self._profile
        if profile.cold_gap_sigma == 0.0:
            gap = profile.cold_gap_median
        else:
            gap = self._rng.lognormal(
                mean=np.log(profile.cold_gap_median), sigma=profile.cold_gap_sigma
            )
        return max(int(round(gap)), 1)


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
    streams: list[tuple[int, list[bool], list[int]]] = []
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
    total = sum(lengths)
    is_write = np.fromiter(chain.from_iterable(write_columns), dtype=bool, count=total)
    tags = np.fromiter(chain.from_iterable(tag_columns), dtype=np.int64, count=total)
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
