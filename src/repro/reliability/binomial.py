"""Closed-form block-failure probabilities (paper Eqs. 2, 3 and 6).

A cache block with ``n`` cells storing '1' is read; each '1' cell is
independently disturbed with probability ``p`` per read.  With an ECC that
corrects up to ``t`` errors per block:

* **Single checked read** (Eq. 2 for t=1): the block is delivered correctly
  when at most ``t`` cells flipped, ``P_corr = P[X <= t]`` with
  ``X ~ Binomial(n, p)``.
* **Accumulated concealed reads** (Eq. 3): ``N-1`` concealed reads plus the
  final demand read expose the block to ``N·n`` Bernoulli trials before the
  single ECC check, so ``P_corr_acc = P[X <= t]`` with
  ``X ~ Binomial(N·n, p)``.
* **REAP** (Eq. 6): every one of the ``N`` reads is checked (and the block
  scrubbed), so the block survives when *each* read individually stays within
  the ECC capability: ``P_corr_REAP = (P[X <= t])^N`` with
  ``X ~ Binomial(n, p)``.

The paper uses ``t = 1`` (SEC) throughout; the functions here take ``t`` as a
parameter so ECC-strength ablations reuse the same math.

Numerical care: failure probabilities of interest range from ~1e-15 to ~1e-2,
so the *failure* side is always computed directly as an upper binomial tail
(``scipy.stats.binom.sf``) rather than as ``1 - P_corr``, which would lose
precision below ~1e-12.

Note on Eq. (3)'s trial count: the paper defines ``N`` as "the number of
concealed reads ... plus one (to count the last read access)", i.e. the total
number of physical reads between consecutive ECC checks.  All functions here
follow that convention: ``num_reads`` is the total read count, ``>= 1``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

from ..errors import ConfigurationError


def _validate(p_cell: float, num_ones: int, num_reads: int, correctable: int) -> None:
    if not 0.0 <= p_cell <= 1.0:
        raise ConfigurationError("p_cell must be in [0, 1]")
    if num_ones < 0:
        raise ConfigurationError("num_ones must be non-negative")
    if num_reads < 1:
        raise ConfigurationError("num_reads must be >= 1 (the demand read itself)")
    if correctable < 0:
        raise ConfigurationError("correctable must be non-negative")


def binomial_tail_ge(num_trials: int, p: float, k: int) -> float:
    """``P[X >= k]`` for ``X ~ Binomial(num_trials, p)``, accurate for tiny tails."""
    if num_trials < 0:
        raise ConfigurationError("num_trials must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError("p must be in [0, 1]")
    if k <= 0:
        return 1.0
    if k > num_trials:
        return 0.0
    return float(stats.binom.sf(k - 1, num_trials, p))


def block_correct_probability(
    p_cell: float, num_ones: int, correctable: int = 1
) -> float:
    """Eq. (2): probability a single checked read delivers correct data."""
    _validate(p_cell, num_ones, 1, correctable)
    return 1.0 - binomial_tail_ge(num_ones, p_cell, correctable + 1)


def block_failure_probability(
    p_cell: float, num_ones: int, correctable: int = 1
) -> float:
    """Complement of Eq. (2): uncorrectable-error probability of one read."""
    _validate(p_cell, num_ones, 1, correctable)
    return binomial_tail_ge(num_ones, p_cell, correctable + 1)


def accumulated_correct_probability(
    p_cell: float, num_ones: int, num_reads: int, correctable: int = 1
) -> float:
    """Eq. (3): correct-delivery probability after ``num_reads`` unchecked reads.

    Args:
        p_cell: Per-read, per-cell disturbance probability.
        num_ones: Number of '1' cells in the block.
        num_reads: Total reads between ECC checks (concealed reads + the
            final demand read); ``num_reads = 1`` degenerates to Eq. (2).
        correctable: ECC correction capability ``t``.
    """
    _validate(p_cell, num_ones, num_reads, correctable)
    return 1.0 - binomial_tail_ge(num_reads * num_ones, p_cell, correctable + 1)


def accumulated_failure_probability(
    p_cell: float, num_ones: int, num_reads: int, correctable: int = 1
) -> float:
    """Complement of Eq. (3): uncorrectable-error probability with accumulation."""
    _validate(p_cell, num_ones, num_reads, correctable)
    return binomial_tail_ge(num_reads * num_ones, p_cell, correctable + 1)


def reap_correct_probability(
    p_cell: float, num_ones: int, num_reads: int, correctable: int = 1
) -> float:
    """Eq. (6): correct-delivery probability when every read is ECC-checked."""
    _validate(p_cell, num_ones, num_reads, correctable)
    single_failure = binomial_tail_ge(num_ones, p_cell, correctable + 1)
    if single_failure >= 1.0:
        return 0.0
    return math.exp(num_reads * math.log1p(-single_failure))


def reap_failure_probability(
    p_cell: float, num_ones: int, num_reads: int, correctable: int = 1
) -> float:
    """Complement of Eq. (6), computed without cancellation for tiny values."""
    _validate(p_cell, num_ones, num_reads, correctable)
    single_failure = binomial_tail_ge(num_ones, p_cell, correctable + 1)
    if single_failure >= 1.0:
        return 1.0
    return -math.expm1(num_reads * math.log1p(-single_failure))


def _validate_arrays(p_cell: float, num_ones: np.ndarray, num_reads: np.ndarray) -> None:
    if not 0.0 <= p_cell <= 1.0:
        raise ConfigurationError("p_cell must be in [0, 1]")
    if num_ones.size and int(num_ones.min()) < 0:
        raise ConfigurationError("num_ones must be non-negative")
    if num_reads.size and int(num_reads.min()) < 1:
        raise ConfigurationError("num_reads must be >= 1 (the demand read itself)")


def binomial_tail_ge_array(num_trials: np.ndarray, p: float, k: int) -> np.ndarray:
    """Vectorised :func:`binomial_tail_ge` over an array of trial counts.

    Element-for-element identical to the scalar function: the same
    ``scipy.stats.binom.sf`` evaluation is applied to every entry, with the
    same short-circuits for ``k <= 0`` and ``k > num_trials``.
    """
    trials = np.asarray(num_trials, dtype=np.int64)
    if trials.size and int(trials.min()) < 0:
        raise ConfigurationError("num_trials must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError("p must be in [0, 1]")
    if k <= 0:
        return np.ones(trials.shape, dtype=float)
    tail = np.asarray(stats.binom.sf(k - 1, np.maximum(trials, k), p), dtype=float)
    return np.where(k > trials, 0.0, tail)


def block_failure_probabilities(
    p_cell: float, num_ones: np.ndarray, correctable: int = 1
) -> np.ndarray:
    """Vectorised :func:`block_failure_probability` over an array of ones counts."""
    ones = np.asarray(num_ones, dtype=np.int64)
    _validate_arrays(p_cell, ones, np.ones(0, dtype=np.int64))
    if correctable < 0:
        raise ConfigurationError("correctable must be non-negative")
    return binomial_tail_ge_array(ones, p_cell, correctable + 1)


def accumulated_failure_probabilities(
    p_cell: float, num_ones: np.ndarray, num_reads: np.ndarray, correctable: int = 1
) -> np.ndarray:
    """Vectorised :func:`accumulated_failure_probability` over aligned arrays.

    ``num_ones`` and ``num_reads`` are broadcast against each other; each
    output entry equals the scalar function evaluated at that entry.
    """
    ones = np.asarray(num_ones, dtype=np.int64)
    reads = np.asarray(num_reads, dtype=np.int64)
    _validate_arrays(p_cell, ones, reads)
    if correctable < 0:
        raise ConfigurationError("correctable must be non-negative")
    return binomial_tail_ge_array(reads * ones, p_cell, correctable + 1)


def reap_failure_probabilities(
    p_cell: float, num_ones: np.ndarray, num_reads: np.ndarray, correctable: int = 1
) -> np.ndarray:
    """Vectorised :func:`reap_failure_probability` over aligned arrays.

    The binomial tails are evaluated in one vectorised call; the final
    ``-expm1(N * log1p(-tail))`` transform reuses the scalar ``math``
    routines per entry so the results stay bit-identical to the scalar
    function (the arrays here are typically small sets of unique
    ``(ones, window)`` pairs).
    """
    ones = np.asarray(num_ones, dtype=np.int64)
    reads = np.asarray(num_reads, dtype=np.int64)
    _validate_arrays(p_cell, ones, reads)
    if correctable < 0:
        raise ConfigurationError("correctable must be non-negative")
    ones, reads = np.broadcast_arrays(ones, reads)
    single = binomial_tail_ge_array(ones, p_cell, correctable + 1)
    out = np.empty(single.shape, dtype=float)
    flat_single = single.ravel()
    flat_reads = reads.ravel()
    flat_out = out.ravel()
    for i in range(flat_single.size):
        tail = float(flat_single[i])
        if tail >= 1.0:
            flat_out[i] = 1.0
        else:
            flat_out[i] = -math.expm1(int(flat_reads[i]) * math.log1p(-tail))
    return out


def sequential_float_sum(initial: float, addends) -> float:
    """Left-to-right float sum of ``addends`` starting from ``initial``.

    Implemented as a seeded cumulative sum: ``np.cumsum`` accumulates
    sequentially, so the final element is bit-identical to the scalar loop
    ``for a in addends: initial += a`` — unlike ``np.sum``, whose pairwise
    reduction rounds differently.  This is the one sanctioned way the
    batched engines fold deferred probability/energy addends into an
    accumulator without breaking equivalence with the reference loop.
    """
    count = len(addends)
    if count == 0:
        return initial
    seeded = np.empty(count + 1, dtype=float)
    seeded[0] = initial
    seeded[1:] = addends
    return float(np.cumsum(seeded)[-1])


def resolve_unique_keys(*columns: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Deduplicate aligned non-negative integer key columns.

    The batched engines defer every failure-probability evaluation as a
    small integer key (e.g. ``(delivery kind, ones count, window)``) and
    evaluate only the unique keys.  This helper packs the columns into one
    ``int64`` word per row and deduplicates with a single 1-D
    :func:`numpy.unique` — sorting one machine word per key instead of
    lexsorting a 2-D array, which is what keeps resolution cheap for the
    larger groups the structure-of-arrays kernel produces.  Keys drawn from
    a box of at most four possible keys per row are ranked without a sort
    (:func:`_dense_unique_keys`), with the same result.

    Args:
        columns: Aligned 1-D arrays of non-negative integers.

    Returns:
        ``(unique_columns, inverse)`` where ``unique_columns[k][j]`` is
        column ``k`` of unique key ``j`` and
        ``unique_columns[k][inverse]`` reconstructs the input column.

    Raises:
        ConfigurationError: if any entry is negative or the packed keys
            exceed 63 bits.
    """
    arrays = [np.asarray(column, dtype=np.int64) for column in columns]
    if not arrays:
        raise ConfigurationError("at least one key column is required")
    if arrays[0].size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return [empty for _ in arrays], np.zeros(0, dtype=np.intp)
    widths = []
    lows = []
    spans = []
    for column in arrays:
        low, high = int(column.min()), int(column.max())
        if low < 0:
            raise ConfigurationError("key columns must be non-negative")
        widths.append(max(1, high.bit_length()))
        lows.append(low)
        spans.append(high - low + 1)
    if math.prod(spans) <= 4 * arrays[0].size:
        return _dense_unique_keys(arrays, lows, spans)
    if sum(widths) > 63:
        raise ConfigurationError("packed key exceeds 63 bits")
    packed = arrays[0].copy()
    for column, width in zip(arrays[1:], widths[1:]):
        packed <<= width
        packed |= column
    unique_packed, inverse = np.unique(packed, return_inverse=True)
    unique_columns: list[np.ndarray] = []
    for width in reversed(widths[1:]):
        unique_columns.append(unique_packed & ((1 << width) - 1))
        unique_packed = unique_packed >> width
    unique_columns.append(unique_packed)
    unique_columns.reverse()
    return unique_columns, inverse.reshape(-1)


def _dense_unique_keys(
    arrays: list[np.ndarray], lows: list[int], spans: list[int]
) -> tuple[list[np.ndarray], np.ndarray]:
    """:func:`resolve_unique_keys` for keys from a small box, without a sort.

    The rows are numbered in mixed radix within the box spanned by the
    columns' ranges, which orders them exactly as the bit-packed words
    would; when the box holds at most a few keys per row, marking the
    present numbers and ranking them is cheaper than sorting the rows.
    """
    packed = arrays[0] - lows[0]
    for column, low, span in zip(arrays[1:], lows[1:], spans[1:]):
        packed *= span
        packed += column - low
    present = np.zeros(math.prod(spans), dtype=bool)
    present[packed] = True
    unique_packed = np.flatnonzero(present)
    inverse = (np.cumsum(present) - 1)[packed]
    unique_columns: list[np.ndarray] = []
    for low, span in zip(reversed(lows[1:]), reversed(spans[1:])):
        unique_packed, digit = np.divmod(unique_packed, span)
        unique_columns.append(digit + low)
    unique_columns.append(unique_packed + lows[0])
    unique_columns.reverse()
    return unique_columns, inverse


def accumulation_penalty(
    p_cell: float, num_ones: int, num_reads: int, correctable: int = 1
) -> float:
    """Ratio of accumulated to single-read failure probability.

    This is the "orders of magnitude" factor the paper's Section III-B example
    highlights: 50 concealed reads raise the uncorrectable-error probability
    of a 100-ones block from 5.0e-13 to 1.3e-9, a penalty of ~2.6e3.
    """
    base = block_failure_probability(p_cell, num_ones, correctable)
    accumulated = accumulated_failure_probability(
        p_cell, num_ones, num_reads, correctable
    )
    if base == 0.0:
        return math.inf if accumulated > 0.0 else 1.0
    return accumulated / base


def reap_improvement_factor(
    p_cell: float, num_ones: int, num_reads: int, correctable: int = 1
) -> float:
    """Factor by which REAP lowers the failure probability vs. accumulation.

    For the paper's Section IV example (100 ones, p = 1e-8, 50 reads) this is
    about 50x: 1.3e-9 (conventional) versus 2.6e-11 (REAP).
    """
    reap = reap_failure_probability(p_cell, num_ones, num_reads, correctable)
    accumulated = accumulated_failure_probability(
        p_cell, num_ones, num_reads, correctable
    )
    if reap == 0.0:
        return math.inf if accumulated > 0.0 else 1.0
    return accumulated / reap


def expected_disturbed_bits(p_cell: float, num_ones: int, num_reads: int) -> float:
    """Expected number of flipped cells after ``num_reads`` unchecked reads."""
    _validate(p_cell, num_ones, num_reads, 0)
    if num_ones == 0:
        return 0.0
    per_cell = -math.expm1(num_reads * math.log1p(-p_cell)) if p_cell < 1.0 else 1.0
    return num_ones * per_cell
