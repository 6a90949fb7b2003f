"""Tests for the closed-form failure probabilities (Eqs. 2, 3, 6)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.reliability import (
    accumulated_correct_probability,
    accumulated_failure_probability,
    accumulation_penalty,
    binomial_tail_ge,
    block_correct_probability,
    block_failure_probability,
    expected_disturbed_bits,
    reap_correct_probability,
    reap_failure_probability,
    reap_improvement_factor,
)


class TestBinomialTail:
    def test_k_zero_is_one(self):
        assert binomial_tail_ge(100, 0.1, 0) == 1.0

    def test_k_above_n_is_zero(self):
        assert binomial_tail_ge(5, 0.5, 6) == 0.0

    def test_matches_direct_sum_small_case(self):
        n, p, k = 10, 0.3, 4
        direct = sum(
            math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(k, n + 1)
        )
        assert binomial_tail_ge(n, p, k) == pytest.approx(direct, rel=1e-12)

    def test_tiny_tail_accuracy(self):
        """The double-error tail for p=1e-8, n=100 is ~4.95e-13 (paper Eq. 4)."""
        tail = binomial_tail_ge(100, 1e-8, 2)
        assert tail == pytest.approx(math.comb(100, 2) * 1e-16, rel=1e-3)

    def test_rejects_bad_probability(self):
        with pytest.raises(ConfigurationError):
            binomial_tail_ge(10, 1.5, 1)


class TestPaperNumericExample:
    """Section III-B / IV worked example: n=100 ones, p=1e-8, 50 reads."""

    def test_eq4_single_read_failure(self):
        assert block_failure_probability(1e-8, 100) == pytest.approx(5.0e-13, rel=0.02)

    def test_eq5_accumulated_failure(self):
        assert accumulated_failure_probability(1e-8, 100, 50) == pytest.approx(
            1.3e-9, rel=0.05
        )

    def test_section4_reap_failure(self):
        assert reap_failure_probability(1e-8, 100, 50) == pytest.approx(2.6e-11, rel=0.06)

    def test_reap_is_50x_better_than_accumulation(self):
        assert reap_improvement_factor(1e-8, 100, 50) == pytest.approx(50.0, rel=0.05)

    def test_accumulation_penalty_is_three_orders_of_magnitude(self):
        penalty = accumulation_penalty(1e-8, 100, 50)
        assert 1e3 < penalty < 1e4


class TestEquationRelationships:
    def test_correct_plus_failure_is_one(self):
        p, n = 1e-4, 200
        assert block_correct_probability(p, n) + block_failure_probability(p, n) == pytest.approx(1.0)

    def test_single_read_is_accumulated_with_one_read(self):
        p, n = 1e-5, 300
        assert accumulated_failure_probability(p, n, 1) == pytest.approx(
            block_failure_probability(p, n)
        )

    def test_reap_with_one_read_matches_single(self):
        p, n = 1e-5, 300
        assert reap_failure_probability(p, n, 1) == pytest.approx(
            block_failure_probability(p, n)
        )

    def test_accumulated_failure_grows_with_reads(self):
        p, n = 1e-7, 100
        values = [accumulated_failure_probability(p, n, reads) for reads in (1, 10, 100, 1000)]
        assert values == sorted(values)

    def test_reap_failure_grows_linearly_with_reads(self):
        p, n = 1e-8, 100
        one = reap_failure_probability(p, n, 1)
        fifty = reap_failure_probability(p, n, 50)
        assert fifty == pytest.approx(50 * one, rel=1e-3)

    def test_accumulated_failure_grows_quadratically_with_reads(self):
        """With SEC, the accumulated failure scales ~N^2 in the rare-error regime."""
        p, n = 1e-8, 100
        ten = accumulated_failure_probability(p, n, 10)
        hundred = accumulated_failure_probability(p, n, 100)
        assert hundred / ten == pytest.approx(100.0, rel=0.05)

    def test_reap_never_worse_than_accumulation(self):
        p, n = 1e-6, 150
        for reads in (1, 5, 50, 500):
            assert reap_failure_probability(p, n, reads) <= accumulated_failure_probability(
                p, n, reads
            ) * (1 + 1e-12)

    def test_stronger_ecc_reduces_failure(self):
        p, n, reads = 1e-6, 200, 100
        sec = accumulated_failure_probability(p, n, reads, correctable=1)
        dec = accumulated_failure_probability(p, n, reads, correctable=2)
        assert dec < sec

    def test_zero_probability_never_fails(self):
        assert accumulated_failure_probability(0.0, 100, 1000) == 0.0
        assert reap_failure_probability(0.0, 100, 1000) == 0.0

    def test_correct_probabilities_complement(self):
        p, n, reads = 1e-4, 100, 20
        assert accumulated_correct_probability(p, n, reads) == pytest.approx(
            1 - accumulated_failure_probability(p, n, reads)
        )
        assert reap_correct_probability(p, n, reads) == pytest.approx(
            1 - reap_failure_probability(p, n, reads)
        )


class TestExpectedDisturbedBits:
    def test_zero_ones(self):
        assert expected_disturbed_bits(1e-6, 0, 100) == 0.0

    def test_linear_in_ones(self):
        assert expected_disturbed_bits(1e-6, 200, 10) == pytest.approx(
            2 * expected_disturbed_bits(1e-6, 100, 10)
        )

    def test_small_probability_approximation(self):
        assert expected_disturbed_bits(1e-8, 100, 50) == pytest.approx(5e-5, rel=1e-3)


class TestValidation:
    def test_rejects_zero_reads(self):
        with pytest.raises(ConfigurationError):
            accumulated_failure_probability(1e-8, 100, 0)

    def test_rejects_negative_ones(self):
        with pytest.raises(ConfigurationError):
            block_failure_probability(1e-8, -1)

    def test_rejects_probability_above_one(self):
        with pytest.raises(ConfigurationError):
            block_failure_probability(1.5, 100)


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        p=st.floats(min_value=1e-12, max_value=1e-3),
        ones=st.integers(min_value=1, max_value=512),
        reads=st.integers(min_value=1, max_value=10_000),
    )
    def test_probabilities_stay_in_unit_interval(self, p, ones, reads):
        for value in (
            block_failure_probability(p, ones),
            accumulated_failure_probability(p, ones, reads),
            reap_failure_probability(p, ones, reads),
        ):
            assert 0.0 <= value <= 1.0

    @settings(max_examples=100, deadline=None)
    @given(
        p=st.floats(min_value=1e-12, max_value=1e-4),
        ones=st.integers(min_value=1, max_value=512),
        reads=st.integers(min_value=2, max_value=10_000),
    )
    def test_reap_bounded_by_accumulated(self, p, ones, reads):
        reap = reap_failure_probability(p, ones, reads)
        accumulated = accumulated_failure_probability(p, ones, reads)
        assert reap <= accumulated * (1 + 1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.floats(min_value=1e-12, max_value=1e-4),
        ones=st.integers(min_value=1, max_value=512),
        reads=st.integers(min_value=1, max_value=5_000),
    )
    def test_accumulated_monotonic_in_reads(self, p, ones, reads):
        assert accumulated_failure_probability(p, ones, reads + 1) >= accumulated_failure_probability(
            p, ones, reads
        )


class TestVectorisedProbabilities:
    """The array functions must be element-for-element identical to scalar."""

    ONES = [0, 1, 2, 50, 100, 137, 512]
    READS = [1, 1, 2, 5, 50, 101, 400]

    @pytest.mark.parametrize("correctable", [0, 1, 2])
    def test_block_failure_matches_scalar(self, correctable):
        from repro.reliability import block_failure_probabilities

        array = block_failure_probabilities(1e-8, np.array(self.ONES), correctable)
        for value, ones in zip(array, self.ONES):
            assert value == block_failure_probability(1e-8, ones, correctable)

    @pytest.mark.parametrize("correctable", [0, 1, 2])
    @pytest.mark.parametrize("p_cell", [1e-10, 1e-8, 1e-4, 0.2])
    def test_accumulated_failure_matches_scalar(self, correctable, p_cell):
        from repro.reliability import accumulated_failure_probabilities

        array = accumulated_failure_probabilities(
            p_cell, np.array(self.ONES), np.array(self.READS), correctable
        )
        for value, ones, reads in zip(array, self.ONES, self.READS):
            assert value == accumulated_failure_probability(
                p_cell, ones, reads, correctable
            )

    @pytest.mark.parametrize("correctable", [0, 1, 2])
    @pytest.mark.parametrize("p_cell", [1e-10, 1e-8, 1e-4, 0.2])
    def test_reap_failure_matches_scalar(self, correctable, p_cell):
        from repro.reliability import reap_failure_probabilities

        array = reap_failure_probabilities(
            p_cell, np.array(self.ONES), np.array(self.READS), correctable
        )
        for value, ones, reads in zip(array, self.ONES, self.READS):
            assert value == reap_failure_probability(p_cell, ones, reads, correctable)

    def test_tail_matches_scalar_including_short_circuits(self):
        from repro.reliability import binomial_tail_ge_array

        trials = np.array([0, 1, 2, 5, 100])
        for k in (0, 1, 2, 6):
            array = binomial_tail_ge_array(trials, 1e-3, k)
            for value, n in zip(array, trials):
                assert value == binomial_tail_ge(int(n), 1e-3, k)

    def test_array_validation(self):
        from repro.reliability import (
            accumulated_failure_probabilities,
            binomial_tail_ge_array,
            block_failure_probabilities,
        )

        with pytest.raises(ConfigurationError):
            block_failure_probabilities(1.5, np.array([1]))
        with pytest.raises(ConfigurationError):
            block_failure_probabilities(1e-8, np.array([-1]))
        with pytest.raises(ConfigurationError):
            accumulated_failure_probabilities(1e-8, np.array([1]), np.array([0]))
        with pytest.raises(ConfigurationError):
            block_failure_probabilities(1e-8, np.array([1]), correctable=-1)
        with pytest.raises(ConfigurationError):
            binomial_tail_ge_array(np.array([-1]), 0.5, 1)


class TestResolveUniqueKeys:
    """Packed-key deduplication equals a row-wise ``np.unique``, dense or not."""

    @staticmethod
    def assert_matches_unique(columns):
        from repro.reliability.binomial import resolve_unique_keys

        unique_columns, inverse = resolve_unique_keys(*columns)
        rows = np.stack(columns, axis=1)
        expected, expected_inverse = np.unique(rows, axis=0, return_inverse=True)
        np.testing.assert_array_equal(np.stack(unique_columns, axis=1), expected)
        np.testing.assert_array_equal(inverse, expected_inverse.reshape(-1))

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 400),
        highs=st.lists(st.integers(0, 1 << 20), min_size=1, max_size=3),
        lows=st.lists(st.integers(0, 1 << 20), min_size=3, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_numpy_unique(self, rows, highs, lows, seed):
        # Narrow ranges take the sort-free dense path, wide ones the sort.
        rng = np.random.default_rng(seed)
        columns = [
            rng.integers(low, low + high + 1, size=rows)
            for low, high in zip(lows, highs)
        ]
        self.assert_matches_unique(columns)

    def test_dense_and_sparse_delivery_keys(self):
        rng = np.random.default_rng(3)
        kinds = rng.choice([0, 3], size=5_000)
        windows = rng.integers(1, 400, size=5_000)
        self.assert_matches_unique([kinds, np.full(5_000, 100), windows])
        self.assert_matches_unique([kinds, np.full(5_000, 100), windows << 30])
