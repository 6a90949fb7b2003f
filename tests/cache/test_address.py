"""Tests for address decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import AddressMapper
from repro.config import paper_l2_config
from repro.errors import AddressError


@pytest.fixture
def mapper():
    return AddressMapper(paper_l2_config())


class TestDecompose:
    def test_zero_address(self, mapper):
        decomposed = mapper.decompose(0)
        assert decomposed.tag == 0
        assert decomposed.index == 0
        assert decomposed.offset == 0
        assert decomposed.block_address == 0

    def test_offset_extraction(self, mapper):
        decomposed = mapper.decompose(0x3F)
        assert decomposed.offset == 0x3F
        assert decomposed.index == 0
        assert decomposed.block_address == 0

    def test_index_extraction(self, mapper):
        # Set index field starts at bit 6 and spans 11 bits for the paper L2.
        decomposed = mapper.decompose(5 << 6)
        assert decomposed.index == 5
        assert decomposed.offset == 0

    def test_tag_extraction(self, mapper):
        decomposed = mapper.decompose(7 << 17)
        assert decomposed.tag == 7
        assert decomposed.index == 0

    def test_block_address_clears_offset(self, mapper):
        decomposed = mapper.decompose(0x12345)
        assert decomposed.block_address == 0x12345 & ~0x3F

    def test_rejects_negative(self, mapper):
        with pytest.raises(AddressError):
            mapper.decompose(-1)

    def test_rejects_too_wide(self, mapper):
        with pytest.raises(AddressError):
            mapper.decompose(1 << 60)


class TestCompose:
    def test_compose_rejects_out_of_range_index(self, mapper):
        with pytest.raises(AddressError):
            mapper.compose(0, mapper.num_sets)

    def test_compose_rejects_out_of_range_tag(self, mapper):
        with pytest.raises(AddressError):
            mapper.compose(1 << 40, 0)

    def test_compose_rejects_out_of_range_offset(self, mapper):
        with pytest.raises(AddressError):
            mapper.compose(0, 0, offset=64)

    def test_same_set_different_tags_collide_in_set(self, mapper):
        a = mapper.compose(1, 17)
        b = mapper.compose(2, 17)
        assert mapper.set_index(a) == mapper.set_index(b) == 17
        assert mapper.decompose(a).tag != mapper.decompose(b).tag


class TestRoundTripProperty:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=(1 << 48) - 1))
    def test_decompose_compose_roundtrip(self, address):
        mapper = AddressMapper(paper_l2_config())
        decomposed = mapper.decompose(address)
        rebuilt = mapper.compose(decomposed.tag, decomposed.index, decomposed.offset)
        assert rebuilt == address

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=0, max_value=(1 << 31) - 1),
        st.integers(min_value=0, max_value=2047),
        st.integers(min_value=0, max_value=63),
    )
    def test_compose_decompose_roundtrip(self, tag, index, offset):
        mapper = AddressMapper(paper_l2_config())
        address = mapper.compose(tag, index, offset)
        decomposed = mapper.decompose(address)
        assert (decomposed.tag, decomposed.index, decomposed.offset) == (tag, index, offset)


class TestDecomposeBatch:
    def test_matches_scalar_decompose(self, mapper):
        rng = __import__("random").Random(5)
        addresses = [rng.randrange(0, 1 << 48) for _ in range(500)]
        batch = mapper.decompose_batch(addresses)
        assert len(batch) == 500
        for i, address in enumerate(addresses):
            scalar = mapper.decompose(address)
            assert batch.tags[i] == scalar.tag
            assert batch.indices[i] == scalar.index
            assert batch.offsets[i] == scalar.offset
            assert batch.block_addresses[i] == scalar.block_address

    def test_empty_batch(self, mapper):
        batch = mapper.decompose_batch([])
        assert len(batch) == 0

    def test_rejects_negative_address(self, mapper):
        with pytest.raises(AddressError):
            mapper.decompose_batch([0x1000, -1])

    def test_rejects_oversized_address(self, mapper):
        limit = (1 << mapper.config.address_bits) - 1
        with pytest.raises(AddressError):
            mapper.decompose_batch([0, limit + 1])
        # The boundary itself is fine.
        assert mapper.decompose_batch([limit]).tags[0] == mapper.decompose(limit).tag

    def test_huge_python_int_raises_address_error(self, mapper):
        # An address beyond int64 must fail like the scalar path, not with
        # numpy's OverflowError.
        with pytest.raises(AddressError):
            mapper.decompose_batch([1 << 63])


class TestComposeBatch:
    def test_matches_scalar_compose(self, mapper):
        rng = __import__("random").Random(11)
        tags = [rng.randrange(0, 1 << mapper.config.tag_bits) for _ in range(500)]
        indices = [rng.randrange(0, mapper.num_sets) for _ in range(500)]
        batch = mapper.compose_batch(tags, indices)
        assert batch.dtype == np.int64
        assert batch.tolist() == [mapper.compose(t, i) for t, i in zip(tags, indices)]

    def test_extremes_match_scalar_compose(self, mapper):
        top_tag = (1 << mapper.config.tag_bits) - 1
        top_index = mapper.num_sets - 1
        batch = mapper.compose_batch([0, top_tag], [top_index, 0])
        assert batch.tolist() == [mapper.compose(0, top_index), mapper.compose(top_tag, 0)]

    def test_roundtrips_with_decompose_batch(self, mapper):
        rng = np.random.default_rng(3)
        tags = rng.integers(0, 1 << mapper.config.tag_bits, size=1000)
        indices = rng.integers(0, mapper.num_sets, size=1000)
        decomposed = mapper.decompose_batch(mapper.compose_batch(tags, indices))
        assert np.array_equal(decomposed.tags, tags)
        assert np.array_equal(decomposed.indices, indices)
        assert not decomposed.offsets.any()
        addresses = rng.integers(0, 1 << mapper.config.address_bits, size=1000)
        fields = mapper.decompose_batch(addresses)
        assert np.array_equal(
            mapper.compose_batch(fields.tags, fields.indices), fields.block_addresses
        )

    @pytest.mark.parametrize(
        "tag, index",
        [(-1, 0), ("tag_limit", 0), (0, -1), (0, "num_sets")],
    )
    def test_rejects_out_of_range_field(self, mapper, tag, index):
        tag = 1 << mapper.config.tag_bits if tag == "tag_limit" else tag
        index = mapper.num_sets if index == "num_sets" else index
        with pytest.raises(AddressError, match="out of range"):
            mapper.compose_batch([1, tag, 2], [3, index, 4])

    def test_rejects_empty_batch(self, mapper):
        with pytest.raises(AddressError):
            mapper.compose_batch([], [])

    def test_rejects_mismatched_lengths(self, mapper):
        with pytest.raises(AddressError):
            mapper.compose_batch([1, 2], [3])

    def test_huge_python_int_raises_address_error(self, mapper):
        with pytest.raises(AddressError):
            mapper.compose_batch([1 << 63], [0])
