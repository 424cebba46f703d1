"""Vectorized array helpers vs their obvious scalar definitions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arrayutil import (
    multirange,
    segment_lengths_to_offsets,
    segment_sums,
    sorted_unique,
    split_by_owner,
)


class TestMultirange:
    def test_basic(self):
        out = multirange(np.array([0, 10]), np.array([3, 2]))
        assert out.tolist() == [0, 1, 2, 10, 11]

    def test_zero_length_segments_skipped(self):
        out = multirange(np.array([5, 0, 7]), np.array([0, 2, 0]))
        assert out.tolist() == [0, 1]

    def test_empty(self):
        assert len(multirange(np.array([]), np.array([]))) == 0
        assert len(multirange(np.array([3]), np.array([0]))) == 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            multirange(np.array([0]), np.array([1, 2]))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 50), st.integers(0, 8)), max_size=20
        )
    )
    def test_property_matches_naive(self, segs):
        starts = np.array([s for s, _l in segs], dtype=np.int64)
        lens = np.array([l for _s, l in segs], dtype=np.int64)
        expected = [v for s, l in segs for v in range(s, s + l)]
        assert multirange(starts, lens).tolist() == expected


class TestOffsets:
    def test_basic(self):
        assert segment_lengths_to_offsets(np.array([2, 0, 3])).tolist() == [
            0,
            2,
            2,
            5,
        ]

    def test_empty(self):
        assert segment_lengths_to_offsets(np.array([])).tolist() == [0]


class TestSegmentSums:
    def test_basic(self):
        vals = np.array([1, 2, 3, 4, 5])
        offs = np.array([0, 2, 2, 5])
        assert segment_sums(vals, offs).tolist() == [3, 0, 12]

    def test_bool_values(self):
        vals = np.array([True, False, True])
        offs = np.array([0, 1, 3])
        assert segment_sums(vals, offs).tolist() == [1, 1]

    def test_no_segments(self):
        assert len(segment_sums(np.array([]), np.array([0]))) == 0

    def test_bad_offsets(self):
        with pytest.raises(ValueError):
            segment_sums(np.array([1]), np.array([]))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(-5, 5), max_size=6), max_size=10))
    def test_property_matches_naive(self, segments):
        vals = np.array([v for seg in segments for v in seg], dtype=np.int64)
        lens = np.array([len(s) for s in segments], dtype=np.int64)
        offs = segment_lengths_to_offsets(lens)
        assert segment_sums(vals, offs).tolist() == [sum(s) for s in segments]


class TestSplitByOwner:
    def test_partition_and_order(self):
        owners = np.array([2, 0, 2, 1])
        payload = np.array([10, 11, 12, 13])
        parts = split_by_owner(owners, payload, 3)
        assert [p.tolist() for p in parts] == [[11], [13], [10, 12]]

    def test_2d_payload(self):
        owners = np.array([1, 0])
        payload = np.array([[1, 2], [3, 4]])
        parts = split_by_owner(owners, payload, 2)
        assert parts[0].tolist() == [[3, 4]]
        assert parts[1].tolist() == [[1, 2]]

    def test_empty_owners(self):
        parts = split_by_owner(np.array([], dtype=np.int64), np.array([]), 3)
        assert len(parts) == 3 and all(len(p) == 0 for p in parts)

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            split_by_owner(np.array([0]), np.array([1, 2]), 2)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 4), max_size=30))
    def test_property_concat_is_permutation(self, owners):
        owners_arr = np.array(owners, dtype=np.int64)
        payload = np.arange(len(owners), dtype=np.int64)
        parts = split_by_owner(owners_arr, payload, 5)
        merged = np.concatenate(parts) if owners else np.array([])
        assert sorted(merged.tolist()) == payload.tolist()
        for r, part in enumerate(parts):
            assert all(owners[i] == r for i in part.tolist())


class TestSortedUnique:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-(2**62), 2**62), max_size=40))
    def test_property_equals_np_unique(self, values):
        arr = np.array(values, dtype=np.int64)
        out = sorted_unique(arr)
        assert out.dtype == arr.dtype
        assert out.tolist() == np.unique(arr).tolist()
        assert arr.tolist() == values  # input untouched
