"""Vectorized array helpers vs their obvious scalar definitions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arrayutil import (
    dense_unique,
    multirange,
    owner_order,
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


def split_by_owner_int64(owners, payload, num_owners):
    """The formulation split_by_owner replaced: an int64 stable argsort
    and a fancy-indexed gather."""
    owners = np.asarray(owners, dtype=np.int64)
    order = np.argsort(owners, kind="stable")
    sorted_payload = payload[order]
    offsets = segment_lengths_to_offsets(
        np.bincount(owners[order], minlength=num_owners)
    )
    return [
        sorted_payload[offsets[r] : offsets[r + 1]] for r in range(num_owners)
    ]


def _assert_parts_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)


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

    def test_empty_2d_payload_keeps_its_shape(self):
        parts = split_by_owner(np.array([], dtype=np.int64), np.empty((0, 2)), 3)
        assert [p.shape for p in parts] == [(0, 2)] * 3

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            split_by_owner(np.array([0]), np.array([1, 2]), 2)

    def test_owner_past_the_end_rejected(self):
        # Used to keep 3 of the 4 rows silently.
        with pytest.raises(ValueError, match=r"\[0, 2\)"):
            split_by_owner(np.array([0, 1, 5, 1]), np.arange(4), 2)

    def test_negative_owner_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 2\)"):
            split_by_owner(np.array([0, -1, 1]), np.arange(3), 2)

    @pytest.mark.parametrize("num_owners", [1, 255, 256, 257, 65536, 65537])
    def test_dtype_boundaries_match_int64_sort(self, num_owners):
        owners = np.array([num_owners - 1, 0, num_owners // 2, num_owners - 1, 0])
        payload = np.arange(len(owners) * 2).reshape(-1, 2)
        _assert_parts_equal(
            split_by_owner(owners, payload, num_owners),
            split_by_owner_int64(owners, payload, num_owners),
        )

    @settings(deadline=None)
    @given(data=st.data(), num_owners=st.integers(1, 300))
    def test_property_matches_int64_stable_argsort(self, data, num_owners):
        """Radix sort on the narrowed ids gives the int64 merge sort's
        permutation, for 1-D, 2-D and empty payloads, either side of the
        uint8/uint16 boundary."""
        owners = np.array(
            data.draw(st.lists(st.integers(0, num_owners - 1), max_size=120)),
            dtype=np.int64,
        )
        width = data.draw(st.sampled_from([None, 2, 3]))
        shape = (len(owners),) if width is None else (len(owners), width)
        payload = np.arange(int(np.prod(shape)), dtype=np.int64).reshape(shape)
        _assert_parts_equal(
            split_by_owner(owners, payload, num_owners),
            split_by_owner_int64(owners, payload, num_owners),
        )

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


class TestOwnerOrder:
    def test_offsets_delimit_each_owner(self):
        order, offsets = owner_order(np.array([2, 0, 2, 1]), 4)
        assert order.tolist() == [1, 3, 0, 2]
        assert offsets.tolist() == [0, 1, 2, 4, 4]

    def test_no_owners(self):
        order, offsets = owner_order(np.array([], dtype=np.int64), 0)
        assert len(order) == 0 and offsets.tolist() == [0]


class TestDenseUnique:
    @settings(deadline=None)
    @given(n=st.integers(0, 200), data=st.data())
    def test_property_equals_sorted_unique(self, n, data):
        ids = st.lists(st.integers(0, max(n - 1, 0)), max_size=60 if n else 0)
        values = np.array(data.draw(ids), dtype=np.int64)
        out = dense_unique(values, n)
        assert out.dtype == np.int64
        assert out.tolist() == sorted_unique(values).tolist()

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match=r"\[0, 5\)"):
            dense_unique(np.array([0, bad]), 5)
