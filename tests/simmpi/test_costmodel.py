"""Cost model algebra: rates, transfer times, cache factor, payload sizes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simmpi import CacheModel, MachineModel
from repro.simmpi.costmodel import payload_nbytes


class TestMachineModel:
    def test_known_kind_uses_table_rate(self):
        m = MachineModel(rates={"op": 1e6}, cache=None)
        assert m.compute_time("op", 1e6) == pytest.approx(1.0)

    def test_unknown_kind_uses_default_rate(self):
        m = MachineModel(default_rate=2e6, cache=None)
        assert m.compute_time("mystery", 2e6) == pytest.approx(1.0)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            MachineModel().compute_time("op", -1)

    def test_transfer_time_is_alpha_plus_beta(self):
        m = MachineModel(alpha=1e-6, beta=1e-9)
        assert m.transfer_time(1000) == pytest.approx(1e-6 + 1e-6)
        assert m.transfer_time(0) == pytest.approx(1e-6)

    def test_replace_returns_modified_copy(self):
        m = MachineModel(alpha=1.0)
        m2 = m.replace(alpha=2.0)
        assert m.alpha == 1.0 and m2.alpha == 2.0
        assert m2.beta == m.beta


class TestCacheModel:
    def test_fitting_working_set_no_penalty(self):
        c = CacheModel(cache_bytes=1000, max_penalty=2.0)
        assert c.factor(500) == 1.0
        assert c.factor(1000) == 1.0
        assert c.factor(None) == 1.0

    def test_saturated_working_set_max_penalty(self):
        c = CacheModel(cache_bytes=1000, max_penalty=2.0, saturate_ratio=4.0)
        assert c.factor(4000) == pytest.approx(2.0)
        assert c.factor(1_000_000) == pytest.approx(2.0)

    def test_factor_monotone_in_working_set(self):
        c = CacheModel(cache_bytes=1000, max_penalty=3.0, saturate_ratio=16.0)
        sizes = [1000, 2000, 4000, 8000, 16000, 32000]
        factors = [c.factor(s) for s in sizes]
        assert factors == sorted(factors)
        assert 1.0 <= min(factors) and max(factors) <= 3.0

    def test_compute_time_applies_cache_factor(self):
        m = MachineModel(
            rates={"op": 1e6},
            cache=CacheModel(cache_bytes=10, max_penalty=2.0, saturate_ratio=2.0),
        )
        fits = m.compute_time("op", 1e6, working_set_bytes=5)
        spills = m.compute_time("op", 1e6, working_set_bytes=1000)
        assert spills == pytest.approx(2 * fits)


class TestPayloadNbytes:
    def test_numpy_exact_buffer_plus_envelope(self):
        a = np.zeros(100, dtype=np.int64)
        assert payload_nbytes(a) == 800 + 96

    def test_bytes(self):
        assert payload_nbytes(b"abcd") == 4 + 33

    def test_scalars_and_none(self):
        assert payload_nbytes(None) == 8
        assert payload_nbytes(3) == 32
        assert payload_nbytes(3.5) == 32
        assert payload_nbytes(True) == 32

    def test_string_utf8(self):
        assert payload_nbytes("hi") == 2 + 49

    def test_containers_recurse(self):
        inner = np.zeros(10, dtype=np.int8)
        t = (inner, 5)
        assert payload_nbytes(t) == 56 + (10 + 96) + 32

    def test_dict_recurse(self):
        d = {"k": 1}
        assert payload_nbytes(d) == 64 + (1 + 49) + 32

    def test_object_with_nbytes_estimate(self):
        class Obj:
            def nbytes_estimate(self):
                return 12345

        assert payload_nbytes(Obj()) == 12345

    def test_plain_object_uses_dict(self):
        class Obj:
            def __init__(self):
                self.a = 1
                self.b = 2

        assert payload_nbytes(Obj()) == 64 + 32 + 32

    def test_bigger_arrays_cost_more(self):
        small = payload_nbytes(np.zeros(10))
        big = payload_nbytes(np.zeros(10000))
        assert big > small


def _reference_nbytes(obj):
    """``payload_nbytes`` as it was before it grew exact-type fast paths:
    one isinstance ladder, recursing through itself.  The numbers it gives
    are part of every recorded clock, so the fast paths must reproduce them
    exactly."""
    if obj is None:
        return 8
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes) + 96
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj) + 33
    if isinstance(obj, (bool, int, float, complex, np.integer, np.floating)):
        return 32
    if isinstance(obj, str):
        return len(obj.encode("utf-8", errors="replace")) + 49
    if isinstance(obj, (list, tuple, set, frozenset)):
        return 56 + sum(_reference_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return 64 + sum(
            _reference_nbytes(k) + _reference_nbytes(v) for k, v in obj.items()
        )
    if hasattr(obj, "nbytes_estimate"):
        return int(obj.nbytes_estimate())
    if hasattr(obj, "__dict__"):
        return 64 + sum(_reference_nbytes(v) for v in vars(obj).values())
    return 64


class _Sized:
    def __init__(self, n):
        self.n = n

    def nbytes_estimate(self):
        return self.n


class _Plain:
    def __init__(self, a, b):
        self.a = a
        self.b = b


class _ArraySubclass(np.ndarray):
    pass


class _Pair(tuple):
    pass


_HASHABLE_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True),
    st.sampled_from(
        [np.int8(-3), np.int64(2**40), np.uint32(7), np.float32(1.5),
         np.float64("inf"), np.bool_(True), np.bool_(False), 1 + 2j]
    ),
    st.text(alphabet=st.characters(max_codepoint=127), max_size=12),
    st.text(max_size=12),
    st.sampled_from(["\ud800 lone surrogate", "naïve", "三角形", ""]),
    st.binary(max_size=16),
)
_ARRAYS = st.sampled_from(
    [
        np.array(3),  # 0-d
        np.zeros(0, dtype=np.int64),
        np.arange(20, dtype=np.int64)[::3],  # strided view
        np.arange(12, dtype=np.int32).reshape(3, 4).T,
        np.ones(5, dtype=np.float32),
        np.arange(6, dtype=np.int64).view(_ArraySubclass),
    ]
)
_LEAVES = st.one_of(
    _HASHABLE_LEAVES,
    _ARRAYS,
    st.builds(bytearray, st.binary(max_size=8)),
    st.builds(_Sized, st.integers(0, 10**6)),
)
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(children, max_size=3).map(_Pair),
        st.dictionaries(_HASHABLE_LEAVES, children, max_size=4),
        st.builds(_Plain, children, children),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_PAYLOADS)
def test_payload_nbytes_matches_reference_recursion(payload):
    got = payload_nbytes(payload)
    assert type(got) is int
    assert got == _reference_nbytes(payload)


@settings(max_examples=100, deadline=None)
@given(seq=st.integers(0, 10**6), op=st.sampled_from(["alltoall", "scan4"]),
       data=_PAYLOADS)
def test_payload_nbytes_matches_reference_on_collective_envelopes(seq, op, data):
    envelope = ("__simmpi_coll__", seq, op, data)
    assert payload_nbytes(envelope) == _reference_nbytes(envelope)
