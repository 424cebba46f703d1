"""CSR construction, invariants and accessors."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CSR


def test_from_coo_sorts_rows():
    c = CSR.from_coo(3, [0, 0, 2, 2, 2], [2, 1, 5, 0, 3], n_cols=6)
    assert np.array_equal(c.row(0), [1, 2])
    assert np.array_equal(c.row(1), [])
    assert np.array_equal(c.row(2), [0, 3, 5])
    assert c.nnz == 5


def test_from_coo_dedup():
    c = CSR.from_coo(2, [0, 0, 0, 1], [1, 1, 1, 0], dedup=True)
    assert c.nnz == 2
    assert np.array_equal(c.row(0), [1])


def test_from_coo_keeps_duplicates_by_default():
    c = CSR.from_coo(2, [0, 0], [1, 1])
    assert c.nnz == 2


def test_out_of_range_indices_rejected():
    with pytest.raises(ValueError):
        CSR.from_coo(2, [0, 5], [0, 0])
    with pytest.raises(ValueError):
        CSR.from_coo(2, [0, 0], [0, 7])
    with pytest.raises(ValueError):
        CSR.from_coo(2, [-1], [0])


def test_mismatched_coords_rejected():
    with pytest.raises(ValueError):
        CSR.from_coo(2, [0, 1], [0])


def test_bad_indptr_rejected():
    with pytest.raises(ValueError):
        CSR(2, np.array([0, 1]), np.array([0]))  # wrong indptr length
    with pytest.raises(ValueError):
        CSR(1, np.array([0, 5]), np.array([0]))  # end != nnz


def test_empty():
    c = CSR.empty(4)
    assert c.nnz == 0
    assert np.array_equal(c.row_lengths(), [0, 0, 0, 0])
    assert len(c.nonempty_rows()) == 0


def test_row_lengths_and_nonempty_rows():
    c = CSR.from_coo(4, [1, 1, 3], [0, 2, 3])
    assert np.array_equal(c.row_lengths(), [0, 2, 0, 1])
    assert np.array_equal(c.nonempty_rows(), [1, 3])


def test_iter_rows_covers_all():
    c = CSR.from_coo(3, [0, 2], [1, 2])
    rows = dict((i, list(r)) for i, r in c.iter_rows())
    assert rows == {0: [1], 1: [], 2: [2]}


def test_to_coo_roundtrip():
    rows = np.array([0, 1, 1, 4])
    cols = np.array([3, 0, 2, 4])
    c = CSR.from_coo(5, rows, cols)
    r2, c2 = c.to_coo()
    c3 = CSR.from_coo(5, r2, c2)
    assert c3 == c


def test_transpose_involution():
    c = CSR.from_coo(3, [0, 1, 2, 2], [2, 0, 1, 2], n_cols=3)
    assert c.transpose().transpose() == c


def test_transpose_rectangular():
    c = CSR.from_coo(2, [0, 1], [4, 3], n_cols=5)
    t = c.transpose()
    assert t.n_rows == 5 and t.n_cols == 2
    assert np.array_equal(t.row(4), [0])
    assert np.array_equal(t.row(3), [1])


def test_to_scipy_matches():
    c = CSR.from_coo(3, [0, 1, 2], [1, 2, 0])
    s = c.to_scipy()
    assert s.shape == (3, 3)
    assert s.nnz == 3
    assert s[0, 1] == 1 and s[2, 0] == 1


def test_equality_and_inequality():
    a = CSR.from_coo(2, [0], [1])
    b = CSR.from_coo(2, [0], [1])
    c = CSR.from_coo(2, [1], [0])
    assert a == b
    assert a != c
    assert a != "not a csr"


def test_row_returns_view_not_copy():
    c = CSR.from_coo(2, [0, 0], [1, 0])
    v = c.row(0)
    assert v.base is c.indices


def test_nbytes_estimate_scales():
    small = CSR.from_coo(2, [0], [1]).nbytes_estimate()
    big = CSR.from_coo(1000, np.zeros(5000, int), np.zeros(5000, int)).nbytes_estimate()
    assert big > small


# -- from_coo: single-key sort vs the two-key formulation ---------------------


def _lexsort_from_coo(n_rows, rows, cols, dedup):
    """``from_coo``'s body before the single-key sort: ``(indptr, indices)``
    by ``np.lexsort`` on the two coordinate arrays."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    if dedup and len(rows):
        keep = np.ones(len(rows), dtype=bool)
        keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        rows, cols = rows[keep], cols[keep]
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    return indptr, cols


@st.composite
def _coo_inputs(draw):
    n_rows = draw(st.integers(0, 12))
    # Small widths, and widths that put the shape just below, at or just
    # above 2**32, where the sort key changes from uint32 to int64.
    wide = 2**32 // max(n_rows, 1)
    n_cols = draw(st.one_of(
        st.none(), st.integers(0, 40), st.integers(wide - 2, wide + 2)
    ))
    width = n_rows if n_cols is None else n_cols
    if n_rows == 0 or width == 0:
        return n_rows, n_cols, [], []
    col = st.one_of(st.integers(0, width - 1), st.integers(max(0, width - 3), width - 1))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n_rows - 1), col),
        max_size=60,
    ))
    return n_rows, n_cols, [r for r, _ in pairs], [c for _, c in pairs]


@settings(max_examples=200, deadline=None)
@given(_coo_inputs(), st.booleans())
def test_from_coo_equals_lexsort_formulation(case, dedup):
    """Rectangular, zero-width, empty and duplicate-laden inputs, with
    shapes on both sides of the uint32 key's 2**32, all give the arrays
    the two-key sort gave."""
    n_rows, n_cols, rows, cols = case
    got = CSR.from_coo(n_rows, rows, cols, n_cols=n_cols, dedup=dedup)
    indptr, indices = _lexsort_from_coo(n_rows, rows, cols, dedup)
    assert got.n_rows == n_rows
    assert got.n_cols == (n_rows if n_cols is None else n_cols)
    assert got.indptr.dtype == got.indices.dtype == np.int64
    assert np.array_equal(got.indptr, indptr)
    assert np.array_equal(got.indices, indices)


@pytest.mark.parametrize("dedup", [False, True])
def test_from_coo_overflowing_shape_takes_two_key_sort(dedup):
    """``n_rows * n_cols >= 2**62``: ``row * n_cols + col`` would wrap
    int64 (here for every entry of rows 4..7), so the shape alone selects
    the ``lexsort`` body."""
    n_rows, n_cols = 8, 2**61
    rows = [7, 0, 7, 4, 7, 4, 0]
    cols = [n_cols - 1, 5, 3, n_cols - 2, 3, 0, 5]
    got = CSR.from_coo(n_rows, rows, cols, n_cols=n_cols, dedup=dedup)
    indptr, indices = _lexsort_from_coo(n_rows, rows, cols, dedup)
    assert np.array_equal(got.indptr, indptr)
    assert np.array_equal(got.indices, indices)
    assert got.row(7).tolist() == ([3, n_cols - 1] if dedup
                                   else [3, 3, n_cols - 1])
