"""Processor-grid arithmetic and the Cannon alignment invariant."""

from __future__ import annotations

import pytest

from repro.core.grid import ProcessorGrid, exact_sqrt


def test_exact_sqrt():
    assert exact_sqrt(1) == 1
    assert exact_sqrt(169) == 13
    for bad in (2, 3, 5, 8, 168, 0, -4):
        with pytest.raises(ValueError, match=f"p={bad}"):
            exact_sqrt(bad)


def test_coords_rank_roundtrip():
    g = ProcessorGrid(4)
    for r in range(16):
        x, y = g.coords(r)
        assert g.rank_of(x, y) == r


def test_coords_out_of_range():
    with pytest.raises(ValueError):
        ProcessorGrid(2).coords(4)


def test_rank_of_wraps():
    g = ProcessorGrid(3)
    assert g.rank_of(-1, 0) == g.rank_of(2, 0)
    assert g.rank_of(0, 3) == g.rank_of(0, 0)


def test_owner_of_entry_cyclic():
    g = ProcessorGrid(3)
    assert g.owner_of_entry(0, 0) == 0
    assert g.owner_of_entry(4, 5) == g.rank_of(1, 2)
    assert g.owner_of_entry(3, 3) == 0


def test_local_ids_roundtrip():
    g = ProcessorGrid(5)
    for v in range(100):
        assert g.global_id(v % 5, g.local_id(v)) == v


def test_local_count():
    g = ProcessorGrid(4)
    n = 10
    counts = [g.local_count(r, n) for r in range(4)]
    assert sum(counts) == n
    assert counts == [3, 3, 2, 2]
    assert g.local_count(0, 0) == 0


def test_skew_and_shift_are_inverse_pairs():
    g = ProcessorGrid(4)
    # If A says "I send U to B", then B must say "I receive U from A".
    for r in range(g.p):
        x, y = g.coords(r)
        dest, _src = g.skew_u(x, y)
        dx, dy = g.coords(dest)
        _d2, src2 = g.skew_u(dx, dy)
        assert src2 == r
        dest, _src = g.shift_l(x, y)
        dx, dy = g.coords(dest)
        _d2, src2 = g.shift_l(dx, dy)
        assert src2 == r


def test_equation6_residue_schedule():
    # After the skew and z shifts, P(x, y) must hold inner residue
    # (x + y + z) % q for both operands (Equation 6).
    for q in (2, 3, 4, 5):
        g = ProcessorGrid(q)
        for r in range(g.p):
            x, y = g.coords(r)
            # Simulate: which U block ends up here after skew + z shifts?
            # The skew brings U_{x, x+y}; each shift adds one to the column.
            for z in range(q):
                assert g.operand_residue(x, y, z) == (x + y + z) % q


def test_skew_matches_equation6_z0():
    # The block received in the skew must carry residue (x+y)%q: the
    # sender P(x, x+y) holds U_{x, (x+y)%q} pre-skew.
    for q in (2, 3, 5):
        g = ProcessorGrid(q)
        for r in range(g.p):
            x, y = g.coords(r)
            _dest, src = g.skew_u(x, y)
            sx, sy = g.coords(src)
            assert sx == x
            assert sy == g.operand_residue(x, y, 0)
            _dest, src = g.skew_l(x, y)
            sx, sy = g.coords(src)
            assert sy == y
            assert sx == g.operand_residue(x, y, 0)


def test_for_ranks_validates():
    assert ProcessorGrid.for_ranks(9).q == 3
    with pytest.raises(ValueError):
        ProcessorGrid.for_ranks(10)
