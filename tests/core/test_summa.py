"""SUMMA rectangular-grid variant."""

from __future__ import annotations

import pytest

from repro.core import TC2DConfig, count_triangles_2d, count_triangles_summa
from repro.graph import triangle_count_linalg


GRIDS = [(1, 1), (1, 4), (4, 1), (2, 3), (3, 2), (2, 2), (3, 4), (4, 4), (2, 5)]


@pytest.mark.parametrize("pr,pc", GRIDS)
def test_exact_on_er(er_graph, pr, pc):
    want = triangle_count_linalg(er_graph)
    assert count_triangles_summa(er_graph, pr, pc).count == want


@pytest.mark.parametrize("pr,pc", [(2, 3), (3, 3)])
def test_exact_on_skewed(rmat_small, pr, pc):
    want = triangle_count_linalg(rmat_small)
    assert count_triangles_summa(rmat_small, pr, pc).count == want


def test_exact_on_tiny(tiny_graph):
    assert count_triangles_summa(tiny_graph, 2, 3).count == 3


def test_ijk_not_supported(er_graph):
    with pytest.raises(ValueError):
        count_triangles_summa(er_graph, 2, 2, cfg=TC2DConfig(enumeration="ijk"))


def test_square_summa_matches_cannon(er_graph):
    cannon = count_triangles_2d(er_graph, 9)
    summa = count_triangles_summa(er_graph, 3, 3)
    assert cannon.count == summa.count


def test_result_metadata(er_graph):
    res = count_triangles_summa(er_graph, 2, 3, dataset="er")
    assert res.algorithm == "summa-2x3"
    assert res.p == 6
    assert res.ppt_time > 0 and res.tct_time > 0


def test_optimization_toggles(er_graph):
    want = triangle_count_linalg(er_graph)
    for cfg in (
        TC2DConfig(doubly_sparse=False),
        TC2DConfig(modified_hashing=False),
        TC2DConfig(early_stop=False),
    ):
        assert count_triangles_summa(er_graph, 2, 3, cfg=cfg).count == want
