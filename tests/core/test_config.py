"""TC2DConfig validation and ablation registry."""

from __future__ import annotations

import pytest

from repro.core import TC2DConfig


def test_defaults_are_paper_configuration():
    cfg = TC2DConfig()
    assert cfg.enumeration == "jik"
    assert cfg.doubly_sparse
    assert cfg.modified_hashing
    assert cfg.early_stop
    assert cfg.blob_serialization
    # The Section 5.3 steps always run; the store key keeps naming them
    # so existing store entries keep their digests.
    assert cfg.store_key() == {
        "algorithm": "tc2d",
        "enumeration": "jik",
        "initial_cyclic": True,
        "degree_reorder": True,
    }


def test_invalid_enumeration_rejected():
    with pytest.raises(ValueError):
        TC2DConfig(enumeration="kij")


def test_replace_copies():
    a = TC2DConfig()
    b = a.replace(early_stop=False)
    assert a.early_stop and not b.early_stop
    assert b.enumeration == "jik"


def test_frozen():
    cfg = TC2DConfig()
    with pytest.raises(Exception):
        cfg.early_stop = False  # type: ignore[misc]


def test_ablations_cover_each_feature():
    ab = TC2DConfig.ablations()
    assert any(not c.doubly_sparse for c in ab.values())
    assert any(not c.modified_hashing for c in ab.values())
    assert any(not c.early_stop for c in ab.values())
    assert any(not c.blob_serialization for c in ab.values())
    assert any(c.enumeration == "ijk" for c in ab.values())
    assert TC2DConfig() in ab.values()  # the baseline itself
