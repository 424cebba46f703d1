"""Dataset registry behaviour."""

from __future__ import annotations

import pytest

from repro.graph import dataset_names, load_dataset
from repro.graph.datasets import PAPER_TABLE1, REGISTRY, clear_cache


def test_names_cover_paper_families():
    names = dataset_names()
    assert "twitter-like" in names
    assert "friendster-like" in names
    assert any(n.startswith("g500-") for n in names)


def test_unknown_dataset_raises():
    with pytest.raises(KeyError):
        load_dataset("nope")


def test_cache_returns_same_object():
    a = load_dataset("g500-s12")
    b = load_dataset("g500-s12")
    assert a is b
    clear_cache()
    c = load_dataset("g500-s12")
    assert c is not a
    assert c.adj == a.adj  # deterministic rebuild


def test_seed_changes_graph():
    a = load_dataset("g500-s12", seed=0)
    b = load_dataset("g500-s12", seed=1)
    assert a.adj != b.adj


def test_scale_env_changes_size(monkeypatch):
    clear_cache()
    a = load_dataset("twitter-like")
    monkeypatch.setenv("REPRO_DATASET_SCALE", "0.5")
    clear_cache()
    b = load_dataset("twitter-like")
    assert b.n < a.n
    monkeypatch.delenv("REPRO_DATASET_SCALE")
    clear_cache()


def test_friendster_like_is_triangle_poor():
    from repro.graph import triangle_count_linalg

    tw = load_dataset("twitter-like")
    fr = load_dataset("friendster-like")
    tw_density = triangle_count_linalg(tw) / tw.num_edges
    fr_density = triangle_count_linalg(fr) / fr.num_edges
    assert tw_density > 10 * fr_density


def test_paper_table1_reference_is_complete():
    assert set(PAPER_TABLE1) == {
        "twitter",
        "friendster",
        "g500-s26",
        "g500-s27",
        "g500-s28",
        "g500-s29",
    }
    for stats in PAPER_TABLE1.values():
        assert {"vertices", "edges", "triangles"} <= set(stats)


def test_registry_specs_documented():
    for spec in REGISTRY.values():
        assert spec.description
        assert spec.paper_name


#: What every registry name generates at ``REPRO_DATASET_SCALE=0.25`` and
#: seed 0: ``(n, m, graph_digest)``.
REGISTRY_PIN = {
    "g500-s12": (1024, 10501, "6a8eab41cbf6d536477de8a01ea8aff4d4998d9e4ad87499f7f180e3fa570297"),
    "g500-s13": (2048, 22734, "69b359be9b262441b59621809523b2682eaa4f62aaeedc2090c5801b16b1839b"),
    "g500-s14": (4096, 48597, "5b64924b6b0e6149efbf4e821da338d9be6fd72084693cf43fa13073b75be5cb"),
    "g500-s15": (8192, 102075, "9e35788a070d3e4d195804c23e87fa4bf75ce5b1a9a9a5dcedca85118535d7ba"),
    "g500-s16": (16384, 212609, "7187c263fe9e716e66b7f6e3270b746b598f57d39479add7d1c4fb3f14aed598"),
    "twitter-like": (2250, 26922, "3d765b172c6d5fcae9bc645d5d92fc1c2147edbf41f1dbdba24a9f5eed9c99c0"),
    "friendster-like": (10000, 34538, "011cf25d43826426a67a29c61bf1450f851aa27e5837ae5363b61a96ab7bb1d0"),
}


def test_registry_version_pins_what_names_generate(monkeypatch):
    """The store serves a registry name off its record, keyed by
    ``REGISTRY_VERSION`` (not by the graph): a name that now generates
    another graph must bump it, or warm counts serve the old graph."""
    from repro.graph.store import graph_digest

    monkeypatch.setenv("REPRO_DATASET_SCALE", "0.25")
    got = {}
    for name in REGISTRY:
        g = load_dataset(name)
        got[name] = (g.n, g.num_edges, graph_digest(g))
    changed = sorted(name for name in REGISTRY if got[name] != REGISTRY_PIN.get(name))
    assert not changed and set(REGISTRY_PIN) == set(REGISTRY), (
        f"{changed or 'the set of names'} changed: bump REGISTRY_VERSION in "
        "repro/graph/datasets.py, then re-record REGISTRY_PIN"
    )
