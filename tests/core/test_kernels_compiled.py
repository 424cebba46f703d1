"""The compiled backend's build/load failure surface and its input checks.

Every way the library can fail to materialize — no compiler, a failing
compiler, no writable cache, a damaged cached file, a library that fails
its self-test, a package shipped without the C source — must end in the
same place: ``auto`` counts through ``row``/``batch`` with the oracle's
count, and an explicit ``"c"`` raises :class:`KernelUnavailableError`
naming the cause.  And whatever block reaches the wrapper, the C loop
never reads out of bounds: malformed input raises what ``row`` would.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import zlib
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.serial import count_triangles_map_based
from repro.core import TC2DConfig, count_triangles_2d
from repro.core.blocks import _KIND_CODES, Block, build_block
from repro.core.kernels import KernelUnavailableError, compiled, get_backend
from tests.core.test_intersect import to_blocks

needs_cc = pytest.mark.skipif(
    shutil.which("cc") is None, reason="no C compiler (`cc`) on PATH"
)


@pytest.fixture()
def fresh(tmp_path, monkeypatch):
    """A process that has not tried to load the library yet, with two
    empty cache directories of its own; returns them."""
    dirs = [tmp_path / "pycache", tmp_path / "home-cache"]
    monkeypatch.setattr(compiled, "cache_dirs", lambda: dirs)
    monkeypatch.setattr(compiled, "_loaded", None)
    return dirs


def assert_falls_back(er_graph, cause: str) -> None:
    """``auto`` never touches ``"c"`` and is right; ``"c"`` says why not."""
    res = count_triangles_2d(er_graph, 4)
    assert res.count == count_triangles_map_based(er_graph)
    assert "c" not in res.extras["kernel_backend_uses"]
    with pytest.raises(KernelUnavailableError, match=cause) as info:
        count_triangles_2d(er_graph, 4, TC2DConfig(kernel_backend="c"))
    assert cause in info.value.reason
    tb, ub, lb = to_blocks([(0, 0)], {0: [1]}, {0: [1]})
    with pytest.raises(KernelUnavailableError, match=cause):
        compiled.count_block_pair_c(tb, ub, lb, TC2DConfig())


def fake_cc(tmp_path: Path, monkeypatch, body: str) -> None:
    """Put a ``cc`` that runs ``body`` (sh) first and alone on PATH."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    cc = bin_dir / "cc"
    cc.write_text(f"#!/bin/sh\n{body}\n")
    cc.chmod(0o755)
    monkeypatch.setenv("PATH", str(bin_dir))


def listing(directory: Path) -> list[str]:
    return sorted(p.name for p in directory.iterdir())


# -- build failures ---------------------------------------------------------


def test_no_compiler_on_path(fresh, tmp_path, monkeypatch, er_graph):
    empty = tmp_path / "empty-bin"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    assert_falls_back(er_graph, "`cc` not found on PATH")
    assert listing(fresh[0]) == []


def test_compiler_exits_nonzero(fresh, tmp_path, monkeypatch, er_graph):
    fake_cc(tmp_path, monkeypatch, "echo 'tck.c:1: error: boom' >&2; exit 1")
    assert_falls_back(er_graph, "`cc` exited with status 1")
    assert "boom" in compiled.unavailable_reason()
    assert listing(fresh[0]) == []  # no temp left behind


def test_no_cache_directory_writable(fresh, tmp_path, monkeypatch, er_graph):
    # A path below a regular file cannot be created by anyone, root included.
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    dirs = [blocker / "a", blocker / "b"]
    monkeypatch.setattr(compiled, "cache_dirs", lambda: dirs)
    assert_falls_back(er_graph, "is not writable")


@needs_cc
def test_second_cache_directory_is_the_fallback(fresh, tmp_path, monkeypatch):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    dirs = [blocker / "a", fresh[1]]
    monkeypatch.setattr(compiled, "cache_dirs", lambda: dirs)
    assert compiled.available()
    assert len(listing(fresh[1])) == 1


def test_package_without_the_source_degrades(fresh, tmp_path, monkeypatch, er_graph):
    monkeypatch.setattr(compiled, "SOURCE", tmp_path / "not-shipped.c")
    assert_falls_back(er_graph, "not-shipped.c is not readable")


# -- a cached library that is damaged ---------------------------------------


def _wrong_symbol(path: Path, _good: bytes) -> None:
    """A well-formed library of ours — trailer and all — without the
    entry point."""
    src = path.with_suffix(".c")
    src.write_text("int something_else(void) { return 0; }\n")
    subprocess.run(["cc", *compiled.CFLAGS, "-o", str(path), str(src)], check=True)
    src.unlink()
    with open(path, "ab") as fh:
        fh.write(compiled.hashlib.sha256(path.read_bytes()).digest())


DAMAGE = {
    "truncated": lambda p, good: p.write_bytes(good[: len(good) // 2]),
    "zero_length": lambda p, good: p.write_bytes(b""),
    "foreign_elf": lambda p, good: shutil.copyfile("/bin/sh", p),
    "wrong_symbol": _wrong_symbol,
}


@needs_cc
@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damaged_cached_library_is_removed_and_rebuilt(fresh, damage):
    """The damaged file is what this process finds first (a path it never
    loaded: glibc hands back an already-loaded library by name)."""
    reference = fresh[1] / compiled.library_name()
    fresh[1].mkdir()
    compiled._build(reference)
    good = reference.read_bytes()
    fresh[0].mkdir()
    path = fresh[0] / reference.name
    DAMAGE[damage](path, good)
    assert path.read_bytes() != good
    assert compiled.available()
    assert listing(fresh[0]) == [reference.name]
    assert path.read_bytes() == good


@needs_cc
def test_rebuild_is_tried_once(fresh, tmp_path, monkeypatch, er_graph):
    """A compiler whose output does not load: the cached file is removed,
    one rebuild is tried, and its failure is final."""
    fresh[0].mkdir()
    (fresh[0] / compiled.library_name()).write_bytes(b"")
    calls = tmp_path / "calls"
    fake_cc(tmp_path, monkeypatch, f'echo x >> {calls}; echo garbage > "$5"')
    assert_falls_back(er_graph, "freshly built library does not load")
    assert calls.read_text() == "x\n"


@needs_cc
def test_stale_versions_are_removed_by_a_build(fresh):
    fresh[0].mkdir()
    (fresh[0] / "_tck-0123456789abcdef.so").write_bytes(b"old")
    (fresh[0] / "unrelated.pyc").write_bytes(b"keep")
    assert compiled.available()
    names = listing(fresh[0])
    assert len(names) == 2 and "unrelated.pyc" in names
    assert "_tck-0123456789abcdef.so" not in names


# -- a library that computes something else ---------------------------------


@needs_cc
def test_self_test_mismatch_is_refused(fresh, tmp_path, monkeypatch, er_graph):
    """Same signature, no counting: it builds and loads, fails the
    self-test, and is never used."""
    real = compiled.SOURCE.read_text()
    head = real[real.index("int64_t tck_count(") : real.index("{\n    csr_t T, U, L;")]
    impostor = tmp_path / "_tck.c"
    impostor.write_text(f"#include <stdint.h>\n{head}{{ return 0; }}\n")
    monkeypatch.setattr(compiled, "SOURCE", impostor)
    assert_falls_back(er_graph, "self-test mismatch")


# -- two processes, one first build -----------------------------------------

_RACER = """\
import sys, pathlib
from repro.core.kernels import compiled
compiled.cache_dirs = lambda: [pathlib.Path(sys.argv[1])]
from repro.core import count_triangles_2d
from repro.graph import erdos_renyi_gnm
res = count_triangles_2d(erdos_renyi_gnm(200, 1500, seed=1), 4)
assert set(res.extras["kernel_backend_uses"]) == {"c"}, res.extras
print(res.count)
"""


@needs_cc
def test_two_processes_race_the_first_build(tmp_path):
    cache = tmp_path / "cache"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _RACER, str(cache)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(2)
    ]
    outs = [p.communicate(timeout=120) for p in procs]
    assert [p.returncode for p in procs] == [0, 0], outs
    assert outs[0][0] == outs[1][0]
    (name,) = listing(cache)  # one library, no temp
    assert name.startswith("_tck-") and name.endswith(".so")


# -- the pool ---------------------------------------------------------------


@needs_cc
def test_parallel_run_counts_in_c_from_one_library(er_graph):
    """Workers load what the parent built: every kernel of a pooled run is
    ``"c"`` and the cache holds exactly one library afterwards."""
    if not compiled.available():
        pytest.skip("compiled backend unavailable on this host")
    cfg = TC2DConfig(executor="parallel", workers=2)
    res = count_triangles_2d(er_graph, 9, cfg)
    assert res.count == count_triangles_map_based(er_graph)
    uses = res.extras["kernel_backend_uses"]
    assert set(uses) == {"c"} and uses["c"] > 0
    built = [p.name for d in compiled.cache_dirs() if d.is_dir()
             for p in d.glob("_tck-*")]
    assert len(built) == 1 and built[0].endswith(".so")


# -- what the wrapper and the loop refuse -----------------------------------


@pytest.fixture()
def triple():
    if not compiled.available():
        pytest.skip("compiled backend unavailable on this host")
    return to_blocks(
        [(0, 0), (0, 2), (3, 1)],
        {0: [1, 4, 7], 3: [2, 5]},
        {0: [1, 2, 7], 1: [5], 2: [0, 4]},
        n_outer=4, n_inner=8,
    )


def _run(tb, ub, lb, cfg=TC2DConfig()):
    return get_backend("c")(tb, ub, lb, cfg)


def _resealed(block: Block, edit) -> Block:
    """``block`` with its blob edited by ``edit(blob)`` and the crc
    recomputed, so the arrival check passes and only the loop's own
    checks stand between the edit and a read out of bounds."""
    blob = block.as_blob().copy()
    edit(blob)
    blob[6] = zlib.crc32(blob[7:])
    return Block.from_blob(blob)


def _indptr(blob: np.ndarray) -> np.ndarray:
    return blob[7 : 8 + blob[3]]


def _indices(blob: np.ndarray) -> np.ndarray:
    return blob[8 + blob[3] :]


def test_wrapper_baseline(triple):
    assert _run(*triple).triangles == 4


def test_wrapper_refuses_to_list(triple):
    """The loop only counts; a listing call is routed to ``"batch"`` by
    ``resolve_backend`` and refused here."""
    with pytest.raises(ValueError, match="counts only"):
        get_backend("c")(*triple, TC2DConfig(), [])


def _short(t, u, l):
    return t[:5], u, l


def _set(which: int, word, value):
    """Set header/payload word ``word`` (an int, or a function of the
    blob) of blob ``which`` (0 task, 1 U, 2 L)."""

    def damage(*blobs):
        blobs = list(blobs)
        b = blobs[which]
        b[word(b) if callable(word) else word] = value(b) if callable(value) else value
        return blobs

    return damage


def _longer(t, u, l):
    return t, u, np.append(l, 0)


def _three_row_u_block() -> Block:
    return build_block("U-row", 0, 0, 3, 8, np.array([0, 0, 0]), np.array([1, 4, 7]))


def _three_row_u(t, u, l):
    return t, _three_row_u_block().as_blob(), l


MALFORMED = {
    "shorter-than-header": (_short, ValueError),
    "negative-n_rows": (_set(0, 3, -1), ValueError),
    "negative-n_cols": (_set(2, 4, -1), ValueError),
    "negative-nnz": (_set(1, 5, -1), ValueError),
    "huge-n_rows": (_set(0, 3, 1 << 62), ValueError),
    "header-claims-more-entries": (_set(2, 5, lambda b: b[5] + 1), ValueError),
    "blob-longer-than-header": (_longer, ValueError),
    "indptr-not-from-0": (_set(1, 7, 1), ValueError),
    "indptr-not-monotone": (_set(2, 8, lambda b: b[5] + 3), ValueError),
    "indptr-not-ending-at-nnz": (
        _set(0, lambda b: 7 + b[3], lambda b: b[5] - 1), ValueError,
    ),
    "task-and-u-row-counts-differ": (_three_row_u, ValueError),
    "task-column-past-l": (_set(0, -1, lambda b: 4), IndexError),
    "task-column-negative": (_set(0, -1, -1), IndexError),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_c_entry_rejects_a_malformed_blob(triple, case):
    """The entry itself, handed raw blobs no arrival check has seen: every
    malformed shape ends in the error ``row`` raises for it, never in a
    crash or a read past a blob."""
    damage, error = MALFORMED[case]
    blobs = damage(*(b.as_blob().copy() for b in triple))
    with pytest.raises(error, match="malformed block|task column out of range"):
        compiled._call(compiled.load(), *blobs, TC2DConfig())
    # The untouched triple still counts.
    assert compiled._call(compiled.load(), *(b.as_blob() for b in triple),
                          TC2DConfig())[-1] == 4


def test_wrapper_rejects_row_count_mismatch(triple):
    tb, _, lb = triple
    with pytest.raises(ValueError, match="malformed block"):
        _run(tb, _three_row_u_block(), lb)


@pytest.mark.parametrize("which", [0, 1, 2])
def test_wrapper_rejects_indptr_not_ending_at_nnz(triple, which):
    """The header and the length agree; the last indptr word does not."""
    blocks = list(triple)
    blocks[which] = _resealed(
        blocks[which], lambda b: _indptr(b).__setitem__(-1, b[5] - 1)
    )
    with pytest.raises(ValueError, match="malformed block"):
        _run(*blocks)


@pytest.mark.parametrize("which", [0, 1, 2])
def test_wrapper_rejects_non_monotone_indptr(triple, which):
    """Ends are right, the middle points past the array: only the loop's
    own range check can see it."""
    blocks = list(triple)
    blocks[which] = _resealed(
        blocks[which], lambda b: _indptr(b).__setitem__(1, b[5] + 3)
    )
    with pytest.raises(ValueError, match="malformed block"):
        _run(*blocks)


@pytest.mark.parametrize("col", [4, 1 << 40, -1])
def test_wrapper_rejects_task_column_outside_l(triple, col):
    tb, ub, lb = triple
    tb = _resealed(tb, lambda b: _indices(b).__setitem__(1, col))
    with pytest.raises(IndexError, match="task column out of range"):
        _run(tb, ub, lb)


@pytest.mark.parametrize("which", ["task", "u", "l"])
@pytest.mark.parametrize("field", ["indptr", "indices"])
def test_c_reads_the_blob_not_the_views(triple, which, field):
    """The loop reads each block's blob: damaged views (a wrong dtype, a
    strided array) on the Python side change nothing it counts."""
    blocks = dict(zip(("task", "u", "l"), triple))
    csr = blocks[which].dcsr.csr
    good = getattr(csr, field)
    for bad in (good.astype(np.int32), np.repeat(good, 2)[::2]):
        setattr(csr, field, bad)
        assert _run(*triple).triangles == 4


@pytest.mark.parametrize("doubly_sparse", [True, False])
def test_c_counts_row_visits_itself(triple, doubly_sparse):
    """Row visits come back from the loop: the nonempty task rows (0 and
    3 here), or every row with the doubly-sparse optimization off."""
    cfg = TC2DConfig(doubly_sparse=doubly_sparse)
    st = _run(*triple, cfg)
    assert st.row_visits == (2 if doubly_sparse else 4)
    assert triple[0]._dcsr is None  # no view was built to count them
    assert st == get_backend("row")(*triple, cfg)


def test_c_sizes_its_table_by_the_capacity_rule(triple, monkeypatch):
    """The self-test's constants are what ``row`` counts on the same
    blobs; the third case's longest U row is 5, so only a table of 8
    slots — ``max(4, 5)`` rounded up to a power of two — gives them."""
    from repro.core.kernels import rowwise

    kinds = ("task", "U-row", "L-col")
    for *blobs, cfg, want in compiled.SELF_TEST_CASES:
        blocks = []
        for kind, blob in zip(kinds, blobs):
            blob = blob.copy()
            blob[0], blob[4] = _KIND_CODES[kind], 64
            blob[6] = zlib.crc32(blob[7:])
            blocks.append(Block.from_blob(blob))
        assert compiled._call(compiled.load(), *blobs, cfg) == want
        assert list(astuple(get_backend("row")(*blocks, cfg))) == want
    *_, cfg, want = compiled.SELF_TEST_CASES[2]
    assert np.diff(_indptr(compiled.SELF_TEST_CASES[2][1])).max() == 5
    monkeypatch.setattr(rowwise, "kernel_capacity", lambda u: 16)
    assert list(astuple(get_backend("row")(*blocks, cfg))) != want


def test_c_counts_read_only_mapped_blobs(triple, tmp_path):
    """Blobs straight out of a read-only map count like built ones."""
    from repro.core.blocks import read_rank_file, write_rank_file

    tb, ub, lb = triple
    path = tmp_path / "rank000.blocks"
    write_rank_file(path, [0], [ub.as_blob(), lb.as_blob(), tb.as_blob()])
    u, l, t = read_rank_file(path, 0).blocks
    assert not t.as_blob().flags.writeable
    assert _run(t, u, l) == _run(*triple)
