"""Out-of-core (external-memory) preprocessing for graphs ≫ RAM.

Every other path in the repo materializes the full edge list — and all
per-rank U/L/task blocks — in one process, so the largest countable
graph is bounded by resident memory.  This module rebuilds Section 5.3's
preprocessing pipeline as a sequence of **streaming external-memory
passes** whose peak memory is bounded by a ``chunk_bytes`` budget, never
by the graph size:

1. **ingest** — the raw edge list is read in fixed-size chunks by the
   one edge-list reader :func:`repro.graph.io.read_edge_list` also
   uses (same ``n`` rule, same row rule, same
   :class:`~repro.graph.io.EdgeListError`), canonicalized (self loops
   dropped, endpoints ordered ``u < v``), encoded as single int64 keys ``u * n + v`` and spilled to disk as
   sorted runs (:class:`SpillSorter`);
2. **merge** — the runs are pairwise stream-merged (with dedup) into one
   sorted key file: the canonical ``u < v`` edge array, byte-for-byte
   the order :meth:`~repro.graph.csr.Graph.edge_array` produces, which
   is what lets the streaming sha256 reproduce
   :func:`~repro.graph.store.graph_digest` exactly;
3. **degrees** — a directed (both-endpoint) re-sort makes per-vertex
   run lengths the degrees; the dense degree table and its histogram
   are written/accumulated sequentially;
4. **reorder** — the distributed counting sort collapses to a closed
   form: ties order by (owning rank, local position), which in the
   lambda1 layout is simply ascending lambda1 label, so streaming the
   degree table through :func:`~repro.core.preprocess.
   counting_sort_placement` with a running ``seen`` histogram yields
   the exact same final labels the in-memory pipeline assigns;
5. **translate + route** — two merge-join passes attach the final
   labels of both endpoints to every directed edge occurrence, classify
   it upper/lower, and append it directly into per-grid-rank spill
   files (the streaming 2D cyclic redistribution);
6. **assemble** — each rank's pairs are read back and fed through the
   same pure :func:`~repro.core.preprocess.assemble_blocks` the engine
   uses (its CSR builds fully sort their input, so arrival order is
   irrelevant), then persisted through the store's one way into an
   entry (the one :meth:`~repro.graph.store.GraphStore.open_run` takes)
   — the resulting store entry is **bit-identical** to one written by
   an in-memory cold run and serves warm (mmap-backed) counting runs
   interchangeably.

Honest memory bound: ``O(chunk_bytes + largest per-rank block +
dmax)`` — the per-rank term is the paper's ``O(m/p)`` working set (the
engine holds it anyway), and the histogram term matches the in-memory
``np.bincount(minlength=dmax + 1)``.

:func:`count_triangles_oocore` is the driver: ensure the store entry
exists (running the external pipeline only on a store miss), then count
via :func:`~repro.core.tc2d.count_triangles_2d` against the warm,
mmap-served cache.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from repro.graph.csr import INDEX_DTYPE
from repro.graph.io import _iter_edges, input_vertex_count

#: Default spill-chunk budget (bytes) when the caller sets none.
DEFAULT_CHUNK_BYTES = 64 * 1024 * 1024

#: Floor for the budget: below this the chunking overhead dominates and
#: block sizes degenerate to a handful of rows.
MIN_CHUNK_BYTES = 1 << 16

#: Largest vertex count for which the ``u * n + v`` key encoding fits
#: int64 (``n**2 < 2**63``).
MAX_ENCODABLE_N = 3_037_000_499


def _budget_rows(chunk_bytes: int, width: int) -> int:
    """Rows per buffered block for one stream of ``width``-column int64
    rows: sized so the transient copies a sort/merge step makes (input
    blocks, the concatenation, the sorted copy — about eight block
    volumes across two streams) stay within ``chunk_bytes``."""
    return max(1024, int(chunk_bytes) // (64 * width))


# ---------------------------------------------------------------------------
# external sorting: spill runs + streaming pairwise merge
# ---------------------------------------------------------------------------


def _iter_i8_blocks(
    path: Path, chunk_rows: int, width: int = 1
) -> Iterator[np.ndarray]:
    """Sequential blocks of a flat int64 file, shaped ``(k,)`` or
    ``(k, width)``."""
    with open(path, "rb") as fh:
        while True:
            arr = np.fromfile(fh, dtype=INDEX_DTYPE, count=chunk_rows * width)
            if arr.size == 0:
                return
            yield arr if width == 1 else arr.reshape(-1, width)


class _BlockReader:
    """Pull-based block iterator with a ``next()`` returning ``None`` at
    end of stream (what the merge loop wants)."""

    def __init__(self, path: Path, chunk_rows: int, width: int):
        self._it = _iter_i8_blocks(path, chunk_rows, width)

    def next(self) -> np.ndarray | None:
        return next(self._it, None)


def _sort_rows(arr: np.ndarray) -> np.ndarray:
    """Sort rows by their first column (stable), or a flat key array."""
    if arr.ndim == 1:
        out = arr.copy()
        out.sort()
        return out
    return arr[np.argsort(arr[:, 0], kind="stable")]


def _dedup_sorted(arr: np.ndarray, last: int | None) -> tuple[np.ndarray, int | None]:
    """Drop repeats from a sorted key block, deduping across block
    boundaries via ``last`` (the final key already emitted)."""
    if arr.size == 0:
        return arr, last
    mask = np.empty(len(arr), dtype=bool)
    mask[0] = last is None or int(arr[0]) != last
    mask[1:] = arr[1:] != arr[:-1]
    return arr[mask], int(arr[-1])


def _merge_pair(
    a_path: Path,
    b_path: Path,
    out_path: Path,
    chunk_rows: int,
    width: int,
    dedup: bool,
) -> None:
    """Stream-merge two sorted run files into one (bounded memory).

    Each iteration merges everything ``<=`` the smaller of the two
    blocks' last keys — that block is fully consumed, so the loop makes
    progress and emitted output never interleaves with later input.
    """
    ra = _BlockReader(a_path, chunk_rows, width)
    rb = _BlockReader(b_path, chunk_rows, width)
    a, b = ra.next(), rb.next()
    last: int | None = None
    with open(out_path, "wb") as fh:

        def emit(block: np.ndarray) -> None:
            nonlocal last
            if dedup:
                block, last = _dedup_sorted(block, last)
            block.tofile(fh)

        while a is not None and b is not None:
            ka = a if width == 1 else a[:, 0]
            kb = b if width == 1 else b[:, 0]
            bound = min(int(ka[-1]), int(kb[-1]))
            ca = int(np.searchsorted(ka, bound, side="right"))
            cb = int(np.searchsorted(kb, bound, side="right"))
            emit(_sort_rows(np.concatenate([a[:ca], b[:cb]])))
            a = a[ca:] if ca < len(a) else ra.next()
            b = b[cb:] if cb < len(b) else rb.next()
        for rest, reader in ((a, ra), (b, rb)):
            while rest is not None:
                emit(rest)
                rest = reader.next()


class SpillSorter:
    """External sort of int64 rows: buffer, spill sorted runs, merge.

    ``width == 1`` sorts flat keys (optionally deduplicating, applied
    per run and again at every merge so duplicates never survive a
    round); ``width >= 2`` sorts rows by their first column with a
    stable tie order.  Peak memory is a few buffered blocks — see
    :func:`_budget_rows`.
    """

    def __init__(
        self,
        tmpdir: str | Path,
        chunk_bytes: int,
        width: int = 1,
        dedup: bool = False,
        tag: str = "run",
    ):
        self.tmpdir = Path(tmpdir)
        self.width = width
        self.dedup = dedup
        self.tag = tag
        self.chunk_rows = _budget_rows(chunk_bytes, width)
        self.spilled_bytes = 0
        self._runs: list[Path] = []
        self._buf: list[np.ndarray] = []
        self._buf_rows = 0

    def add(self, rows: np.ndarray) -> None:
        """Append rows (``(k,)`` keys or ``(k, width)`` arrays)."""
        if rows.size == 0:
            return
        self._buf.append(rows)
        self._buf_rows += len(rows)
        while self._buf_rows >= self.chunk_rows:
            self._spill()

    def _spill(self) -> None:
        if not self._buf_rows:
            return
        arr = np.concatenate(self._buf)
        self._buf, self._buf_rows = [], 0
        take, rest = arr[: self.chunk_rows], arr[self.chunk_rows :]
        if rest.size:
            self._buf, self._buf_rows = [rest], len(rest)
        take = _sort_rows(take)
        if self.dedup and self.width == 1:
            take, _ = _dedup_sorted(take, None)
        path = self.tmpdir / f"{self.tag}{len(self._runs):05d}.i8"
        take.tofile(path)
        self.spilled_bytes += take.nbytes
        self._runs.append(path)

    def finish(self, out_path: str | Path) -> int:
        """Merge all runs into ``out_path``; returns the row count."""
        while self._buf_rows:
            self._spill()
        out_path = Path(out_path)
        runs = self._runs
        self._runs = []
        if not runs:
            out_path.write_bytes(b"")
            return 0
        gen = 0
        while len(runs) > 1:
            merged: list[Path] = []
            for i in range(0, len(runs) - 1, 2):
                dst = self.tmpdir / f"{self.tag}m{gen:03d}_{i // 2:05d}.i8"
                _merge_pair(
                    runs[i], runs[i + 1], dst, self.chunk_rows, self.width,
                    self.dedup,
                )
                self.spilled_bytes += dst.stat().st_size
                runs[i].unlink()
                runs[i + 1].unlink()
                merged.append(dst)
            if len(runs) % 2:
                merged.append(runs[-1])
            runs = merged
            gen += 1
        os.replace(runs[0], out_path)
        return out_path.stat().st_size // (8 * self.width)


class _TableJoin:
    """Merge-join lookups against an on-disk int64 table.

    ``lookup(ids)`` requires ``ids`` sorted ascending and each call's
    ids no smaller than the previous call's — exactly what a pass over
    a first-column-sorted edge stream provides.  The table is read in
    forward windows of at most ``chunk_rows`` elements, so lookups are
    sequential I/O with bounded memory regardless of table size.
    """

    def __init__(self, path: Path, chunk_bytes: int):
        self._fh = open(path, "rb")
        self.chunk_rows = _budget_rows(chunk_bytes, 1)
        self._start = 0
        self._buf = np.empty(0, dtype=INDEX_DTYPE)

    def lookup(self, ids: np.ndarray) -> np.ndarray:
        out = np.empty(len(ids), dtype=INDEX_DTYPE)
        i = 0
        while i < len(ids):
            lo = int(ids[i])
            if lo >= self._start + len(self._buf):
                self._fh.seek(8 * lo)
                self._buf = np.fromfile(
                    self._fh, dtype=INDEX_DTYPE, count=self.chunk_rows
                )
                self._start = lo
                if self._buf.size == 0:
                    raise IndexError(f"table lookup past end (id {lo})")
            end = self._start + len(self._buf)
            j = int(np.searchsorted(ids, end, side="left"))
            out[i:j] = self._buf[ids[i:j] - self._start]
            i = j
        return out

    def close(self) -> None:
        self._fh.close()


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------


def _emit_zeros(fh, count: int, cap: int) -> None:
    if count <= 0:
        return
    zeros = np.zeros(min(count, cap), dtype=INDEX_DTYPE)
    while count > 0:
        k = min(count, cap)
        zeros[:k].tofile(fh)
        count -= k


class _DenseCountWriter:
    """Turn sorted (vertex, multiplicity) run-lengths into a dense int64
    per-vertex table, zero-filling gaps, in bounded memory.

    The last vertex of each input chunk may continue into the next, so
    its count is carried rather than finalized.
    """

    def __init__(self, fh, n: int, cap: int):
        self._fh = fh
        self.n = n
        self.cap = cap
        self._next = 0  # first vertex not yet written
        self._carry: tuple[int, int] | None = None  # (vertex, count so far)

    def _write_segment(self, uniq: np.ndarray, counts: np.ndarray) -> None:
        i = 0
        while i < len(uniq):
            lo = int(uniq[i])
            _emit_zeros(self._fh, lo - self._next, self.cap)
            j = int(np.searchsorted(uniq, lo + self.cap, side="left"))
            hi = int(uniq[j - 1])
            dense = np.zeros(hi - lo + 1, dtype=INDEX_DTYPE)
            dense[uniq[i:j] - lo] = counts[i:j]
            dense.tofile(self._fh)
            self._next = hi + 1
            i = j

    def feed(self, vertices: np.ndarray) -> None:
        """Consume one sorted chunk of vertex occurrences."""
        if vertices.size == 0:
            return
        uniq, counts = np.unique(vertices, return_counts=True)
        if self._carry is not None:
            v, c = self._carry
            if int(uniq[0]) == v:
                counts[0] += c
            else:
                self._write_segment(
                    np.array([v], dtype=INDEX_DTYPE),
                    np.array([c], dtype=INDEX_DTYPE),
                )
            self._carry = None
        # Hold back the final vertex: the next chunk may continue it.
        self._carry = (int(uniq[-1]), int(counts[-1]))
        if len(uniq) > 1:
            self._write_segment(uniq[:-1], counts[:-1])

    def close(self) -> None:
        """Flush the carried vertex and zero-fill through ``n``."""
        if self._carry is not None:
            v, c = self._carry
            self._write_segment(
                np.array([v], dtype=INDEX_DTYPE),
                np.array([c], dtype=INDEX_DTYPE),
            )
            self._carry = None
        _emit_zeros(self._fh, self.n - self._next, self.cap)
        self._next = self.n


class _RankPairFiles:
    """Buffered appenders for the per-rank U/L pair spill files (the
    streaming 2D cyclic redistribution's destination)."""

    def __init__(self, tmpdir: Path, p: int, chunk_bytes: int):
        self.p = p
        self._paths = {
            (r, kind): tmpdir / f"rank{r:03d}.{kind}.pairs"
            for r in range(p)
            for kind in ("u", "l")
        }
        self._fhs = {key: open(path, "wb") for key, path in self._paths.items()}
        # Small per-rank staging buffers; flushed by size, not count.
        self._bufs: dict[tuple[int, str], list[np.ndarray]] = {
            key: [] for key in self._paths
        }
        self._buf_rows = {key: 0 for key in self._paths}
        self._flush_rows = max(
            256, _budget_rows(chunk_bytes, 2) // max(1, 2 * p)
        )

    def append(self, parts: list[np.ndarray]) -> None:
        """Route one classified chunk, laid out by
        :func:`~repro.core.preprocess.ul_parts`: part ``r`` goes to rank
        ``r``'s U file, part ``p + r`` to its L file."""
        for i, part in enumerate(parts):
            if not len(part):
                continue
            key = (i % self.p, "ul"[i // self.p])
            self._bufs[key].append(part)
            self._buf_rows[key] += len(part)
            if self._buf_rows[key] >= self._flush_rows:
                self._flush(key)

    def _flush(self, key: tuple[int, str]) -> None:
        if self._buf_rows[key]:
            np.concatenate(self._bufs[key]).tofile(self._fhs[key])
            self._bufs[key] = []
            self._buf_rows[key] = 0

    def finish(self) -> dict[tuple[int, str], Path]:
        """Flush and close everything; returns the path map."""
        for key in self._paths:
            self._flush(key)
            self._fhs[key].close()
        return dict(self._paths)

    def read_pairs(self, rank: int, kind: str) -> np.ndarray:
        """One rank's received pairs as a ``(k, 2)`` array (the paper's
        ``O(m/p)`` per-rank working set)."""
        arr = np.fromfile(self._paths[(rank, kind)], dtype=INDEX_DTYPE)
        return arr.reshape(-1, 2)


class _StageClock:
    """Tiny per-stage wall/RSS ledger for the pipeline report."""

    def __init__(self) -> None:
        from repro.instrument.telemetry import rss_bytes

        self._rss = rss_bytes
        self.stages: dict[str, dict[str, float]] = {}
        self._t0 = time.perf_counter()

    def done(self, name: str, **extra: Any) -> None:
        now = time.perf_counter()
        self.stages[name] = {
            "wall_s": now - self._t0,
            "rss_bytes": int(self._rss()),
            **extra,
        }
        self._t0 = now


def external_preprocess(
    path: str | Path,
    store: Any,
    p: int,
    cfg: Any = None,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    source: str = "",
    workdir: str | Path | None = None,
    stop_after: str | None = None,
) -> dict[str, Any]:
    """Materialize the store entry for ``path`` × grid × config without
    ever holding the graph in memory.

    Returns an info dict: ``digest``, ``graph_sha``, ``n``, ``m``,
    ``reused`` (the entry already existed — nothing was recomputed),
    ``chunk_bytes``, ``spilled_bytes`` and per-``stages`` wall/RSS.
    The written entry is bit-identical to an in-memory cold run's (same
    digest, same rank-file bytes), so it serves both pipelines' warm
    runs interchangeably.

    ``stop_after="translate"`` is a measurement probe: run every
    *streaming* stage (ingest, digest, degrees, reorder, translate +
    route) but skip the per-rank assembly and write **no** store entry.
    The streaming stages are the part whose peak memory is bounded by
    ``chunk_bytes`` alone; assembly additionally holds one rank's
    ``O(m/p)`` working set (the same per-node memory a real distributed
    rank needs), so the out-of-core benchmark gates the two separately.
    """
    from repro.core.config import TC2DConfig
    from repro.core.grid import ProcessorGrid
    from repro.core.preprocess import (
        assemble_blocks,
        chunk_bounds,
        counting_sort_placement,
        cyclic_bounds,
    )
    from repro.graph.store import resolve_store

    path = Path(path)
    cfg = cfg if cfg is not None else TC2DConfig()
    store = resolve_store(store)
    if store is None:
        raise ValueError(
            "external_preprocess requires a store (the blocks live there); "
            "pass a GraphStore, a directory, or True for the default root"
        )
    chunk_bytes = max(MIN_CHUNK_BYTES, int(chunk_bytes))
    grid = ProcessorGrid.for_ranks(p)
    q = grid.q
    clock = _StageClock()

    read_bytes = 16 * _budget_rows(chunk_bytes, 2)
    n = input_vertex_count(path, read_bytes)
    if n > MAX_ENCODABLE_N:
        raise ValueError(
            f"{n} vertices exceeds the int64 pair-key encoding limit "
            f"({MAX_ENCODABLE_N})"
        )
    tmp_root = Path(tempfile.mkdtemp(prefix="repro-ooc-", dir=workdir))
    spilled = 0
    try:
        # -- 1+2: ingest + merge -> canonical sorted unique u < v keys --
        sorter = SpillSorter(tmp_root, chunk_bytes, width=1, dedup=True, tag="e")
        for pairs in _iter_edges(path, n, read_bytes):
            lo = pairs.min(axis=1)
            hi = pairs.max(axis=1)
            keep = lo != hi  # drop self loops
            sorter.add(lo[keep] * n + hi[keep])
        edges_path = tmp_root / "edges.i8"
        m = sorter.finish(edges_path)
        spilled += sorter.spilled_bytes
        clock.done("ingest_merge", edges=m)

        # -- digest: the sorted unique key stream *is* edge_array order --
        h = hashlib.sha256()
        h.update(b"repro-graph-v1")
        h.update(np.array([n, m], dtype=np.int64).tobytes())
        for keys in _iter_i8_blocks(edges_path, _budget_rows(chunk_bytes, 2)):
            h.update(
                np.stack([keys // n, keys % n], axis=1).tobytes()
            )
        graph_sha = h.hexdigest()
        clock.done("digest")

        # No in-memory fallback here: wait out a concurrent writer.
        cache = store._open_entry(
            (graph_sha, n, m), p, cfg, source=source or str(path), wait=True
        )
        info: dict[str, Any] = {
            "digest": cache.digest,
            "graph_sha": graph_sha,
            "n": n,
            "m": m,
            "p": p,
            "q": q,
            "chunk_bytes": chunk_bytes,
            "reused": cache.hit,
        }
        if not cache.hit:  # a miss holds the writer lock until close()
            try:
                _materialize_entry(
                    cache, edges_path, n, m, p, q, cfg, chunk_bytes, tmp_root,
                    clock, grid, chunk_bounds, cyclic_bounds,
                    counting_sort_placement, assemble_blocks,
                    stop_after=stop_after,
                )
                spilled += int(clock.stages["translate"]["spilled"])
                if stop_after is not None:
                    # Probe mode: leave no partial entry behind.
                    store.invalidate(cache.digest)
                    info["partial"] = stop_after
                elif not cache.finalize(None):
                    raise RuntimeError(
                        "external preprocessing failed to finalize "
                        f"{cache.digest[:12]}"
                    )
            finally:
                cache.close()
        info["spilled_bytes"] = spilled
        info["stages"] = clock.stages
        return info
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)


def _materialize_entry(
    cache: Any,
    edges_path: Path,
    n: int,
    m: int,
    p: int,
    q: int,
    cfg: Any,
    chunk_bytes: int,
    tmp_root: Path,
    clock: _StageClock,
    grid: Any,
    chunk_bounds: Any,
    cyclic_bounds: Any,
    counting_sort_placement: Any,
    assemble_blocks: Any,
    stop_after: str | None = None,
) -> None:
    """Stages 3-6: degrees, reorder, translate+route, assemble."""
    from repro.core.preprocess import ul_parts

    key_rows = _budget_rows(chunk_bytes, 2)
    if cfg.initial_cyclic:
        offsets = cyclic_bounds(n, p)
        offs_by_res = offsets[:-1]  # lambda1(v) = offs[v % p] + v // p

        def lam(v: np.ndarray) -> np.ndarray:
            return offs_by_res[v % p] + v // p

    else:
        offsets = chunk_bounds(n, p)

        def lam(v: np.ndarray) -> np.ndarray:
            return v

    # -- 3a: directed occurrences in lambda1 space, sorted by source ----
    sorter = SpillSorter(tmp_root, chunk_bytes, width=1, dedup=False, tag="d")
    for keys in _iter_i8_blocks(edges_path, key_rows):
        a = lam(keys // n)
        b = lam(keys % n)
        sorter.add(a * n + b)
        sorter.add(b * n + a)
    directed_path = tmp_root / "directed.i8"
    directed = sorter.finish(directed_path)
    if directed != 2 * m:
        raise AssertionError(
            f"directed stream has {directed} entries, expected {2 * m}"
        )
    clock.done("directed", spilled=sorter.spilled_bytes)

    # -- 3b: dense degree table (by lambda1 id) + histogram -------------
    deg_path = tmp_root / "deg.i8"
    hist = np.zeros(1, dtype=INDEX_DTYPE)
    with open(deg_path, "wb") as fh:
        writer = _DenseCountWriter(fh, n, cap=_budget_rows(chunk_bytes, 1))
        for keys in _iter_i8_blocks(directed_path, key_rows):
            writer.feed(keys // n)
        writer.close()
    for degs in _iter_i8_blocks(deg_path, key_rows):
        c = np.bincount(degs)
        if len(c) > len(hist):
            hist = np.concatenate(
                [hist, np.zeros(len(c) - len(hist), dtype=INDEX_DTYPE)]
            )
        hist[: len(c)] += c.astype(INDEX_DTYPE)
    dmax = len(hist) - 1
    clock.done("degrees", dmax=dmax)

    # -- 4: final labels via the streamed counting sort ------------------
    final_path = tmp_root / "final.i8"
    if cfg.degree_reorder:
        global_start = np.zeros(dmax + 1, dtype=INDEX_DTYPE)
        np.cumsum(hist[:-1], out=global_start[1:])
        seen = np.zeros(dmax + 1, dtype=INDEX_DTYPE)
        with open(final_path, "wb") as fh:
            for degs in _iter_i8_blocks(deg_path, key_rows):
                # Identical math to the in-memory distributed counting
                # sort: ties order by ascending lambda1 label, and
                # ``seen`` plays the role of the exscan'd lower-rank
                # counts for every chunk processed so far.
                counting_sort_placement(degs, global_start, seen).tofile(fh)
                seen += np.bincount(degs, minlength=dmax + 1).astype(
                    INDEX_DTYPE
                )
        clock.done("reorder")

    # -- 5: translate endpoints + classify + route to rank files --------
    pair_files = _RankPairFiles(tmp_root, p, chunk_bytes)
    spilled = 0
    if cfg.degree_reorder:
        # Pass A: attach the source's final label, re-key by target.
        join = _TableJoin(final_path, chunk_bytes)
        sorter = SpillSorter(
            tmp_root, chunk_bytes, width=1, dedup=False, tag="t"
        )
        for keys in _iter_i8_blocks(directed_path, key_rows):
            a = keys // n
            b = keys % n
            fa = join.lookup(a)
            sorter.add(b * n + fa)
        join.close()
        bykey2 = tmp_root / "directed2.i8"
        sorter.finish(bykey2)
        spilled += sorter.spilled_bytes
        # Pass B: attach the target's final label; the occurrence
        # (row=a, col=b) becomes the translated pair (fa, fb).
        join = _TableJoin(final_path, chunk_bytes)
        for keys in _iter_i8_blocks(bykey2, key_rows):
            b = keys // n
            fa = keys % n
            fb = join.lookup(b)
            pair_files.append(ul_parts(fa, fb, fb > fa, q, p))
        join.close()
    else:
        # Labels stay lambda1; classification compares (degree, label).
        join = _TableJoin(deg_path, chunk_bytes)
        sorter = SpillSorter(
            tmp_root, chunk_bytes, width=3, dedup=False, tag="t"
        )
        for keys in _iter_i8_blocks(directed_path, key_rows):
            a = keys // n
            b = keys % n
            da = join.lookup(a)
            sorter.add(np.stack([b, a, da], axis=1))
        join.close()
        byb = tmp_root / "directed2.i8"
        sorter.finish(byb)
        spilled += sorter.spilled_bytes
        join = _TableJoin(deg_path, chunk_bytes)
        for rows in _iter_i8_blocks(byb, _budget_rows(chunk_bytes, 3), width=3):
            b, a, da = rows[:, 0], rows[:, 1], rows[:, 2]
            db = join.lookup(b)
            upper = (db > da) | ((db == da) & (b > a))
            pair_files.append(ul_parts(a, b, upper, q, p))
        join.close()
    pair_files.finish()
    clock.done("translate", spilled=spilled)
    if stop_after == "translate":
        return

    # -- 6: per-rank assembly through the engine's own block builder ----
    n_inner = (n + q - 1) // q
    for rank in range(p):
        x, y = grid.coords(rank)
        u_recv = pair_files.read_pairs(rank, "u")
        l_recv = pair_files.read_pairs(rank, "l")
        u_block, l_block, task_block = assemble_blocks(
            u_recv,
            l_recv,
            x,
            y,
            q,
            grid.local_count(x, n),
            grid.local_count(y, n),
            n_inner,
            cfg.enumeration,
        )
        lo, hi = int(offsets[rank]), int(offsets[rank + 1])
        if cfg.degree_reorder:
            with open(final_path, "rb") as fh:
                fh.seek(8 * lo)
                labels = np.fromfile(fh, dtype=INDEX_DTYPE, count=hi - lo)
        else:
            labels = np.arange(lo, hi, dtype=INDEX_DTYPE)
        cache.save_rank(rank, u_block, l_block, task_block, lo, labels)
    clock.done("assemble")


def count_triangles_oocore(
    path: str | Path,
    p: int,
    cfg: Any = None,
    store: Any = None,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    model: Any = None,
    trace: bool = False,
    dataset: str = "",
    keep_run: bool = False,
    telemetry: Any = None,
    workdir: str | Path | None = None,
) -> Any:
    """Count triangles of an edge-list file without loading the graph.

    Ensures the preprocessed store entry exists (running
    :func:`external_preprocess` only on a miss), then opens a warm
    mmap-served :class:`~repro.graph.store.RunCache` and runs the
    ordinary 2D counting driver against it — the graph itself is never
    materialized in this process.  ``store=None`` uses a temporary
    store deleted afterwards (counting then costs one full external
    preprocessing every call; pass a real store to amortize).

    ``result.extras["out_of_core"]`` records the pipeline info
    (digest, n/m, per-stage wall + RSS, spill volume).
    """
    from repro.core.config import TC2DConfig
    from repro.core.tc2d import count_triangles_2d
    from repro.graph.store import resolve_store

    cfg = cfg if cfg is not None else TC2DConfig()
    tmp_store_dir: str | None = None
    resolved = resolve_store(store) if store is not None else None
    if resolved is None:
        from repro.graph.store import GraphStore

        tmp_store_dir = tempfile.mkdtemp(prefix="repro-ooc-store-")
        resolved = GraphStore(tmp_store_dir)
    try:
        info = external_preprocess(
            path,
            resolved,
            p,
            cfg,
            chunk_bytes=chunk_bytes,
            source=dataset or str(path),
            workdir=workdir,
        )
        run_cache = resolved._open_entry(
            (info["graph_sha"], info["n"], info["m"]), p, cfg, model=model,
            source=dataset or str(path), writable=False,
        )
        if not run_cache.hit:
            raise RuntimeError(
                f"store entry {info['digest'][:12]} vanished before counting"
            )
        result = count_triangles_2d(
            None,
            p,
            cfg,
            model=model,
            trace=trace,
            dataset=dataset or Path(path).name,
            keep_run=keep_run,
            cache=run_cache,
            telemetry=telemetry,
        )
        result.extras["out_of_core"] = info
        return result
    finally:
        if tmp_store_dir is not None:
            shutil.rmtree(tmp_store_dir, ignore_errors=True)
