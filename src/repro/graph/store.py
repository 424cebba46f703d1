"""Content-addressed on-disk cache of preprocessed graph artifacts.

The paper's Section 4 preprocessing pipeline (cyclic redistribution,
distributed degree reorder, U/L split, 2D cyclic distribution) is a pure
function of the graph bytes, the grid shape and three config toggles —
yet the reproduction used to re-execute it on every ``repro count``,
every benchmark table and every chaos sweep.  :class:`GraphStore`
persists the pipeline's output once and replays it on demand:

* artifacts are keyed by a **content digest** — sha256 over the canonical
  ``u < v`` edge-list bytes plus the grid shape, the preprocessing-relevant
  config toggles and the blob format version — so a changed graph, grid or
  toggle can never alias a stale entry;
* per-rank state is stored in the same crc32-checked single-buffer blob
  format blocks travel the simulated wire in
  (:meth:`~repro.core.blocks.Block.to_blob`), three blobs to a flat
  rank file (:func:`~repro.core.blocks.write_rank_file`) that is
  memory-mapped, never parsed, on the way back in — so a corrupted file
  fails loudly with :class:`~repro.simmpi.errors.BlobChecksumError`
  instead of silently skewing counts;
* a JSON manifest records provenance (source dataset, graph stats, config)
  plus the deterministic ppt-phase statistics of the cold run, keyed by
  :meth:`~repro.simmpi.costmodel.MachineModel.fingerprint`, so a warm run
  can report the exact preprocessing cost it skipped (the simulation is
  deterministic: the recorded numbers *are* what a re-run would measure);
* a schema bump or half-written entry raises :class:`StoreVersionError`,
  which :meth:`GraphStore.open_run` turns into automatic invalidation.

On-disk layout (all writes are atomic via temp-file + rename)::

    <root>/
      objects/<digest>/manifest.json     # schema, provenance, recorded ppt
      objects/<digest>/rank000.blocks    # [rank, lo] + labels + u/l/task blobs
      objects/<digest>/rank001.blocks
      ...
      graphs/<key>.npz                   # generated-dataset graph cache

The default root is ``$REPRO_STORE_DIR`` or ``~/.cache/repro/store``.
See ``docs/datasets.md`` for the full digest/invalidation rules and the
``repro store`` CLI.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.blocks import (
    RANK_FILE_BLOBS,
    Block,
    atomic_write,
    read_rank_file,
    write_rank_file,
)
from repro.graph.csr import Graph

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.config import TC2DConfig
    from repro.simmpi.costmodel import MachineModel

#: Store layout schema.  Bump on any change to the manifest structure or
#: the per-rank file layout; existing entries then fail with
#: :class:`StoreVersionError` and are re-preprocessed.  (1 = three blobs
#: wrapped in an npz; 2 = one flat rank file.)
STORE_SCHEMA_VERSION = 2

#: Version of the :meth:`Block.to_blob` wire format the store persists.
#: Folded into the artifact digest so a blob layout change orphans (rather
#: than misreads) old entries.
BLOB_FORMAT_VERSION = 1

#: Version of :func:`artifact_digest`'s own recipe (which fields it hashes,
#: and how).  Deliberately not :data:`STORE_SCHEMA_VERSION`: how an entry
#: is laid out on disk does not change what it holds, and an address that
#: moved with the layout would strand every old entry under a digest
#: nothing asks for again, instead of letting :meth:`GraphStore.open_run`
#: find it, fail its manifest check and rewrite it in place.
_DIGEST_RECIPE_VERSION = 1

#: Environment variable naming the default store root.
STORE_DIR_ENV = "REPRO_STORE_DIR"


class StoreVersionError(RuntimeError):
    """A store entry was written under an incompatible schema (or is
    structurally broken: missing files, digest mismatch).  Callers going
    through :meth:`GraphStore.open_run` never see it — the entry is
    invalidated and preprocessing runs fresh."""


def default_store_root() -> Path:
    """The store root used when none is given: ``$REPRO_STORE_DIR`` if
    set, else ``~/.cache/repro/store``."""
    env = os.environ.get(STORE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "store"


def resolve_store_dir(explicit: "str | Path | None" = None) -> Path | None:
    """The one rule for opt-in store resolution: an explicit ``--store``
    value wins, else ``$REPRO_STORE_DIR``, else ``None`` (no store).

    Every harness that takes a ``--store DIR`` flag (parallelbench,
    chaos, servebench, the serve layer) resolves it through here, so the
    environment variable means the same thing everywhere.  Callers that
    must never touch the user's home directory without opt-in (benchmark
    runners, test fixtures) use this instead of
    :func:`default_store_root`.
    """
    if explicit:
        return Path(explicit)
    env = os.environ.get(STORE_DIR_ENV)
    return Path(env) if env else None


def store_from_env(explicit: "str | Path | None" = None) -> "GraphStore | None":
    """A :class:`GraphStore` at :func:`resolve_store_dir`'s answer, or
    ``None`` when neither a flag nor ``$REPRO_STORE_DIR`` opted in."""
    root = resolve_store_dir(explicit)
    return GraphStore(root) if root is not None else None


class DigestLock:
    """Advisory cross-process writer lock for one store entry.

    Two clients cold-running the same digest must not interleave their
    rank-file and manifest writes, and — worse — a second client's
    ``open_run`` must not mistake the first's half-written entry for an
    abandoned one and delete it mid-write.  The lock is ``flock(2)`` on a
    sidecar file under ``objects/.locks/``: advisory (readers never take
    it), per-open-file-description (so two threads of one process exclude
    each other too), and self-releasing when the holder dies.

    On platforms without ``fcntl`` the lock degrades to a no-op that
    always acquires; the rename-wins manifest protocol keeps the store
    consistent there, at the cost of duplicated cold work.
    """

    def __init__(self, path: Path):
        self.path = path
        self._fh = None

    def acquire(self, blocking: bool = False) -> bool:
        """Take the lock; returns False when non-blocking and held
        elsewhere.  Reentrant acquire of a held instance returns True."""
        if self._fh is not None:
            return True
        try:
            import fcntl
        except ImportError:  # pragma: no cover - non-POSIX
            self._fh = True  # degrade: pretend-held, rename-wins protects
            return True
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(self.path, "a+b")
        flags = fcntl.LOCK_EX | (0 if blocking else fcntl.LOCK_NB)
        try:
            fcntl.flock(fh.fileno(), flags)
        except OSError:
            fh.close()
            return False
        self._fh = fh
        return True

    def release(self) -> None:
        """Drop the lock (idempotent)."""
        fh, self._fh = self._fh, None
        if fh is not None and fh is not True:
            fh.close()  # closing the fd releases the flock

    @property
    def held(self) -> bool:
        """Whether this instance currently holds the lock."""
        return self._fh is not None

    def __enter__(self) -> "DigestLock":
        self.acquire(blocking=True)
        return self

    def __exit__(self, *exc: Any) -> None:
        self.release()


def graph_digest(graph: Graph) -> str:
    """Stable sha256 of a graph's content (canonical ``u < v`` edge bytes).

    Two graphs digest equal iff they have the same vertex count and the
    same edge set — independent of how they were generated or loaded.
    """
    edges = np.ascontiguousarray(graph.edge_array(), dtype=np.int64)
    h = hashlib.sha256()
    h.update(b"repro-graph-v1")
    h.update(np.array([graph.n, edges.shape[0]], dtype=np.int64).tobytes())
    h.update(edges.tobytes())
    return h.hexdigest()


def artifact_digest(
    graph_sha: str,
    p: int,
    q: int,
    cfg: "TC2DConfig",
    key_extra: dict | None = None,
) -> str:
    """Content address of one preprocessed artifact.

    Covers everything the preprocessing output depends on: the graph
    bytes (via ``graph_sha``), the rank count and grid shape, the
    preprocessing-relevant config toggles
    (:meth:`~repro.core.config.TC2DConfig.store_key`), and the blob
    format version.  Anything else (kernel backend, executor, seeds used
    only by faults/kernels, the store's file layout) deliberately does
    **not** change the digest.

    ``key_extra`` lets a driver distinguish several artifacts produced
    under one config — the cover-edge pipeline stores its two passes
    (cover + horizontal blocks) as separate entries keyed by a
    ``{"pass": ...}`` component.  ``None`` and ``{}`` digest identically
    to the historical single-artifact layout.
    """
    payload = {
        "store_schema": _DIGEST_RECIPE_VERSION,  # key name predates the split
        "blob_format": BLOB_FORMAT_VERSION,
        "graph": graph_sha,
        "p": int(p),
        "q": int(q),
        "cfg": cfg.store_key(),
    }
    if key_extra:
        payload["extra"] = dict(key_extra)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class RunCache:
    """One run's view of a store entry, handed to the rank program.

    Created by :meth:`GraphStore.open_run`.  ``hit`` is fixed at creation:
    a hit means every rank loads its blocks from disk inside a ``cache``
    phase and the ``ppt`` phase stays empty; a miss means preprocessing
    runs normally and (when ``writable``) each rank persists its blocks as
    a side effect, after which the driver calls :meth:`finalize` to write
    the manifest.  Instances are shared by all rank threads — safe because
    the engine serializes rank execution.
    """

    def __init__(
        self,
        store: "GraphStore",
        digest: str,
        graph_sha: str,
        graph_stats: tuple[int, int],
        p: int,
        q: int,
        cfg: "TC2DConfig",
        manifest: dict | None,
        source: str = "",
        model_fp: str = "",
        writable: bool = True,
        lock: "DigestLock | None" = None,
    ):
        self.store = store
        self.digest = digest
        self.graph_sha = graph_sha
        self.graph_stats = graph_stats
        self.p = p
        self.q = q
        self.cfg = cfg
        self.manifest = manifest
        self.source = source
        self.model_fp = model_fp
        self.writable = writable
        #: Writer lock held for the duration of a cold materialization
        #: (released by :meth:`finalize` / :meth:`close`).
        self._lock = lock
        #: (rank -> manifest entry) of files written during a cold run.
        self._saved: dict[int, dict] = {}
        #: Blob bytes served during a warm run (for reporting).
        self.loaded_nbytes = 0
        #: Ranks served (memory-mapped) during this run.
        self.mapped_ranks = 0

    @property
    def hit(self) -> bool:
        """Whether the store already holds this run's artifact."""
        return self.manifest is not None

    # -- rank-side hooks ----------------------------------------------------

    def load_rank(self, rank: int) -> tuple[Block, Block, Block, int]:
        """Serve (and crc-verify) one rank's blocks from the store.

        The blocks are **served, not loaded**: their arrays are read-only
        views into a shared map of the rank file
        (:func:`~repro.core.blocks.read_rank_file`), and the crc
        verification pass is what pages the bytes in.  A file that is not
        this rank's rank file raises
        :class:`~repro.core.blocks.RankFileError`, a bad payload
        :class:`~repro.simmpi.errors.BlobChecksumError`; neither has a
        second way in.  Each block carries its :attr:`Block.slot` (the
        store file is immutable once finalized, so the address stays valid
        for the process lifetime).

        Returns ``(u_block, l_block, task_block, nbytes)``.
        """
        served = read_rank_file(self.store.rank_path(self.digest, rank), rank)
        nbytes = int(sum(b.blob.nbytes for b in served.blocks))
        self.loaded_nbytes += nbytes
        self.mapped_ranks += 1
        return (*served.blocks, nbytes)

    def save_rank(
        self,
        rank: int,
        u_block: Block,
        l_block: Block,
        task_block: Block,
        lo: int,
        labels: np.ndarray,
    ) -> None:
        """Persist one rank's preprocessed state (cold, writable runs only).

        Pure side effect: nothing is charged to the virtual clock, so a
        cold cached run stays bit-identical to an uncached run.
        """
        if self.hit or not self.writable:
            return
        blobs = [b.to_blob() for b in (u_block, l_block, task_block)]
        path = self.store.rank_path(self.digest, rank)
        write_rank_file(path, [rank, lo], blobs, extra=labels)
        self._saved[rank] = {
            "file": path.name,
            "nbytes": int(sum(b.nbytes for b in blobs)),
            "crc32": {k: int(b[6]) for k, b in zip(RANK_FILE_BLOBS, blobs)},
        }

    # -- driver-side hooks --------------------------------------------------

    def recorded_ppt(self) -> dict | None:
        """The cold run's ppt statistics for this run's machine-model
        fingerprint, if the manifest recorded them."""
        if self.manifest is None:
            return None
        return self.manifest.get("recorded", {}).get(self.model_fp)

    def finalize(self, ppt_stats: dict | None = None) -> bool:
        """After a successful cold run: write the entry manifest.

        ``ppt_stats`` (``ppt_time`` / ``comm_fraction_ppt`` /
        ``counters_ppt``) is recorded under the model fingerprint so warm
        runs under the same model can report the skipped phase honestly.
        Returns False (and writes nothing) if any rank file is missing,
        or if a concurrent writer already completed the entry
        (rename-wins: the existing manifest is adopted, never clobbered
        — the artifacts are deterministic, so both writers produced the
        same bytes anyway).  Always releases the writer lock.
        """
        try:
            if self.hit or not self.writable:
                return False
            if sorted(self._saved) != list(range(self.p)):
                return False
            try:
                # Rename-wins: an unlocked concurrent writer (or one on a
                # lock-less platform) may have finished first.
                self.manifest = self.store.read_manifest(self.digest)
                return False
            except (FileNotFoundError, StoreVersionError):
                pass
            n, m = self.graph_stats
            doc = {
                "store_schema": STORE_SCHEMA_VERSION,
                "blob_format": BLOB_FORMAT_VERSION,
                "digest": self.digest,
                "graph": {"sha256": self.graph_sha, "n": n, "m": m},
                "p": self.p,
                "q": self.q,
                "cfg": self.cfg.store_key(),
                "source": self.source,
                "ranks": {str(r): e for r, e in sorted(self._saved.items())},
                "recorded": {},
            }
            if ppt_stats is not None and self.model_fp:
                doc["recorded"][self.model_fp] = ppt_stats
            self.store.write_manifest(self.digest, doc)
            self.manifest = doc
            return True
        finally:
            self.close()

    def close(self) -> None:
        """Release the per-digest writer lock, if held (idempotent).

        Drivers call it from a ``finally`` so a run that raises mid-cold
        materialization cannot wedge other writers until process exit.
        """
        if self._lock is not None:
            self._lock.release()


class GraphStore:
    """Filesystem-backed, content-addressed artifact store.

    One store serves any number of (graph, grid, config) artifacts; the
    CLI (``repro store``), the benchmark runner, the chaos harness and the
    dataset registry can all point at the same root and share warm
    entries.
    """

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else default_store_root()
        self.objects_dir = self.root / "objects"
        self.graphs_dir = self.root / "graphs"

    # -- paths --------------------------------------------------------------

    def entry_dir(self, digest: str) -> Path:
        """Directory holding one artifact's manifest and rank files."""
        return self.objects_dir / digest

    def manifest_path(self, digest: str) -> Path:
        """Path of one artifact's ``manifest.json``."""
        return self.entry_dir(digest) / "manifest.json"

    def rank_path(self, digest: str, rank: int) -> Path:
        """Path of one artifact's per-rank block file."""
        return self.entry_dir(digest) / f"rank{rank:03d}.blocks"

    # -- manifest / inventory -----------------------------------------------

    def write_manifest(self, digest: str, doc: dict) -> Path:
        """Atomically write one entry's manifest; returns its path."""
        path = self.manifest_path(digest)
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        atomic_write(path, [text.encode()])
        return path

    def writer_lock(self, digest: str) -> DigestLock:
        """The advisory per-digest writer lock (see :class:`DigestLock`)."""
        return DigestLock(self.objects_dir / ".locks" / f"{digest}.lock")

    def read_manifest(self, digest: str) -> dict:
        """Parse and validate one entry's manifest.

        Raises
        ------
        FileNotFoundError
            If the entry has no manifest (never written, or pruned).
        StoreVersionError
            If the manifest was written under a different store/blob
            schema, claims a different digest, or lists rank files that
            are not on disk.
        """
        doc = json.loads(self.manifest_path(digest).read_text())
        if (
            doc.get("store_schema") != STORE_SCHEMA_VERSION
            or doc.get("blob_format") != BLOB_FORMAT_VERSION
        ):
            raise StoreVersionError(
                f"store entry {digest[:12]} has schema "
                f"{doc.get('store_schema')}/{doc.get('blob_format')}, "
                f"this build expects {STORE_SCHEMA_VERSION}/"
                f"{BLOB_FORMAT_VERSION}"
            )
        if doc.get("digest") != digest:
            raise StoreVersionError(
                f"store entry {digest[:12]} manifest claims digest "
                f"{str(doc.get('digest'))[:12]}"
            )
        for rank in range(int(doc.get("p", 0))):
            if not self.rank_path(digest, rank).exists():
                raise StoreVersionError(
                    f"store entry {digest[:12]} is missing rank {rank}"
                )
        return doc

    def digests(self) -> list[str]:
        """Digests of every entry directory under ``objects/``."""
        if not self.objects_dir.is_dir():
            return []
        return sorted(
            d.name
            for d in self.objects_dir.iterdir()
            if d.is_dir() and not d.name.startswith(".")  # skip .locks
        )

    def entries(self) -> list[dict]:
        """One summary dict per entry (broken entries flagged, not raised)."""
        out = []
        for digest in self.digests():
            row: dict[str, Any] = {"digest": digest}
            try:
                doc = self.read_manifest(digest)
            except FileNotFoundError:
                row["error"] = "no manifest (incomplete write?)"
            except StoreVersionError as exc:
                row["error"] = str(exc)
            else:
                row.update(
                    source=doc.get("source", ""),
                    p=doc.get("p"),
                    q=doc.get("q"),
                    graph=doc.get("graph", {}),
                    cfg=doc.get("cfg", {}),
                    nbytes=sum(
                        e.get("nbytes", 0) for e in doc.get("ranks", {}).values()
                    ),
                    recorded_models=sorted(doc.get("recorded", {})),
                )
            out.append(row)
        return out

    def verify(self, digest: str | None = None) -> list[str]:
        """Deep-check entries: manifest schema, file presence, and a full
        crc-verified deserialization of every blob — through the reader
        warm runs use — cross-checked against the crc32s the manifest
        recorded.  Returns a list of problem strings (empty = healthy)."""
        problems = []
        targets = [digest] if digest is not None else self.digests()
        for d in targets:
            try:
                doc = self.read_manifest(d)
            except (FileNotFoundError, StoreVersionError) as exc:
                problems.append(f"{d[:12]}: {exc}")
                continue
            for rank_str, entry in doc.get("ranks", {}).items():
                rank = int(rank_str)
                try:
                    served = read_rank_file(self.rank_path(d, rank), rank)
                except (ValueError, OSError) as exc:
                    # BlobChecksumError, RankFileError, unreadable file.
                    problems.append(
                        f"{d[:12]} rank {rank}: {type(exc).__name__}: {exc}"
                    )
                    continue
                for key, block in zip(RANK_FILE_BLOBS, served.blocks):
                    want = entry.get("crc32", {}).get(key)
                    if want is not None and int(block.blob[6]) != int(want):
                        problems.append(
                            f"{d[:12]} rank {rank}: {key} crc32 differs "
                            "from manifest"
                        )
        return problems

    def invalidate(self, digest: str) -> None:
        """Remove one entry (its whole directory) from the store."""
        import shutil

        d = self.entry_dir(digest)
        if d.is_dir():
            shutil.rmtree(d)

    def prune(self, digest: str | None = None) -> int:
        """Remove one entry (or, with ``None``, every entry and every
        cached graph blob).  Returns the number of entries removed."""
        if digest is not None:
            existed = self.entry_dir(digest).is_dir()
            self.invalidate(digest)
            return int(existed)
        count = 0
        for d in self.digests():
            self.invalidate(d)
            count += 1
        if self.graphs_dir.is_dir():
            import shutil

            shutil.rmtree(self.graphs_dir)
        return count

    # -- run integration ----------------------------------------------------

    def open_run(
        self,
        graph: Graph,
        p: int,
        cfg: "TC2DConfig",
        model: "MachineModel | None" = None,
        source: str = "",
        writable: bool = True,
        key_extra: dict | None = None,
    ) -> RunCache:
        """Resolve the artifact for one run and return its :class:`RunCache`.

        ``key_extra`` is folded into the artifact digest (see
        :func:`artifact_digest`) so one config can address several
        stored artifacts — e.g. the cover-edge pipeline's two passes.

        A schema-incompatible or structurally broken entry is invalidated
        here (automatic invalidation): the run then proceeds as a cold
        miss and rewrites the entry under the current schema.

        Concurrent materialization is safe: a cold, writable miss takes
        the per-digest :class:`DigestLock` before touching the entry
        directory.  When another writer already holds it, this run
        degrades to a non-persisting cold run (``writable=False``) and —
        critically — never invalidates the other writer's half-written
        files.  The manifest is re-read after acquiring the lock, so a
        run that raced a just-finished writer turns into a warm hit.
        """
        from repro.core.grid import ProcessorGrid
        from repro.simmpi.costmodel import MachineModel

        q = ProcessorGrid.for_ranks(p).q
        graph_sha = graph_digest(graph)
        digest = artifact_digest(graph_sha, p, q, cfg, key_extra=key_extra)
        model_fp = (model if model is not None else MachineModel()).fingerprint()
        manifest: dict | None = None
        lock: DigestLock | None = None
        try:
            manifest = self.read_manifest(digest)
        except (FileNotFoundError, StoreVersionError):
            if writable and (lock := self.writer_lock(digest)).acquire():
                # We own the materialization.  Re-check under the lock: a
                # concurrent writer may have completed between the read
                # and the acquire (then this run is warm after all).
                try:
                    manifest = self.read_manifest(digest)
                    lock.release()
                    lock = None
                except FileNotFoundError:
                    if self.entry_dir(digest).is_dir():
                        # Rank files without a manifest *while holding the
                        # lock*: the previous cold run died before
                        # finalize.  Start over.
                        self.invalidate(digest)
                except StoreVersionError:
                    self.invalidate(digest)
            else:
                # Another writer is mid-materialization (or this run is
                # read-only): run cold without persisting and leave the
                # entry directory strictly alone.
                lock = None
                writable = False
        return RunCache(
            store=self,
            digest=digest,
            graph_sha=graph_sha,
            graph_stats=(int(graph.n), int(graph.num_edges)),
            p=p,
            q=q,
            cfg=cfg,
            manifest=manifest,
            source=source,
            model_fp=model_fp,
            writable=writable,
            lock=lock,
        )

    # -- generated-graph cache ----------------------------------------------

    def graph_key(self, *parts: Any) -> str:
        """Content key for a cached generated graph (hash of ``parts``)."""
        blob = json.dumps([str(p) for p in parts], separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def graph_path(self, key: str) -> Path:
        """Path of one cached graph blob."""
        return self.graphs_dir / f"{key}.npz"

    def load_graph(self, key: str) -> Graph | None:
        """Fetch a cached generated graph, or ``None`` on miss."""
        from repro.graph.io import load_npz

        path = self.graph_path(key)
        if not path.exists():
            return None
        try:
            return load_npz(path)
        except Exception:
            # A truncated blob is a miss, not an error: regenerate.
            path.unlink(missing_ok=True)
            return None

    def save_graph(self, key: str, graph: Graph) -> None:
        """Persist a generated graph under ``key`` (atomic)."""
        from repro.graph.io import save_npz

        buf = io.BytesIO()
        save_npz(graph, buf)
        atomic_write(self.graph_path(key), [buf.getbuffer()])


def resolve_store(cache: Any) -> "GraphStore | None":
    """Coerce a driver-level ``cache=`` argument into a :class:`GraphStore`.

    Accepts ``None`` (no caching), ``True`` (default root), a path, or an
    existing :class:`GraphStore` (returned as-is).
    """
    if cache is None or isinstance(cache, GraphStore):
        return cache
    if cache is True:
        return GraphStore()
    if isinstance(cache, (str, Path)):
        return GraphStore(cache)
    raise TypeError(
        f"cache must be None, True, a path or a GraphStore; got {cache!r}"
    )
