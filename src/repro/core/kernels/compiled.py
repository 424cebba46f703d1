"""Compiled intersection kernel — the ``"c"`` backend.

``_tck.c`` (next to this file) is the row-wise reference loop of
:mod:`~repro.core.kernels.rowwise` as the scalar C the paper runs: same
table, same traversal, same logical step counts.  Nothing is built at
install time and nothing at import time: the first :func:`load` compiles
the file with ``cc -O2 -shared -fPIC`` into a library named by the
sha256 of source + flags, appends the sha256 of the library's own bytes
(a truncated ELF kills the process inside ``dlopen``, so a file is
checked before it is handed to the loader), loads it through
:mod:`ctypes` and runs a two-case self-test before anything else may call
it.  Every later process finds the file and only loads it.

The library is cached in this package's own ``__pycache__`` — where the
interpreter already keeps this package's derived files — or, when that
directory is read-only, in ``~/.cache/repro/kernels``.  A host without a
compiler, a failing build, an unwritable cache or a failed self-test all
end in the same state: :func:`available` is false, ``auto`` keeps
dispatching to ``row``/``batch``, and an explicit ``"c"`` raises
:class:`KernelUnavailableError` naming the cause.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import threading
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.blocks import Block
from repro.core.config import TC2DConfig
from repro.core.kernels.common import KernelStats, require_aligned

#: The one C file and the flags it is built with; both name the library.
SOURCE = Path(__file__).with_name("_tck.c")
CFLAGS = ("-O2", "-shared", "-fPIC")
#: Real seconds the compiler gets (it needs ~0.1 s for this file).
BUILD_TIMEOUT_S = 120.0


class KernelUnavailableError(RuntimeError):
    """The compiled backend was asked for by name on a host that cannot
    provide it; :attr:`reason` says why (no compiler, a failed build, no
    writable cache directory, a library that fails its self-test)."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(f'kernel backend "c" is unavailable: {reason}')


class _BadLibrary(Exception):
    """A library file that does not load or lacks the entry point."""


def cache_dirs() -> list[Path]:
    """Where the built library may live, in order of preference."""
    return [
        Path(__file__).with_name("__pycache__"),
        Path.home() / ".cache" / "repro" / "kernels",
    ]


def _writable(directory: Path) -> bool:
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError:
        return False
    return os.access(directory, os.W_OK | os.X_OK)


def _build(target: Path) -> None:
    """Compile :data:`SOURCE` into ``target``: a pid-tagged temp that gets
    the checksum trailer, then ``os.replace``, so racing builders each
    publish a complete file and the last one wins; other versions'
    libraries are removed."""
    import subprocess

    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        try:
            proc = subprocess.run(
                ["cc", *CFLAGS, "-o", str(tmp), str(SOURCE)],
                capture_output=True, text=True, timeout=BUILD_TIMEOUT_S,
            )
        except FileNotFoundError:
            raise KernelUnavailableError(
                "no C compiler: `cc` not found on PATH"
            ) from None
        except subprocess.TimeoutExpired:
            raise KernelUnavailableError(
                f"`cc` did not finish within {BUILD_TIMEOUT_S:.0f} s"
            ) from None
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout).strip()[-300:]
            raise KernelUnavailableError(
                f"`cc` exited with status {proc.returncode}: {tail}"
            )
        with open(tmp, "ab") as fh:
            fh.write(hashlib.sha256(tmp.read_bytes()).digest())
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)
    for stale in target.parent.glob("_tck-*.so"):
        if stale != target:
            stale.unlink(missing_ok=True)


#: Bytes of sha256 trailer :func:`_build` appends to the library.
_TRAILER = 32
_PTR = ctypes.c_void_p
_I64 = ctypes.c_int64


def _open(path: Path) -> Callable[..., int]:
    """Load the library and return its self-tested entry point."""
    try:
        blob = path.read_bytes()
        if hashlib.sha256(blob[:-_TRAILER]).digest() != blob[-_TRAILER:]:
            raise OSError("truncated or not built here (checksum trailer)")
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise _BadLibrary(f"{path.name}: {exc}") from None
    fn = getattr(lib, "tck_count", None)
    if fn is None:
        # dlopen answers a path it has loaded from memory: unload, or the
        # rebuilt file would never be read.
        import _ctypes

        _ctypes.dlclose(lib._handle)
        raise _BadLibrary(f"{path.name}: no symbol tck_count")
    fn.restype = _I64
    fn.argtypes = [
        _PTR, _I64, _PTR, _I64, _PTR, _I64,  # task, U, L blobs and lengths
        _I64, _I64, _I64,  # modified_hashing, early_stop, doubly_sparse
        _PTR,  # counters out
    ]
    _self_test(fn)
    return fn


def library_name() -> str:
    """File name of the library: the sha256 of source + flags, so an edit
    to either is a different file and never a stale load."""
    try:
        source = SOURCE.read_bytes()
    except OSError as exc:
        raise KernelUnavailableError(
            f"kernel source {SOURCE.name} is not readable ({exc})"
        ) from None
    tag = hashlib.sha256(source + " ".join(CFLAGS).encode()).hexdigest()[:16]
    return f"_tck-{tag}.so"


def _load() -> Callable[..., int]:
    name = library_name()
    why = []
    for directory in cache_dirs():
        path = directory / name
        writable = _writable(directory)
        if path.exists():
            try:
                return _open(path)
            except _BadLibrary as exc:
                # Truncated, foreign or lacking the symbol: removed and
                # rebuilt once; a second failure is final.
                why.append(f"cached library does not load ({exc})")
                if writable:
                    path.unlink(missing_ok=True)
        if not writable:
            why.append(f"{directory} is not writable")
            continue
        _build(path)
        try:
            return _open(path)
        except _BadLibrary as exc:
            raise KernelUnavailableError(
                f"freshly built library does not load ({exc})"
            ) from None
    raise KernelUnavailableError("; ".join(why))


_lock = threading.Lock()
#: ``None`` until the first :func:`load`; then the entry point, or the
#: reason there is none (decided once per process, never retried).
_loaded: Callable[..., int] | str | None = None


def load() -> Callable[..., int]:
    """The library's entry point, built and self-tested on first use.

    Raises :class:`KernelUnavailableError` when this host cannot provide
    it — on this call and, without trying again, on every later one.
    """
    global _loaded
    if _loaded is None:
        with _lock:
            if _loaded is None:
                try:
                    _loaded = _load()
                except KernelUnavailableError as exc:
                    _loaded = exc.reason
    if isinstance(_loaded, str):
        raise KernelUnavailableError(_loaded)
    return _loaded


def available() -> bool:
    """Whether ``"c"`` can run here (builds and loads it on first call)."""
    if _loaded is None:
        try:
            load()
        except KernelUnavailableError:
            pass
    return not isinstance(_loaded, str)


def unavailable_reason() -> str | None:
    """Why :func:`available` is false; ``None`` when it is true."""
    return None if available() else _loaded


def _call(
    fn: Callable[..., int],
    t: np.ndarray,
    u: np.ndarray,
    l: np.ndarray,
    cfg: TC2DConfig,
) -> list[int]:
    """One call into the library on three block blobs (C-contiguous int64,
    as :meth:`Block.as_blob` returns them); returns the ten counters in
    :class:`KernelStats` order.  The loop checks every header and indptr
    before it reads through them."""
    out = (ctypes.c_int64 * 10)()
    status = fn(
        t.ctypes.data, len(t), u.ctypes.data, len(u), l.ctypes.data, len(l),
        cfg.modified_hashing, cfg.early_stop, cfg.doubly_sparse, out,
    )
    if status == -2:
        raise IndexError("task column out of range for the L block")
    if status == -3:
        raise MemoryError("cannot allocate the kernel's hash table")
    if status != 0:
        raise ValueError(
            "malformed block: a blob header disagrees with its length, an "
            "indptr is not a monotone offset array, or the task and U row "
            "counts differ"
        )
    return out[:]


def count_block_pair_c(
    task_block: Block,
    u_block: Block,
    l_block: Block,
    cfg: TC2DConfig,
    hits_out: list | None = None,
) -> KernelStats:
    """Count the triangles closed by one (task, U, L) block triple in the
    compiled loop, which reads the three blocks' wire blobs in place.

    The loop counts and does not list: ``resolve_backend`` sends a
    listing call (``hits_out``) to ``"batch"``, and one that reaches this
    function anyway is refused.  Headers, indptr ranges, the row-count
    match and task columns are checked by the loop itself before use, and
    it sizes its own table by the ``kernel_capacity`` rule.
    Read-only (mmap'd) blobs are fine: the loop writes only to its own
    table and the counters.
    """
    if hits_out is not None:
        raise ValueError('kernel backend "c" counts only; list through "batch"')
    fn = load()
    require_aligned(u_block, l_block)
    return KernelStats(
        *_call(fn, task_block.as_blob(), u_block.as_blob(), l_block.as_blob(), cfg)
    )


def _blob(indptr: tuple[int, ...], indices: tuple[int, ...]) -> np.ndarray:
    """A block blob for the self-test (kind, residues, n_cols and crc are
    not the loop's business and stay 0)."""
    header = (0, 0, 0, len(indptr) - 1, 0, len(indices), 0)
    return np.array(header + indptr + indices, dtype=np.int64)


#: ``(task, U, L, cfg, counters)`` hand-sized triples whose ten counters
#: are constants recorded from the ``row`` backend.  The first takes the
#: direct-mask build, one collision fallback and the early break; the
#: second a probed build that fills the table, so its misses walk
#: capacity + 1 rounds; the third has a longest U row of 5, so capacity
#: 8, whose mask clashes ids 1 and 9 (a 16-slot table would not).
SELF_TEST_CASES = (
    (
        _blob((0, 2, 2, 3), (0, 2, 1)),
        _blob((0, 3, 3, 5), (2, 5, 7, 1, 5)),
        _blob((0, 4, 6, 9), (0, 2, 5, 9, 1, 6, 3, 5, 7)),
        TC2DConfig(), [2, 3, 2, 1, 3, 2, 6, 3, 1, 5],
    ),
    (
        _blob((0, 1, 2), (0, 0)),
        _blob((0, 4, 6), (1, 5, 9, 13, 2, 6)),
        _blob((0, 8), (0, 1, 2, 3, 4, 5, 6, 7)),
        TC2DConfig(modified_hashing=False, early_stop=False),
        [2, 2, 2, 0, 0, 8, 0, 43, 0, 4],
    ),
    (
        _blob((0, 2, 3), (0, 1, 1)),
        _blob((0, 5, 5), (1, 4, 9, 10, 14)),
        _blob((0, 4, 7), (1, 3, 9, 14, 0, 10, 12)),
        TC2DConfig(), [2, 2, 1, 0, 0, 7, 0, 13, 1, 4],
    ),
)


def _self_test(fn: Callable[..., int]) -> None:
    """Run :data:`SELF_TEST_CASES`; a library that disagrees is refused."""
    for t, u, l, cfg, want in SELF_TEST_CASES:
        got = _call(fn, t, u, l, cfg)
        if got != want:
            raise KernelUnavailableError(
                f"self-test mismatch: counters {got}, expected {want}"
            )
