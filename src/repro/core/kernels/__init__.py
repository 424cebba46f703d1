"""Intersection-kernel backend registry (Section 5.2's hot loop).

The per-shift compute step — intersecting U fragments with L probe
windows for every task of a block pair — is the algorithm's hot loop, and
this package makes its implementation pluggable:

* ``"row"`` (:mod:`~repro.core.kernels.rowwise`) — the reference per-row
  loop, a direct transcription of the paper;
* ``"batch"`` (:mod:`~repro.core.kernels.batched`) — fully vectorized:
  bulk gathers, one duplicate-slot scan, one ``searchsorted`` membership
  pass, with only collision-afflicted rows replayed through the hash map;
* ``"c"`` (:mod:`~repro.core.kernels.compiled`) — the row-wise loop as
  one C file, built with ``cc`` on first use and loaded through
  ``ctypes``; registered always, runnable where
  :func:`~repro.core.kernels.compiled.available` says so;
* ``"auto"`` (:mod:`~repro.core.kernels.dispatch`) — ``"c"`` where it
  loaded, else a per-block-pair choice between ``"row"`` and ``"batch"``
  from cheap shape statistics.

All backends obey one contract: identical triangle counts, the same
local ``(j, i, k)`` triples appended to ``hits_out`` when it is a list,
and bit-identical logical :class:`~repro.core.kernels.common.KernelStats`
— the counters feed the simulated machine model, so virtual time must not
depend on which implementation ran.  Only wall time may differ.  The one
exception is listing on ``"c"``: the compiled loop only counts, so
:func:`resolve_backend` hands a listing call to ``"batch"``.

Registering a backend::

    from repro.core import kernels

    def my_kernel(task_block, u_block, l_block, cfg, hits_out=None):
        ...
        return KernelStats(...)

    kernels.register_backend("mine", my_kernel)

Callers resolve ``cfg.kernel_backend`` with :func:`resolve_backend` and
call the function it returns.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

from repro._lazy import lazy_exports, resolve
from repro.core.blocks import Block
from repro.core.config import KERNEL_BACKENDS, TC2DConfig
from repro.core.kernels import compiled
from repro.core.kernels.common import KernelStats, kernel_capacity, require_aligned
from repro.core.kernels.compiled import KernelUnavailableError, count_block_pair_c
from repro.core.kernels.dispatch import block_shape_stats, choose_backend

if TYPE_CHECKING:
    from repro.core.kernels.batched import count_block_pair_batch
    from repro.core.kernels.rowwise import count_block_pair_row


class KernelFn(Protocol):
    """Signature every counting backend implements."""

    def __call__(
        self,
        task_block: Block,
        u_block: Block,
        l_block: Block,
        cfg: TC2DConfig,
        hits_out: list | None = None,
    ) -> KernelStats: ...


# A registry value is the function, or for a built-in not yet used its
# ``"module:name"`` target: the pure-Python kernels load on first use, so
# a run on the compiled backend never imports them.
_REGISTRY: dict[str, KernelFn | str] = {
    "row": "repro.core.kernels.rowwise:count_block_pair_row",
    "batch": "repro.core.kernels.batched:count_block_pair_batch",
    "c": count_block_pair_c,
}


def register_backend(name: str, fn: KernelFn, replace: bool = False) -> None:
    """Register a kernel backend; it must honour ``hits_out`` like the
    built-ins.

    ``name`` must not be ``"auto"`` (that name is the dispatcher's).
    """
    if name == "auto":
        raise ValueError('"auto" is reserved for the shape-based dispatcher')
    if name in _REGISTRY and not replace:
        raise ValueError(f"kernel backend {name!r} is already registered")
    _REGISTRY[name] = fn


def available_backends() -> tuple[str, ...]:
    """Registered backend names plus ``"auto"``."""
    return tuple(sorted(_REGISTRY)) + ("auto",)


def get_backend(name: str) -> KernelFn:
    """Look up a concrete (non-auto) backend by name.

    Asking for ``"c"`` is what builds and loads the compiled library
    (once per process); on a host that cannot provide it this raises
    :class:`KernelUnavailableError` with the reason.
    """
    if name == "c":
        compiled.load()
    try:
        fn = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; available: "
            f"{', '.join(available_backends())}"
        ) from None
    if isinstance(fn, str):
        fn = _REGISTRY[name] = resolve(fn)
    return fn


def resolve_backend(
    name: str,
    task_block: Block,
    u_block: Block,
    l_block: Block,
    cfg: TC2DConfig,
    listing: bool = False,
) -> tuple[str, KernelFn]:
    """Resolve ``name`` (possibly ``"auto"``) for one block pair.

    ``listing`` says the call will pass ``hits_out``; the compiled loop
    only counts, so ``"c"`` then resolves to ``"batch"``.  Returns
    ``(concrete_name, fn)`` so callers can label spans and usage counts
    with the backend that actually ran.
    """
    if name == "auto":
        name = choose_backend(task_block, u_block, l_block, cfg)
    if listing and name == "c":
        name = "batch"
    return name, get_backend(name)


def prepare_backend(name: str) -> None:
    """Driver-side: settle, before any rank runs, what ``name`` needs.

    The compiled library is built and loaded here — once, in the calling
    process — so no rank thread, pool worker or served request ever waits
    for a compiler.  ``"auto"`` falls back silently when it cannot be
    had; an explicit ``"c"`` raises :class:`KernelUnavailableError`.
    """
    if name == "auto":
        compiled.available()
    else:
        get_backend(name)


__all__ = [
    "KERNEL_BACKENDS",
    "KernelFn",
    "KernelStats",
    "KernelUnavailableError",
    "available_backends",
    "block_shape_stats",
    "choose_backend",
    "count_block_pair_batch",
    "count_block_pair_c",
    "count_block_pair_row",
    "get_backend",
    "kernel_capacity",
    "prepare_backend",
    "register_backend",
    "require_aligned",
    "resolve_backend",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.kernels.batched": "count_block_pair_batch",
    "repro.core.kernels.rowwise": "count_block_pair_row",
})
