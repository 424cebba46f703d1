"""Lazy package exports (PEP 562), shared by every package ``__init__``.

A package that re-exports its submodules' names eagerly imports every
one of them the moment anything under the package is imported: a warm
``repro count`` would load the auto-tuner, the baselines and the trace
exporters just to reach ``repro.cli``.  :func:`lazy_exports` builds the
module-level ``__getattr__``/``__dir__`` pair that imports a name's
submodule on first access instead, so each package keeps its public
``__all__`` while a caller pays only for what it touches.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Mapping
from typing import Any, Callable, Iterator


def resolve(target: str) -> Any:
    """Import ``"package.module:name"`` and return ``name`` from it."""
    module, _, name = target.partition(":")
    return getattr(importlib.import_module(module), name)


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package``, whose re-exports load
    on first access.

    ``exports`` maps each submodule (absolute name) to the
    space-separated names the package re-exports from it.  A resolved
    name is stored in the package namespace, so later lookups never
    reach ``__getattr__`` again; an unknown name raises
    ``AttributeError`` as a plain module would.
    """
    where = {name: mod for mod, names in exports.items() for name in names.split()}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        if name not in where:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(where[name]), name)
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__


class LazyRegistry(Mapping):
    """A read-only name -> object mapping whose values are
    ``"module:name"`` targets, imported when first looked up (see
    :func:`resolve`); iteration and membership never import."""

    def __init__(self, targets: Mapping[str, str]):
        self._targets = dict(targets)

    def __getitem__(self, key: str) -> Any:
        return resolve(self._targets[key])

    def __iter__(self) -> Iterator[str]:
        return iter(self._targets)

    def __len__(self) -> int:
        return len(self._targets)
