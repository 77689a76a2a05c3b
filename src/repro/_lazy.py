"""Lazy re-exports: a package lists its public names with the submodules
that define them, and a submodule is imported when one of its names is
first read.

An entry point then loads only the code it runs: ``repro serve`` and
``repro batch`` import the kernels, the tree solver, the store and the
validator, not the report, baselines or online simulator that the same
packages also export.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Any, Mapping, Sequence


class LazyPackage(types.ModuleType):
    """A package module whose exported names import their submodule on
    first access (see :func:`lazy_exports`)."""

    _lazy_origins: dict[str, str]

    def __getattr__(self, name: str) -> Any:
        origin = self._lazy_origins.get(name)
        if origin is None:
            raise AttributeError(
                f"module {self.__name__!r} has no attribute {name!r}"
            )
        submodule = importlib.import_module(f"{self.__name__}.{origin}")
        value = getattr(submodule, name)
        setattr(self, name, value)
        return value

    def __setattr__(self, name: str, value: Any) -> None:
        # importing submodule ``x`` binds it on its package as ``x``; where
        # the package exports a function ``x`` of that very submodule
        # (``repro.analysis.regret``, ``repro.solve``), the function keeps
        # the name, whichever of the two was imported first
        if (isinstance(value, types.ModuleType)
                and self._lazy_origins.get(name) == name
                and value.__name__ == f"{self.__name__}.{name}"):
            value = getattr(value, name)
        super().__setattr__(name, value)

    def __dir__(self) -> list[str]:
        return sorted(set(super().__dir__()) | set(self._lazy_origins))


def lazy_exports(package: str, exports: Mapping[str, Sequence[str]]) -> list[str]:
    """Make the package module ``package`` export every name of
    ``exports[submodule]`` from ``package.submodule``, imported on first
    access.  Returns the exported names in order, for ``__all__``."""
    module = sys.modules[package]
    module._lazy_origins = {
        name: submodule
        for submodule, names in exports.items() for name in names
    }
    module.__class__ = LazyPackage
    return list(module._lazy_origins)
