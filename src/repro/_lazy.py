"""Lazy package exports (PEP 562 module ``__getattr__``).

A package ``__init__`` names the submodule that defines each public
name, and the submodule is imported on the first access to one of its
names.  Importing a package therefore no longer imports everything it
re-exports: ``repro serve`` loads only the modules serving needs.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable


def lazy_exports(
    package: str,
    namespace: dict[str, Any],
    exports: dict[str, tuple[str, ...]],
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair of a lazily exporting package.

    *exports* maps each submodule, relative to *package* (``".cache"``),
    to the names it defines.  *namespace* is the package's
    ``globals()``: a resolved name is stored there, so later accesses
    are ordinary attribute lookups that skip the hook.  Any other
    attribute that names a submodule imports it, as the eager package
    inits did (``repro.core.render`` after ``import repro.core``).
    """
    origin = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module, package), name)
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
