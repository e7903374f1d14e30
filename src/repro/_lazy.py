"""Lazy re-exports for package namespaces (PEP 562).

A package that re-exports names from its submodules would import all of them
the moment it is imported, whatever the caller goes on to use.  Instead, each
such package maps the names to the modules that define them and resolves a
name on first access::

    _EXPORTS = {"repro.sim.config": ("SystemConfig", "DesignPoint")}
    __getattr__ = lazy_exports(globals(), _EXPORTS)

so ``import repro`` loads only what a run goes on to execute.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, Iterable, List, Sequence


def lazy_exports(
    namespace: Dict[str, object], exports: Dict[str, Sequence[str]]
) -> Callable[[str], object]:
    """A module ``__getattr__`` resolving ``exports`` (module -> names) on demand.

    The first access imports the defining module and stores the value in
    ``namespace``, so later lookups are ordinary global reads.  Unknown names
    raise :class:`AttributeError`, which keeps ``from package import
    submodule`` working.
    """
    package = namespace["__name__"]
    module_of = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = module_of.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    return __getattr__


def exported_names(exports: Dict[str, Sequence[str]], *extra: str) -> List[str]:
    """The sorted ``__all__`` of a namespace built by :func:`lazy_exports`."""
    names: Iterable[str] = (name for names in exports.values() for name in names)
    return sorted([*names, *extra])
