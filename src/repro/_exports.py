"""Lazy package exports (PEP 562).

A package lists each public name with the submodule that defines it and
sets ``__getattr__ = lazy_exports(__name__, _EXPORTS)``: the submodule is
imported when one of its names is first read, so importing a package —
or any one of its submodules — loads nothing else.  A process that only
reads results then never imports the cycle engine.
"""

import sys
from importlib import import_module
from typing import Callable, Dict


def lazy_exports(package: str, exports: Dict[str, str]) -> Callable[[str], object]:
    """A module ``__getattr__`` resolving ``exports`` (name -> submodule
    of ``package``) on first access and caching the value on the package."""

    def __getattr__(name: str) -> object:
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{module}"), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
