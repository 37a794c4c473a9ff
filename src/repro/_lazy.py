"""Package exports that resolve on first use (PEP 562).

A package ``__init__`` that imports every submodule to re-export its
names makes ``import repro.core.sensitivity`` load the whole package,
and ``import repro`` load the whole program. :func:`lazy_exports`
builds a module ``__getattr__`` and ``__dir__`` from one table instead,
so a public name's defining module is imported the first time the name
is read, and ``import repro.X.Y`` loads only what ``Y`` imports.

Each package keeps the real imports under ``if TYPE_CHECKING:`` so
static tools still see every name, and its literal ``__all__``.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.

    ``exports`` maps a submodule (relative to ``package``) to the public
    names it defines; a name written ``"alias:name"`` exports the
    submodule's ``name`` as ``alias``. A resolved name is stored in the
    package namespace, so only its first read goes through here. Any
    other attribute that names a submodule imports it, as an eager
    ``__init__`` would have (``repro.gpu``, ``repro.runtime.wire``).
    """
    namespace = sys.modules[package].__dict__
    where: Dict[str, Tuple[str, str]] = {}
    for module, names in exports.items():
        for entry in names:
            alias, _, name = entry.partition(":")
            where[alias] = (module, name or alias)

    def __getattr__(attr: str) -> object:
        if attr in where:
            module, name = where[attr]
            value = getattr(importlib.import_module(f"{package}.{module}"), name)
            namespace[attr] = value
            return value
        if not attr.startswith("__"):
            submodule = f"{package}.{attr}"
            try:
                return importlib.import_module(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise
        raise AttributeError(f"module {package!r} has no attribute {attr!r}")

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__
