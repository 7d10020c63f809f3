"""Package re-exports resolved on first access (PEP 562).

A package ``__init__`` names the submodule that defines each name it
re-exports, and :func:`lazy_exports` turns that table into the module-level
``__getattr__`` and ``__dir__``.  The first read of a name imports its
submodule and binds the value on the package, so later reads are plain
attribute lookups.  Importing a package therefore loads none of the
modules behind its names, and a command loads only the modules it runs.

A name outside the table raises :class:`AttributeError`, so
``from package import submodule`` still imports the submodule.  A submodule
that shares its name with a re-exported object must be bound eagerly by its
package: once the submodule is imported, the import system binds the module
object on the package and ``__getattr__`` is never consulted for that name.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, table: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package`` from ``{".submodule": names}``."""
    source = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> object:
        try:
            module = source[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(source))

    return __getattr__, __dir__
