"""Lazy package surfaces (PEP 562).

Every ``repro`` package re-exports the public names of its submodules.
Importing all of them up front would make each process pay for every
subsystem — NumPy, asyncio, multiprocessing, the tenant catalog — before
its first answer.  Instead a package names the submodule each export
lives in, and the submodule is imported on first attribute access::

    __getattr__, __dir__ = lazy_exports(
        __name__, {"repro.core.abacus": ("Abacus",)}
    )

``from package import name``, ``package.name`` and ``from package
import *`` all resolve through the returned ``__getattr__``; the
resolved value is cached on the package, so later lookups are plain
attribute reads.  ``python -X importtime`` shows what an entry point
really loads.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, origins: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """Module ``__getattr__`` / ``__dir__`` for ``package``.

    Args:
        package: the package's ``__name__``.
        origins: submodule name -> the names it provides.
    """
    where = {
        name: module for module, names in origins.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        module = where.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__
