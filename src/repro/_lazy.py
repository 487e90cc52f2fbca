"""Package namespaces that import a sub-module when a name from it is used.

``repro``'s packages re-export their leaf modules' public names.  Doing
so by importing every leaf made any import pay for all of them: a
live-node process imported the simulator, the harnesses and numpy to run
code that uses none of it.  Each package ``__init__`` now holds one
table, sub-module → the names it exports, resolved on first access
(PEP 562), so a process imports what it touches.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Dict, List, Tuple


def lazy_exports(
    package: str, namespace: dict, table: Dict[str, str]
) -> Tuple[Callable, Callable, List[str]]:
    """``(__getattr__, __dir__, __all__)`` for the ``__init__`` of
    ``package``, whose globals are ``namespace``.

    ``table`` maps a sub-module path relative to ``package`` to the
    space-separated names re-exported from it (``""``: the sub-module is
    only kept reachable as an attribute).  A resolved name is bound in
    ``namespace``, so the hook runs once per name.
    """
    origin = {
        name: module for module, names in table.items()
        for name in names.split()
    }
    children = {module.partition(".")[0] for module in table}

    def __getattr__(name: str):
        if name in origin:
            value = getattr(import_module(f"{package}.{origin[name]}"), name)
        elif name in children:
            value = import_module(f"{package}.{name}")
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *origin, *children})

    return __getattr__, __dir__, sorted(origin)
