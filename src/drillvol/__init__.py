"""drillvol: volume bounds and tube geometry for drilled hyperbolic 3-manifolds.

Warped tube metrics and their curvatures, a finite-difference curvature
oracle, the smoothed negatively-curved metric family, the drilled-volume
inequalities with their minimum-volume corollary, and analysis of
drilled-geodesic datasets against the conjectured bound
Vol(drilled) <= Vol(parent) + pi * length.  Each module's ``__all__`` is
its public surface, and the package exposes all of them.  ``errors`` and
``bounds`` need only the standard library and are imported with the
package; a name of ``warped``, ``smoothing``, ``data`` or ``oracle`` imports
its module on first access.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

from .bounds import *
from .errors import *

# Searched in this order, so a smoothing name never imports data or oracle.
_LAZY_MODULES = ("warped", "smoothing", "data", "oracle")


def __getattr__(name: str):
    if not name.startswith("_"):
        if name in _LAZY_MODULES:
            return _import_module(f"{__name__}.{name}")
        for module_name in _LAZY_MODULES:
            module = _import_module(f"{__name__}.{module_name}")
            if name in module.__all__:
                value = globals()[name] = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    lazy = [name for module_name in _LAZY_MODULES
            for name in _import_module(f"{__name__}.{module_name}").__all__]
    return sorted(set(globals()).union(lazy))
