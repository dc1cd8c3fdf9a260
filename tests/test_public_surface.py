"""The public surface: each library module's ``__all__``, re-exported once by
the package."""

import types

import drillvol
from drillvol import bounds, data, errors, oracle, smoothing, warped

LIBRARY_MODULES = (bounds, data, errors, oracle, smoothing, warped)


def test_every_listed_name_exists():
    for module in LIBRARY_MODULES:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing objects: {missing}"


def test_package_exports_exactly_the_module_lists():
    lists = [set(module.__all__) for module in LIBRARY_MODULES]
    listed = set().union(*lists)
    assert sum(map(len, lists)) == len(listed), "a name is listed by two modules"
    public = {name for name, value in vars(drillvol).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == listed
