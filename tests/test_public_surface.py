"""The public surface: each library module's ``__all__``, exposed once by the
package (some modules eagerly, the rest on first access)."""

import types

import pytest

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
    public = {name for name in dir(drillvol)
              if not name.startswith("_")
              and not isinstance(getattr(drillvol, name), types.ModuleType)}
    assert public == listed
    for module in LIBRARY_MODULES:
        for name in module.__all__:
            assert getattr(drillvol, name) is getattr(module, name), name


@pytest.mark.parametrize("name", ["no_such_name", "_anything"])
def test_unknown_and_private_names_raise(name):
    with pytest.raises(AttributeError):
        getattr(drillvol, name)
