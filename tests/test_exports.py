"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil
import sys

import pytest

import expbouquet

SUBMODULES = [
    importlib.import_module(f"expbouquet.{info.name}")
    for info in pkgutil.iter_modules(expbouquet.__path__)
]
MODULES = [m for m in [expbouquet, *SUBMODULES] if hasattr(m, "__all__")]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


def test_star_import():
    namespace = {}
    exec("from expbouquet import *", namespace)
    assert set(expbouquet.__all__) <= set(namespace)


def test_package_all_is_the_modules_lists():
    names = [
        name
        for module in ("classify", "expmap", "fatoufn", "render", "symbolic", "towerfloat")
        for name in importlib.import_module(f"expbouquet.{module}").__all__
    ]
    assert expbouquet.__all__ == names
    assert len(set(names)) == len(names)
    assert expbouquet.render is sys.modules["expbouquet.render"].render
    promoted = ["PointClass", "ParamClass", "RE_OVERFLOW", "MM_DIRECT_MAX",
                "DRIFT_THRESHOLD", "DRIFT_WINDOW", "BOUNDED_BOX", "TAG_NAMES"]
    assert all(hasattr(expbouquet, name) for name in promoted)
