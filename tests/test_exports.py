"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

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
