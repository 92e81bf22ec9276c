"""Every exported name exists: `wmmd.__all__` and each module's `__all__`."""

import importlib
import pkgutil

import pytest

import wmmd

MODULES = sorted(m.name for m in pkgutil.iter_modules(wmmd.__path__, "wmmd."))


def test_every_module_declares_its_exports():
    assert MODULES and all(hasattr(importlib.import_module(name), "__all__") for name in MODULES)


@pytest.mark.parametrize("name", ["wmmd", *MODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, missing
    assert len(set(module.__all__)) == len(module.__all__)
