"""Every exported name exists: `wmmd.__all__` and each module's `__all__`; the thread policy sits in `wmmd.runtime` alone."""

import ast
import importlib
import pathlib
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


_MOVED = ["_block_sum", "cap_threads", "blas_threads", "_workers", "_CPUS", "_WAVE", "_pool", "_openblas_fns"]


@pytest.mark.parametrize("name", _MOVED)
def test_thread_policy_lives_in_runtime_alone(name):
    assert hasattr(importlib.import_module("wmmd.runtime"), name)
    assert not hasattr(importlib.import_module("wmmd.measures"), name)


@pytest.mark.parametrize("name", [m for m in MODULES if m != "wmmd.runtime"])
def test_only_runtime_imports_ctypes_or_concurrent_futures(name):
    tree = ast.parse(pathlib.Path(importlib.import_module(name).__file__).read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module}
    assert not imported & {"ctypes", "concurrent", "concurrent.futures"}
