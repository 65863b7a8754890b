"""The package's public names: egowarp.__all__ is computed from the
package namespace, so each name in it must come from one of the package's
own modules, not from an import that happens to sit in __init__.py."""

import importlib
import pkgutil

import egowarp

SUBMODULES = [
    importlib.import_module(f"egowarp.{info.name}")
    for info in pkgutil.iter_modules(egowarp.__path__)
]


def _owned(name: str) -> bool:
    """name is bound to the same object in the package module that defines
    it, or, for a value without a defining module, in any package module."""
    obj = getattr(egowarp, name)
    home = getattr(obj, "__module__", None)
    modules = SUBMODULES if home is None else [m for m in SUBMODULES if m.__name__ == home]
    return any(vars(m).get(name) is obj for m in modules)


def test_every_public_name_comes_from_a_package_module():
    stray = [name for name in egowarp.__all__ if not _owned(name)]
    assert not stray, f"public names not defined in an egowarp module: {stray}"


def test_public_names_exclude_submodules_and_private_names():
    names = set(egowarp.__all__)
    assert {"align_pose", "COMPONENTS", "DepthMap", "read_depth"} <= names
    assert not names & {m.__name__.rsplit(".", 1)[1] for m in SUBMODULES}
    assert not [name for name in names if name.startswith("_")]


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from egowarp import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(egowarp.__all__)
