"""The package's public names."""

import importlib
import pkgutil

import braidcalc


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(braidcalc.__path__):
        module = importlib.import_module(f"braidcalc.{info.name}")
        for name in module.__all__:
            assert hasattr(module, name), f"{info.name}.{name}"


def test_the_package_root_exports_only_its_submodules():
    # every caller imports from a module path; the root is no second list
    submodules = {info.name for info in pkgutil.iter_modules(braidcalc.__path__)}
    public = {name for name in vars(braidcalc) if not name.startswith("_")}
    assert public <= submodules, sorted(public - submodules)
