"""The package's public names."""

import importlib
import pkgutil

import braidcalc


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(braidcalc.__path__):
        module = importlib.import_module(f"braidcalc.{info.name}")
        for name in module.__all__:
            assert hasattr(module, name), f"{info.name}.{name}"
