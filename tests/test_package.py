"""The package's name list: ``linial.__all__`` against the modules' lists."""

import importlib
import pkgutil

import linial


def test_every_package_name_comes_from_exactly_one_module():
    owners = {}
    for info in pkgutil.iter_modules(linial.__path__):
        module = importlib.import_module(f"linial.{info.name}")
        for attr in getattr(module, "__all__", ()):
            owners.setdefault(attr, []).append(module)
    for attr in linial.__all__:
        assert len(owners.get(attr, ())) == 1, (attr, owners.get(attr))
        assert getattr(linial, attr) is getattr(owners[attr][0], attr), attr
