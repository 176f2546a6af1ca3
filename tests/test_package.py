"""The package's name list: ``linial.__all__`` against the modules' lists."""

import importlib
import pkgutil

import linial


def _module_lists():
    for info in pkgutil.iter_modules(linial.__path__):
        module = importlib.import_module(f"linial.{info.name}")
        yield module, getattr(module, "__all__", ())


def test_every_package_name_comes_from_exactly_one_module():
    owners = {}
    for module, names in _module_lists():
        for attr in names:
            owners.setdefault(attr, []).append(module)
    for attr in linial.__all__:
        assert len(owners.get(attr, ())) == 1, (attr, owners.get(attr))
        assert getattr(linial, attr) is getattr(owners[attr][0], attr), attr


def test_every_module_name_is_a_package_name():
    for module, names in _module_lists():
        missing = sorted(set(names) - set(linial.__all__))
        assert not missing, (module.__name__, missing)
