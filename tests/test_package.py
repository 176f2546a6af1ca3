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


# What the CLI, the demos and the benchmark read; the identity suite that no
# command reads lives in tests/reference_algebra.py.
PACKAGE_NAMES = {
    "CLI_LABELS", "OperatorPoly", "PeriodConsistencyError", "QuasiPoly", "RatPoly",
    "RootReport", "RootSystemInfo", "apply_S", "catalog", "char_poly", "char_quasi",
    "decompose_ehrhart", "denumerant_count", "ehrhart_quasi", "eulerian",
    "gcd_prime_polynomial", "generalized_eulerian", "oracle_agreement_bound",
    "oracle_count", "positive_roots", "render_poly", "tilde", "verify_corollary1",
    "verify_line", "verify_main_theorem", "verify_rad_theorem",
}
# Moved to the tests or deleted; no module of the package may define them.
TEST_SIDE_NAMES = {
    "cyclotomic_type", "compose_power", "derivative", "congruent_mod_power",
    "moment_divisibility", "generalized_congruence_operator", "cross_type_relation_check",
    "verify_shift_relation", "has_gcd_property", "weyl_group_order",
    "eulerian_congruence_check", "shift_argument",
    "series_to_quasipoly", "find_roots", "quasipoly_to_json",
}


def test_package_surface_is_pinned():
    assert len(PACKAGE_NAMES) == 26 and len(TEST_SIDE_NAMES) == 15
    assert sorted(linial.__all__) == sorted(PACKAGE_NAMES)
    for module in [linial, *(module for module, _ in _module_lists())]:
        found = sorted(name for name in TEST_SIDE_NAMES if hasattr(module, name))
        assert not found, (module.__name__, found)
