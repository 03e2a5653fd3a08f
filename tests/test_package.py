"""The package namespace: every module's ``__all__``, each name once."""

import pairspec
from pairspec import _version, empirical, ensembles, errors, harness, matalg, predict

# in the order ``pairspec.__all__`` lists them
MODULES = (ensembles, matalg, predict, empirical, harness, errors)


def test_all_is_each_modules_all_without_repeats():
    # a name in two modules' lists would leave the later star import's object
    # bound, without any error
    expected = ["__version__", *(name for mod in MODULES for name in mod.__all__)]
    assert pairspec.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_each_name_is_its_modules_object():
    assert pairspec.__version__ is _version.PACKAGE_VERSION
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(pairspec, name) is getattr(mod, name), f"{mod.__name__}.{name}"


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from pairspec import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(pairspec.__all__)
