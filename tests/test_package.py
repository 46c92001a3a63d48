"""The package's public surface: each module's __all__, republished whole."""

import itertools

import tbsg
from tbsg import bench, core, covertree, index, io, knng, pruning

MODULES = (core, io, knng, covertree, pruning, index, bench)


def test_module_lists_are_pairwise_disjoint():
    for a, b in itertools.combinations(MODULES, 2):
        assert not set(a.__all__) & set(b.__all__), (a.__name__, b.__name__)


def test_package_list_is_the_module_lists_plus_version():
    assert tbsg.__all__ == [name for m in MODULES for name in m.__all__] + ["__version__"]


def test_each_name_is_the_object_its_module_defines():
    for m in MODULES:
        for name in m.__all__:
            obj = getattr(m, name)
            assert obj.__module__ == m.__name__, f"{m.__name__}.{name}"
            assert getattr(tbsg, name) is obj, f"{m.__name__}.{name}"
