"""``from tuckerfactor import *`` binds the package's public names and no submodule."""

import types

import tuckerfactor


def star_import():
    namespace = {}
    exec("from tuckerfactor import *", namespace)
    del namespace["__builtins__"]
    return namespace


def test_binds_exactly_all_sorted_and_once():
    assert list(star_import()) == tuckerfactor.__all__
    assert tuckerfactor.__all__ == sorted(set(tuckerfactor.__all__))
    assert {"mopca_fit", "ipmopca_fit", "itipup_fit"} <= set(tuckerfactor.__all__)


def test_binds_no_module():
    namespace = star_import()
    assert not [name for name, value in namespace.items()
                if isinstance(value, types.ModuleType)]
    assert "io" not in namespace  # the standard library's io stays unshadowed


def test_each_name_is_an_attribute_of_the_package():
    for name, value in star_import().items():
        assert getattr(tuckerfactor, name) is value
