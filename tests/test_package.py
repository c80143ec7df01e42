"""The package namespace loads each public name from its owning
submodule on first use."""

import inspect
from importlib import import_module

import pytest

import hessenbergian


@pytest.mark.parametrize("name", hessenbergian.__all__)
def test_public_name_is_its_owners_object(name):
    owner = import_module(f"hessenbergian.{hessenbergian._OWNERS[name]}")
    value = getattr(hessenbergian, name)
    assert value is getattr(owner, name)
    if inspect.isclass(value) or inspect.isfunction(value):
        if value.__module__.startswith("hessenbergian"):
            assert value.__module__ == owner.__name__  # defined, not re-exported


def test_dir_lists_every_public_name():
    assert set(hessenbergian.__all__) <= set(dir(hessenbergian))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from hessenbergian import *", namespace)
    assert all(name in namespace for name in hessenbergian.__all__)


def test_unknown_attribute_is_refused():
    with pytest.raises(AttributeError, match="no_such_name"):
        hessenbergian.no_such_name
