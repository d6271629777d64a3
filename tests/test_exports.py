"""Export lists: each layer lists exactly what it defines, the root re-exports them."""

import importlib
import inspect

import pytest

import contactsurgery

LAYERS = ("contfrac", "legendrian", "seifert", "intmat", "homology", "gauge", "lattice")


@pytest.mark.parametrize("name", LAYERS)
def test_layer_all_is_its_public_functions_and_classes(name):
    module = importlib.import_module(f"contactsurgery.{name}")
    defined = {
        attr
        for attr, value in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    }
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == defined


def test_root_all_is_the_union_of_the_layers():
    union = set()
    for name in LAYERS:
        union.update(importlib.import_module(f"contactsurgery.{name}").__all__)
    assert len(contactsurgery.__all__) == len(set(contactsurgery.__all__))
    assert set(contactsurgery.__all__) == union | {"__version__"}


@pytest.mark.parametrize("name", sorted(contactsurgery._LAZY))
def test_lazy_table_is_the_layer_all(name):
    # a stray entry would show in dir() and raise KeyError when read
    module = importlib.import_module(f"contactsurgery.{name}")
    assert contactsurgery._LAZY[name] == tuple(module.__all__)


def test_every_root_name_resolves_to_its_layer_object():
    for name in LAYERS:
        module = importlib.import_module(f"contactsurgery.{name}")
        for attr in module.__all__:
            assert getattr(contactsurgery, attr) is getattr(module, attr)
    assert isinstance(contactsurgery.__version__, str)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from contactsurgery import *", namespace)
    assert set(contactsurgery.__all__) <= set(namespace)
