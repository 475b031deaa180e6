"""The package's export list: every name resolves, once, and nothing public is left out."""

import types

import confal


def test_every_exported_name_resolves_once():
    assert len(confal.__all__) == len(set(confal.__all__))
    missing = [name for name in confal.__all__ if not hasattr(confal, name)]
    assert missing == []


def test_every_public_attribute_is_exported():
    public = {
        name for name, value in vars(confal).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(confal.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from confal import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(confal.__all__)
