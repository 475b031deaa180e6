"""The package's export list: every name resolves, once, and nothing public is left out."""

import types

import confal


def test_every_exported_name_resolves_once():
    assert len(confal.__all__) == len(set(confal.__all__))
    missing = [name for name in confal.__all__ if not hasattr(confal, name)]
    assert missing == []


def test_every_public_attribute_is_exported():
    # names load on first use, so dir() rather than vars() lists them all
    public = {
        name for name in dir(confal)
        if not name.startswith("_") and not isinstance(getattr(confal, name), types.ModuleType)
    }
    assert public == set(confal.__all__)
    assert set(vars(confal)) <= set(dir(confal))


def test_star_import():
    namespace: dict = {}
    exec("from confal import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(confal.__all__)
