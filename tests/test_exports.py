"""The package's export list: every name resolves, once, and nothing public is left out."""

import importlib
import pkgutil
import types
import typing

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


def test_every_annotation_resolves():
    # every annotation names something its module binds at load, so that
    # typing.get_type_hints works on each function, class and method confal defines
    failures = []
    for info in pkgutil.iter_modules(confal.__path__):
        mod = importlib.import_module(f"confal.{info.name}")
        for name, val in vars(mod).items():
            if not callable(val) or getattr(val, "__module__", None) != mod.__name__:
                continue
            members = [(name, val)]
            if isinstance(val, type):
                for key, member in vars(val).items():
                    member = getattr(member, "__func__", member)  # classmethod, staticmethod
                    if callable(member):
                        members.append((f"{name}.{key}", member))
            for qualname, obj in members:
                try:
                    typing.get_type_hints(obj)
                except NameError as exc:
                    failures.append(f"{mod.__name__}.{qualname}: {exc}")
    assert failures == []
