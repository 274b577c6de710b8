"""Every public annotation in holomimo resolves to a real object."""

import importlib
import inspect
import pkgutil
import typing

import pytest

import holomimo


def public_objects():
    for info in pkgutil.iter_modules(holomimo.__path__):
        module = importlib.import_module(f"holomimo.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # re-exports are checked where they are defined
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            yield f"{module.__name__}.{name}", obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member) and (
                        attr == "__init__" or not attr.startswith("_")
                    ):
                        yield f"{module.__name__}.{name}.{attr}", member


PUBLIC = dict(public_objects())


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_annotations_resolve(name):
    typing.get_type_hints(PUBLIC[name])
