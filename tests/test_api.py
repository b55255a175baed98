import importlib
import pkgutil

import pytest

import colsel

# every module of the package that declares __all__; __main__ runs the CLI
MODULES = ["colsel"] + sorted(
    f"colsel.{info.name}"
    for info in pkgutil.iter_modules(colsel.__path__)
    if info.name != "__main__"
    and hasattr(importlib.import_module(f"colsel.{info.name}"), "__all__")
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), name
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, (name, missing)
