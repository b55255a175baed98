import importlib
import re
from pathlib import Path

import pytest

import colsel


@pytest.mark.parametrize("name", ["colsel"])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), name
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, (name, missing)


def test_only_the_package_declares_all():
    # colsel._EXPORTS is the one list of public names
    package = Path(colsel.__file__).parent
    declaring = sorted(
        path.name for path in package.glob("*.py")
        if re.search(r"^__all__\b", path.read_text(encoding="utf-8"), re.M)
    )
    assert declaring == ["__init__.py"]
