import importlib
import pkgutil

import pytest

import textclf


def _modules():
    names = ["textclf"]
    for info in pkgutil.walk_packages(textclf.__path__, "textclf."):
        names.append(info.name)
    return names


@pytest.mark.parametrize("name", _modules())
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
