import importlib
import pkgutil

import pytest

import sympineq

MODULES = ["sympineq"] + sorted(
    m.name for m in pkgutil.iter_modules(sympineq.__path__, "sympineq."))


def test_submodules_are_found():
    # an empty list would leave the check below with nothing to run
    assert {"sympineq.families", "sympineq.series"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
