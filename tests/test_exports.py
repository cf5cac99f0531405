import ast
import importlib
import inspect
import pkgutil

import pytest

import sympineq

from conftest import run_python

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


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    # a name bound by an import is used when the module reads it or lists it
    # in __all__; attribute chains count by their first name
    module = importlib.import_module(name)
    tree = ast.parse(inspect.getsource(module))
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used - set(getattr(module, "__all__", ()))) == []


def test_import_loads_neither_mellin_nor_oracles():
    # a fresh interpreter: in this one an earlier test may have loaded them
    script = ("import sys, sympineq\n"
              "heavy = ('numpy', 'sympineq.mellin', 'sympineq.oracles')\n"
              "print([m for m in heavy if m in sys.modules])\n"
              "import sympineq.cli\n"
              "sympineq.cli.build_parser()\n"
              "print([m for m in heavy if m in sys.modules])\n")
    done = run_python(script)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n[]\n", "")
