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


# the modules a fresh interpreter has loaded of the package, numpy and
# dataclasses, which the exact modules' report classes need
LOADED = ("def loaded():\n"
          "    return sorted(m for m in sys.modules if m == 'dataclasses'\n"
          "                  or m.partition('.')[0] in ('sympineq', 'numpy'))\n")


def test_import_and_parser_load_no_library_module():
    # a fresh interpreter: in this one an earlier test may have loaded them
    script = ("import sys, sympineq\n" + LOADED
              + "print(loaded())\n"
                "import sympineq.cli\n"
                "sympineq.cli.build_parser()\n"
                "print(loaded())\n")
    done = run_python(script)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "['sympineq']\n['sympineq', 'sympineq.cli']\n"


def test_a_public_name_loads_only_its_module():
    script = ("import sys, sympineq\n" + LOADED
              + "from sympineq import gram\n"
                "print(loaded())\n"
                "print(sympineq.gram is gram is sys.modules['sympineq.spectral'].gram)\n")
    done = run_python(script)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == ("['dataclasses', 'sympineq', 'sympineq.roots', "
                           "'sympineq.spectral']\nTrue\n")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from sympineq import *", namespace)
    assert {n: namespace[n] for n in sympineq.__all__} == {
        n: getattr(sympineq, n) for n in sympineq.__all__}
    assert set(sympineq.__all__) <= set(dir(sympineq))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'sympineq' has no "
                                             "attribute 'nope'$"):
        sympineq.nope
    assert not hasattr(sympineq, "cache_clear")
