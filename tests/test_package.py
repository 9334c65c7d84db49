"""The package's exports and submodules, which it imports on first access."""

import importlib
import pathlib
import subprocess
import sys

import pytest

import partarget

# Exports held under another name, or defined in the package itself.
HOME = {"MC_BACKEND": ("partarget._backend", "BACKEND"), "__version__": ("partarget", "__version__")}


@pytest.mark.parametrize("name", partarget.__all__)
def test_export_is_the_defining_modules_object(name):
    value = getattr(partarget, name)
    module, attr = HOME.get(name) or (value.__module__, name)
    assert getattr(importlib.import_module(module), attr) is value


def test_dir_lists_every_export():
    assert set(partarget.__all__) <= set(dir(partarget))


def test_every_submodule_is_an_attribute():
    files = pathlib.Path(partarget.__file__).parent.glob("*.py")
    assert set(partarget._SUBMODULES) == {f.stem for f in files} - {"__init__"}
    for name in partarget._SUBMODULES:
        assert getattr(partarget, name) is importlib.import_module("partarget." + name)
    assert set(partarget._SUBMODULES) <= set(dir(partarget))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        getattr(partarget, "no_such_name")
    assert not hasattr(partarget, "GridSpecs")


def test_fresh_interpreter_star_import():
    script = ("import sys\n"
              "import partarget\n"
              "assert 'numpy' not in sys.modules\n"
              "from partarget import *\n"
              "assert GridSpec is sys.modules['partarget.inputs'].GridSpec\n"
              "assert MC_BACKEND == 'numpy' and 'partarget.grid' in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_fresh_interpreter_submodule_attributes():
    script = ("import sys\n"
              "import partarget\n"
              "assert 'numpy' not in sys.modules\n"
              "assert partarget.grid.sweep_grid.__module__ == 'partarget.grid'\n"
              "assert partarget.linear is sys.modules['partarget.linear']\n"
              "assert partarget.probit.ProbitParams is partarget.ProbitParams\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
