"""What ``import ghostsim`` loads."""

import importlib
import inspect
import json
import subprocess
import sys
import types

import pytest

import ghostsim
from ghostsim import cli

_PACKAGE_MODULES = ("analysis", "bases", "bench", "config", "core", "errors",
                    "pgmio", "reconstruct")


def test_import_loads_neither_scipy_nor_a_thread_pool():
    # scipy would add about 0.3-0.5 s of set-up to every run; the sweep is
    # serial, so nothing should pull in concurrent.futures either
    code = ("import sys, ghostsim; "
            "print(' '.join(m for m in ('scipy', 'concurrent.futures') "
            "if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""


def test_run_does_not_load_numpy_ma(tmp_path):
    # numpy 2 loads numpy.ma on the first np.unique; masks and the window
    # numbering of every set sort instead, so a run does not pay that import
    code = ("import json, sys, numpy; before = 'numpy.ma' in sys.modules; "
            "from ghostsim.cli import run_experiment; "
            "from ghostsim.config import load_config; "
            "run_experiment(load_config(None, environ={}, overrides={"
            "'grid_side': '16', 'bar_groups': '2', **json.loads(sys.argv[1])}), sys.argv[2]); "
            "print(before, 'numpy.ma' in sys.modules)")
    runs = {"canonical": {"basis": "canonical"}, "hadamard": {"basis": "hadamard"},
            "float-kernel": {"kernel": "0 -0.5 0; -0.5 0 0.5; 0 0.5 0"},
            "hadamard-5x5": {"grid_side": "128", "basis": "hadamard",
                             "kernel": "1 2 3 2 1; 2 4 6 4 2; 3 6 9 6 3; 2 4 6 4 2; 1 2 3 2 1"}}
    for name, overrides in runs.items():
        result = subprocess.run([sys.executable, "-c", code, json.dumps(overrides),
                                 str(tmp_path / name)], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        before, after = result.stdout.split()
        if before == "True":
            pytest.skip("this numpy loads numpy.ma with numpy itself")
        assert after == "False", name


def test_package_all_names_public_objects_not_submodules():
    # each submodule's __all__ is the one listing of its public names; the
    # package re-exports their union, and the command line stays out of it
    listed = [name for module in _PACKAGE_MODULES
              for name in importlib.import_module(f"ghostsim.{module}").__all__]
    assert len(listed) == len(set(listed))
    assert ghostsim.__all__ == sorted(listed)
    for module in _PACKAGE_MODULES:
        for name in importlib.import_module(f"ghostsim.{module}").__all__:
            value = getattr(ghostsim, name)
            assert not isinstance(value, types.ModuleType), name
            if inspect.isfunction(value) or inspect.isclass(value):
                assert value.__module__ == f"ghostsim.{module}", name
    for name in cli.__all__:
        assert name not in ghostsim.__all__ and not hasattr(ghostsim, name), name
