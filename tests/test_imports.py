"""What ``import ghostsim`` loads, and what it makes public."""

import ast
import importlib
import inspect
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import ghostsim
from ghostsim import cli

_PACKAGE_MODULES = ("analysis", "bases", "bench", "config", "core", "errors",
                    "pgmio", "reconstruct")

# public functions that nothing in the package calls, each kept for a reason
_PUBLIC_WITHOUT_CALLER = {
    # defines the filter-modified set (``kernel * pattern``); the benchmark's
    # core.stencil_s span names it
    "cyclic_convolve",
    # the paper's noise predictions: acceptance criteria 2-3 and demo 03
    "kernel_autocorrelation",
    "noise_autocorrelation",
    "predicted_amplification",
    # configs from text; benchmarks/run.py calls it
    "parse_config",
    # reads a written graymap back in value units: public on purpose
    "read_pgm_values",
}


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


def _referenced_names(node, inside=frozenset(), found=None) -> set[str]:
    """Every name, attribute and imported name under ``node``, except a
    def's or class's own name used inside it.  Strings (docstrings, the
    ``__all__`` lists) are not references."""
    found = set() if found is None else found
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    name = (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute)
            else node.name if isinstance(node, ast.alias) else None)
    if name is not None and name not in inside:
        found.add(name)
    for child in ast.iter_child_nodes(node):
        _referenced_names(child, inside, found)
    return found


def test_every_public_function_has_a_caller_or_a_reason():
    # a public function that only tests or demos call belongs in
    # tests/oracles.py; the few kept without a caller are listed above
    referenced = set()
    for path in Path(ghostsim.__file__).parent.glob("*.py"):
        referenced |= _referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    functions = {name for name in ghostsim.__all__
                 if inspect.isfunction(getattr(ghostsim, name))}
    assert _PUBLIC_WITHOUT_CALLER <= functions
    assert functions - referenced == _PUBLIC_WITHOUT_CALLER
