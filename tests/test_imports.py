"""What ``import ghostsim`` loads."""

import subprocess
import sys
import types

import ghostsim


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


def test_package_all_names_public_objects_not_submodules():
    assert len(ghostsim.__all__) == len(set(ghostsim.__all__))
    for name in ghostsim.__all__:
        assert hasattr(ghostsim, name), name
        assert not isinstance(getattr(ghostsim, name), types.ModuleType), name
