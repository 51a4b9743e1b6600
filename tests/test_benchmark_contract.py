"""The benchmark harness under ``benchmarks/`` drives the package through
public names and a traced run; these tests keep that contract.

A traced run of the smallest workload must yield every per-layer metric
that ``BENCHMARK.json`` declares, each non-zero, for both parent bases.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"benchmark_{name}", ROOT / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def run():
    return _load("run")


@pytest.fixture(scope="module")
def worker():
    return _load("worker")


@pytest.mark.parametrize("basis", ["canonical", "hadamard"])
def test_traced_run_reports_every_layer_metric(run, basis, tmp_path):
    overrides, _ = run.SELF_TEST
    session = run.Session(({**overrides, "basis": basis}, False), run.DEFAULT_SEED,
                          tmp_path / "work")
    frames = run.frame_count(session)
    out = tmp_path / "out"
    out.mkdir()
    sample = run.worker("trace", {**session.overrides, "output_dir": str(out)}, out,
                        timeout=120)
    metrics = run.layer_metrics(sample["spans"], frames, sample["run_s"],
                                sample["run_s"])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = [m["name"] for m in declared if not metrics.get(m["name"])]
    assert frames > 0
    assert missing == []
    assert run.check_outputs(out, session.config(out), basis == "canonical") == []


def test_counted_functions_exist(worker):
    import ghostsim

    for name in worker._MEASURES:
        module, function = name.split(".")
        assert callable(getattr(getattr(ghostsim, module), function, None)), name


def test_public_names_on_the_run_path(tmp_path):
    from ghostsim import bases, cli, config, core

    grid = core.GridSpec(4)
    kernel = config.parse_config("").kernel
    hadamard = bases.hadamard_basis(grid)
    assert hadamard.label == bases.HADAMARD
    modified = bases.modify_basis(bases.canonical_basis(grid), kernel)
    assert modified.stack.shape == (16, 4, 4)
    decomposed = bases.decompose_basis(modified)
    assert len(decomposed) == 16
    assert all(isinstance(sub, bases.SubPatternSet) for sub in decomposed)
    # one frame per part: 15 +/-1 patterns in two parts, the all-ones one in one
    assert bases.projection_count(hadamard, 2) == 31
    assert np.array_equal(
        np.asarray(bases.canonical_basis(grid).stack).reshape(16, 16), np.eye(16))

    cfg = config.load_config(None, environ={},
                             overrides={"grid_side": "16", "bar_groups": "2",
                                        "integration_times_ms": "5 20",
                                        "repeats": "1"})
    assert cli.build_scene(cfg).shape == (16, 16)
    written = cli.run_experiment(cfg, tmp_path)
    assert tmp_path / "snr_sweep.csv" in written
