"""Each demo script runs end to end at a small size."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("script, kwargs", [
    ("01_pattern_compilation.py", {"out_dir": "patterns"}),
    ("02_measure_filtered_image.py", {}),
    ("03_noise_character.py", {"side": 16, "trials": 2}),
])
def test_demo_main_runs(script, kwargs, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _load(DEMOS / script).main(**kwargs)
    assert capsys.readouterr().out.strip()
    if "out_dir" in kwargs:
        assert any((tmp_path / kwargs["out_dir"]).glob("*.pgm"))
