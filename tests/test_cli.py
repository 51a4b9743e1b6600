"""Command-line verbs, output files, exit codes, and full-run determinism."""

import contextlib
import functools
import io
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghostsim import (
    ConfigError,
    DimensionError,
    GridSpec,
    PatternBasis,
    SubPatternSet,
    decompose_basis,
    hadamard_basis,
    modify_basis,
    parse_config,
    read_pgm,
    read_pgm_values,
    synth_bar_target,
    write_pgm,
)
import ghostsim.analysis as analysis_module
import ghostsim.bases as bases_module
import ghostsim.bench as bench_module
import ghostsim.cli as cli_module
from ghostsim.cli import emit_pattern_gallery, main, run_experiment
from ghostsim.config import ENV_PREFIX

SMALL = (
    "grid_side = 16\n"
    "bar_groups = 2\n"
    "integration_times_ms = 5 20\n"
    "repeats = 2\n"
    "detector_sigma = 0.5\n"
    "normalization_sigma = 0.5\n"
    "background_measure = 4.0\n"
    "background_norm = 0.5\n"
    "seed = 123\n"
)

# the config of tests/test_config.py::TestEcho::test_round_trip_custom
CUSTOM = (
    "grid_side = 16\n"
    "basis = hadamard\n"
    "kernel = 0 -1 0; -1 0 1; 0 1 0\n"
    "lamp_base = 2.5\n"
    "integration_times_ms = 7.5 80\n"
    "background_rect = 1 2 3 4\n"
    "gallery_indices = 0 85 255\n"
    "object_path = some/object.pgm\n"
)

DEFAULT_ECHO = """\
grid_side = 64
basis = canonical
kernel = edge-eq3
lamp_base = 1.0
lamp_drift_amplitude = 0.05
lamp_drift_period = 40960.0
detector_sigma = 1.5
normalization_sigma = 1.5
background_measure = 60.0
background_norm = 5.0
seed = 7321
integration_times_ms = 20.0 100.0 220.0
repeats = 3
repeats_per_pattern = 2
bar_groups = 3
object_path = synthetic
peak_fraction = 0.1
background_fraction = 0.3
mask_border = 1
background_rect = auto
gallery_indices = auto
output_dir = runs
"""

CUSTOM_ECHO = """\
grid_side = 16
basis = hadamard
kernel = 0.0 -1.0 0.0; -1.0 0.0 1.0; 0.0 1.0 0.0
lamp_base = 2.5
lamp_drift_amplitude = 0.05
lamp_drift_period = 2560.0
detector_sigma = 1.5
normalization_sigma = 1.5
background_measure = 60.0
background_norm = 5.0
seed = 7321
integration_times_ms = 7.5 80.0
repeats = 3
repeats_per_pattern = 2
bar_groups = 3
object_path = some/object.pgm
peak_fraction = 0.1
background_fraction = 0.3
mask_border = 1
background_rect = 1 2 3 4
gallery_indices = 0 85 255
output_dir = runs
"""


def _run_bytes(cfg):
    """What a run of ``cfg`` holds once its scene is built
    (:func:`ghostsim.analysis._run_bytes`)."""
    parent = cli_module._parent_basis(cfg)
    sets = (parent, modify_basis(parent, cfg.kernel))
    return analysis_module._run_bytes(cfg.grid_side, cli_module.build_scene(cfg), sets,
                                      cfg.repeats_per_pattern)


def _check_plans(text):
    """The memory checks a sweep makes of a config before its plans: the
    lower bound before the scene, then the census of both sets."""
    cfg = parse_config(text)
    obj, parent = cli_module._checked_scene(cfg)
    analysis_module._require_memory(cfg.grid_side, obj,
                                    (parent, modify_basis(parent, cfg.kernel)),
                                    cfg.repeats_per_pattern)


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL)
    return path


class TestValidate:
    def test_echoes_resolved_config(self, small_config, capsys):
        assert main(["validate", "--config", str(small_config)]) == 0
        echoed = capsys.readouterr().out
        cfg = parse_config(echoed)
        assert cfg.grid_side == 16
        assert cfg.seed == 123

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("sigma4 = 1\n")
        assert main(["validate", "--config", str(bad)]) == 1
        assert "sigma4" in capsys.readouterr().err

    def test_missing_config_file_is_config_error(self, tmp_path):
        assert main(["validate", "--config", str(tmp_path / "nope.cfg")]) == 1

    def test_all_zero_kernel_fails_both_verbs_as_config(self, tmp_path, monkeypatch,
                                                        capsys):
        # a zero kernel blanks every filtered image; it is refused as it is
        # parsed, before any plan, so run writes nothing
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "zero.cfg"
        path.write_text("grid_side = 16\nkernel = 0 0 0; 0 0 0; 0 0 0\n")
        for verb in ("validate", "run"):
            assert main([verb, "--config", str(path), "--out", "out"]) == 1
        errors = capsys.readouterr().err.splitlines()
        assert errors == ["config error: line 2: kernel: taps must not all be zero"] * 2
        assert not (tmp_path / "out").exists()

    def test_drift_amplitude_of_one_fails_both_verbs_as_config(self, tmp_path, monkeypatch,
                                                               capsys):
        # the noise model owns the bound, and config builds one per noise key
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "drift.cfg"
        path.write_text("grid_side = 16\nlamp_drift_amplitude = 1\n")
        for verb in ("validate", "run"):
            assert main([verb, "--config", str(path), "--out", "out"]) == 1
        errors = capsys.readouterr().err.splitlines()
        assert errors == ["config error: line 2: lamp_drift_amplitude must be < 1 so the "
                          "lamp intensity stays positive, got 1.0"] * 2
        assert not (tmp_path / "out").exists()

    def test_lamp_overflow_fails_both_verbs_as_config(self, tmp_path, monkeypatch, capsys):
        # each value parses on its own, but their product overflows: the lamp
        # scale of every configured time is checked before the scene, so run
        # fails as validate does and writes nothing
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "overflow.cfg"
        path.write_text("grid_side = 16\nbar_groups = 2\nintegration_times_ms = 5 1e300\n"
                        "lamp_base = 1e10\n")
        for verb in ("validate", "run"):
            assert main([verb, "--config", str(path), "--out", "out"]) == 1
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 2 and errors[0] == errors[1]
        assert "integration_time_ms * lamp_base = inf under- or overflows" in errors[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config,code", [
        ("grid_side = 64\nbackground_rect = 0 0 64 64\n", 2),
        ("object_path = missing.pgm\n", 2),
        ("grid_side = 16\nobject_path = binary.pgm\n", 2),
        ("grid_side = 16\nbar_groups = 2\nbackground_rect = 5 5 1 1\n", 2),
        ("grid_side = 16\nbar_groups = 2\ndetector_sigma = 0\nnormalization_sigma = 0\n", 2),
        ("grid_side = 16\nbar_groups = 2\ndetector_sigma = 0\nnormalization_sigma = 0\n"
         "background_measure = 0\nbackground_norm = 0\nlamp_drift_amplitude = 0\n", 2),
        ("grid_side = 16\nbar_groups = 2\ndetector_sigma = 0\n", 2),
        ("grid_side = 16\nbar_groups = 2\ndetector_sigma = 1e-20\n", 0),
        ("grid_side = 16\nbar_groups = 2\nkernel = 0 -0.5 0; -0.5 0 0.5; 0 0.5 0\n"
         "detector_sigma = 1e-20\nnormalization_sigma = 0.25\n", 0),
    ], ids=["overlapping-masks", "missing-object", "binary-object",
            "one-pixel-background", "noiseless", "noiseless-no-background",
            "no-bucket-noise", "sub-ulp-bucket-noise", "sub-ulp-float-kernel"])
    def test_fails_as_run_does(self, config, code, tmp_path, monkeypatch, capsys):
        # validate runs the sweep at one repeat, so a config that run
        # rejects is rejected by validate too, with exit 2 and the same line.
        # Without bucket read noise the bar target's flattest region
        # reconstructs to exact zeros: the cells fail as the run's do.  Bucket
        # noise far below an ulp of every read (60 + 1e-20 z rounds to 60)
        # survives in a cell: the stencil's levels sum to 0, so the
        # background adds nothing to a basis-route sum and the noise
        # sigma * q * zeta is all that is left where the image is flat.  Both
        # verbs then complete
        monkeypatch.chdir(tmp_path)
        (tmp_path / "binary.pgm").write_bytes(b"P5\n16 16\n255\n" + bytes(range(256)))
        path = tmp_path / "bad.cfg"
        path.write_text(config)
        for verb in ("validate", "run"):
            assert main([verb, "--config", str(path), "--out", "out"]) == code
        errors = capsys.readouterr().err.splitlines()
        if code:
            assert len(errors) == 2 and errors[0] == errors[1]
            assert not (tmp_path / "out").exists()
        else:
            assert errors == []
            assert (tmp_path / "out" / "snr_sweep.csv").exists()

    def test_noiseless_object_with_texture_validates(self, tmp_path, monkeypatch, capsys):
        # a noiseless config is not refused as such: a random-valued object
        # has no flat region, so it validates and runs
        monkeypatch.chdir(tmp_path)
        gray = np.random.default_rng(11).integers(0, 256, size=(16, 16))
        lines = [" ".join(map(str, row)) for row in gray.tolist()]
        (tmp_path / "obj.pgm").write_text("P2\n16 16\n255\n" + "\n".join(lines))
        path = tmp_path / "textured.cfg"
        path.write_text("grid_side = 16\nobject_path = obj.pgm\ndetector_sigma = 0\n"
                        "normalization_sigma = 0\n")
        assert main(["validate", "--config", str(path)]) == 0
        assert main(["run", "--config", str(path), "--out", "out"]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "out" / "snr_sweep.csv").is_file()

    def test_grid_too_large_for_memory_fails_early(self, tmp_path, monkeypatch, capsys):
        # side 1024 has at least one frame a pattern on each route: 96 MiB
        # of plan sums and scene, then the larger of 88 MiB to plan a route
        # (72 MiB of its frames and a 16 MiB accumulator for one limb and
        # one level) and 120 MiB for one cell, past a 64 MiB machine; all
        # three verbs refuse it on that bound, before any basis is built
        def refuse(*args, **kwargs):
            raise AssertionError("built a basis")

        for name in ("canonical_basis", "hadamard_basis"):
            monkeypatch.setattr(cli_module, name, refuse)
        monkeypatch.setattr(analysis_module, "_physical_memory", lambda: 64 * 2**20)
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "big.cfg"
        path.write_text("grid_side = 1024\n")
        for verb in ("validate", "run", "gallery"):
            assert main([verb, "--config", str(path), "--out", "out"]) == 1
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 3 and len(set(errors)) == 1
        assert errors[0].startswith("config error: grid_side 1024 needs 216 MiB: "
                                    "96 MiB for its measurement plans (2,097,152 "
                                    "frames) and scene")
        assert ("the larger of 88 MiB to plan a route, a 16 MiB level accumulator "
                "among it, and 120 MiB for one cell") in errors[0]
        assert "64 MiB of physical memory" in errors[0]
        assert not (tmp_path / "out").exists()

    def test_memory_check_comes_before_the_scene(self, tmp_path, monkeypatch, capsys):
        # side 40000 has a 12 GiB scene: run and validate refuse its plans
        # on the one-limb bound before the scene is built
        def refuse(config):
            raise AssertionError("built the scene")

        monkeypatch.setattr(cli_module, "build_scene", refuse)
        monkeypatch.setattr(analysis_module, "_physical_memory", lambda: 2**30)
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "huge.cfg"
        path.write_text("grid_side = 40000\n")
        for verb in ("validate", "run"):
            assert main([verb, "--config", str(path), "--out", "out"]) == 1
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 2 and errors[0] == errors[1]
        assert errors[0].startswith("config error: grid_side 40000 needs")
        assert "1,024 MiB of physical memory" in errors[0]
        assert not (tmp_path / "out").exists()

    def test_memory_check_counts_the_object_limbs(self, tmp_path, monkeypatch, capsys,
                                                  edge_kernel):
        # at side 64 the bar target is one limb: 0.38 MiB of canonical plan
        # sums and scene, 0.66 MiB to plan a route (a 0.09 MiB accumulator
        # among it) and 0.47 MiB for one cell.  Values spread
        # down to 1e-300 are some 26 limbs of 41 bits, a 2.4 MiB
        # accumulator, past a 2 MiB machine
        grid = GridSpec(64)
        tiny = np.random.default_rng(5).uniform(0.0, 1.0, size=(64, 64))
        tiny[::10] *= 1e-300
        assert 24 <= bench_module._limb_layout(tiny)[1] <= 31
        monkeypatch.setattr(analysis_module, "_physical_memory", lambda: 2 * 2**20)
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "side64.cfg"
        path.write_text("grid_side = 64\n")
        assert main(["validate", "--config", str(path)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli_module, "build_scene", lambda config: tiny)
        for verb in ("validate", "run"):
            assert main([verb, "--config", str(path), "--out", "out"]) == 1
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 2 and errors[0] == errors[1]
        assert "level accumulator" in errors[0] and "2 MiB of physical memory" in errors[0]
        assert not (tmp_path / "out").exists()
        parent = cli_module._parent_basis(parse_config("grid_side = 64\n"))
        analysis_module._require_memory(64, synth_bar_target(grid),
                                        (parent, modify_basis(parent, edge_kernel)), 2)

    def test_memory_check_counts_the_kernel_levels(self, monkeypatch):
        # once the scene is built the frames are the census of both sets:
        # three taps give a canonical pattern 3 levels and a Hadamard one
        # 5.9 on average, so at side 128 the run holds 5.4 MiB against
        # 9.3 MiB: plans and scene, and planning the larger route
        monkeypatch.setattr(analysis_module, "_physical_memory", lambda: 8 * 2**20)
        text = "grid_side = 128\nkernel = 0.5 1 0.25\n"
        _check_plans(text)
        with pytest.raises(ConfigError, match=r"needs 9 MiB: .*\(129,534 frames"):
            _check_plans(text + "basis = hadamard\n")
        # 25 taps of distinct powers of two give a Hadamard pattern 53
        # levels on average, where its windows of 5 +/-1 entries allow 2**9
        wide = "; ".join(" ".join(str(2 ** (5 * i + j)) for j in range(5))
                         for i in range(5))
        with pytest.raises(ConfigError, match=r"\(225,990 frames"):
            _check_plans(f"grid_side = 64\nbasis = hadamard\nkernel = {wide}\n")

    def test_many_tap_hadamard_kernel_fits(self, tmp_path, monkeypatch, capsys):
        # a 5x5 kernel gives a Hadamard pattern 9.4 levels on average, so
        # side 128 needs 14 MiB (186,398 frames), not the hundreds of MiB of 2**9
        # levels a pattern; side 256 stays past a 32 MiB machine
        monkeypatch.setattr(analysis_module, "_physical_memory", lambda: 32 * 2**20)
        text = ("basis = hadamard\n"
                "kernel = 1 2 3 2 1; 2 4 6 4 2; 3 6 9 6 3; 2 4 6 4 2; 1 2 3 2 1\n")
        path = tmp_path / "binomial128.cfg"
        path.write_text("grid_side = 128\n" + text)
        assert main(["validate", "--config", str(path)]) == 0
        assert "grid_side = 128" in capsys.readouterr().out
        with pytest.raises(ConfigError, match=r"^grid_side 256 needs 59 MiB: .*"
                                              r"\(757,790 frames"):
            _check_plans("grid_side = 256\n" + text)

    def test_hadamard_run_fits_its_exact_count(self, tmp_path, monkeypatch, capsys):
        # side-128 Hadamard edge-eq3 projects 97,275 frames, 7 MiB to plan
        # and run: it fits a 12 MiB machine, which a bound of 16 levels a
        # pattern (294,912 frames) refused
        monkeypatch.setattr(analysis_module, "_physical_memory", lambda: 12 * 2**20)
        text = "grid_side = 128\nbasis = hadamard\n"
        assert _run_bytes(parse_config(text))[0] == 97_275
        path = tmp_path / "hadamard128.cfg"
        path.write_text(text)
        assert main(["validate", "--config", str(path)]) == 0
        assert "grid_side = 128" in capsys.readouterr().out

    def test_side_256_fits(self, tmp_path, monkeypatch, capsys):
        # the plans of a side-256 run take a few MiB: no stack is built
        monkeypatch.setattr(analysis_module, "_physical_memory", lambda: 256 * 2**20)
        for basis in ("canonical", "hadamard"):
            path = tmp_path / f"{basis}.cfg"
            path.write_text(f"grid_side = 256\nbasis = {basis}\n")
            assert main(["validate", "--config", str(path)]) == 0
        assert "grid_side = 256" in capsys.readouterr().out

    def test_memory_check_is_skipped_without_sysconf(self, monkeypatch):
        monkeypatch.delattr(os, "sysconf", raising=False)
        assert analysis_module._physical_memory() is None
        analysis_module._require_memory(1024)

    @pytest.mark.skipif(not hasattr(os, "sysconf"), reason="needs os.sysconf")
    def test_physical_memory_is_read_from_sysconf(self):
        memory = analysis_module._physical_memory()
        assert memory is None or memory > 0

    @pytest.mark.parametrize("config, expected", [
        (None, DEFAULT_ECHO),
        (CUSTOM, CUSTOM_ECHO),
    ], ids=["defaults", "custom"])
    def test_echo_bytes_are_pinned(self, config, expected, tmp_path, monkeypatch,
                                   capsys):
        # the echo is also the body of manifest.txt, so its bytes must not drift
        for name in [n for n in os.environ if n.startswith(ENV_PREFIX)]:
            monkeypatch.delenv(name)
        argv = ["validate"]
        if config is not None:
            path = tmp_path / "pinned.cfg"
            path.write_text(config)
            argv += ["--config", str(path)]
            # validate loads the object it names; its edges lie far from the
            # configured background rectangle
            monkeypatch.chdir(tmp_path)
            (tmp_path / "some").mkdir()
            obj = np.zeros((16, 16))
            obj[8:14, 8:14] = 1.0
            write_pgm(tmp_path / "some" / "object.pgm", obj)
        assert main(argv) == 0
        assert capsys.readouterr().out == expected


@pytest.mark.parametrize("verb", ["validate", "run"])
@pytest.mark.parametrize("basis", ["canonical", "hadamard"])
def test_each_verb_builds_each_set_and_its_census_once(basis, verb, tmp_path,
                                                        monkeypatch):
    # the parent and its filter-modified set: each makes its window form
    # once, and its census is taken once, for the memory check and the plan
    forms, censuses = [], []
    build, census = bases_module._window_form, bases_module._WindowForm.census

    def form_spy(factor, kernel):
        forms.append(kernel)
        return build(factor, kernel)

    def census_spy(form):
        censuses.append(form)
        return census.func(form)

    counted = functools.cached_property(census_spy)
    counted.__set_name__(bases_module._WindowForm, "census")
    monkeypatch.setattr(bases_module, "_window_form", form_spy)
    monkeypatch.setattr(bases_module._WindowForm, "census", counted)
    monkeypatch.setattr(analysis_module, "_physical_memory", lambda: 2**40)
    text, path = SMALL + f"basis = {basis}\n", tmp_path / "small.cfg"
    path.write_text(text)
    if verb == "validate":
        assert main(["validate", "--config", str(path)]) == 0
    else:
        run_experiment(parse_config(text), tmp_path / "out")
    assert forms == [None, parse_config(text).kernel]
    assert len(censuses) == len({id(form) for form in censuses}) == 2


def _verb(argv) -> tuple[int, str]:
    """Exit code and standard error of ``main(argv)``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


@st.composite
def small_configs(draw):
    """Configs of sides 16 and 32 whose runs take tens of ms: both parents,
    both presets and a float kernel, read noise and backgrounds that may be
    0, bucket noise that may lie far below the reads' rounding, a lamp
    drift and base up to and past their bounds, and a background rectangle
    that may overlap the peak.  The bucket noise and its background are one
    choice, a third of them sub-ulp noise beside a background, so that
    pair is drawn often."""
    side = draw(st.sampled_from([16, 32]))
    kernel = draw(st.sampled_from(["edge-eq3", "identity",
                                   "0 -0.5 0; -0.5 0 0.5; 0 0.5 0"]))
    lines = [f"grid_side = {side}", "bar_groups = 2",
             "basis = " + draw(st.sampled_from(["canonical", "hadamard"])),
             f"kernel = {kernel}", "integration_times_ms = 5 20",
             f"repeats = {draw(st.integers(1, 2))}",
             f"repeats_per_pattern = {draw(st.integers(1, 3))}",
             f"seed = {draw(st.integers(0, 2**64 - 1))}",
             # a drift of 1 is refused as parsed; lamp_base 1e307 overflows at 20 ms
             f"lamp_drift_amplitude = {draw(st.sampled_from([0.0, 0.05, 0.999, 1.0]))}",
             f"lamp_base = {draw(st.sampled_from([1.0, 1e307]))}"]
    sigma, background = draw(st.sampled_from([(0.0, 0.0), (0.0, 60.0), (1e-20, 0.0),
                                              (1e-20, 4.0), (1e-20, 60.0), (0.25, 4.0),
                                              (1.5, 0.0), (1.5, 60.0), (0.25, 60.0)]))
    lines.append(f"detector_sigma = {sigma}")
    lines.append(f"background_measure = {background}")
    lines.append(f"normalization_sigma = {draw(st.sampled_from([0.0, 0.25, 1.5]))}")
    lines.append(f"background_norm = {draw(st.sampled_from([0.0, 4.0, 60.0]))}")
    if draw(st.booleans()):
        h, w = (draw(st.sampled_from([1, 2, side // 4, side // 2])) for _ in "hw")
        r0, c0 = draw(st.integers(0, side - h)), draw(st.integers(0, side - w))
        lines.append(f"background_rect = {r0} {c0} {h} {w}")
    return "\n".join(lines) + "\n"


@settings(max_examples=50, deadline=None)
@given(text=small_configs())
@example(text="grid_side = 16\nbar_groups = 2\nkernel = 0 -0.5 0; -0.5 0 0.5; 0 0.5 0\n"
              "detector_sigma = 1e-20\nnormalization_sigma = 0.25\n")
def test_validate_passes_exactly_the_configs_run_completes(text):
    # validate scores the cells, so it fails exactly where run does; the
    # example, bucket noise far below an ulp of every read (1e-20) with the
    # float kernel, once passed validate and failed run, and now both
    # complete (TestValidate::test_fails_as_run_does pins that)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "small.cfg"
        path.write_text(text)
        validate = _verb(["validate", "--config", str(path)])
        run = _verb(["run", "--config", str(path), "--out", str(Path(tmp) / "out")])
    assert (validate[0] == 0) == (run[0] == 0)
    if run[0]:
        assert validate == run


class TestRun:
    def test_outputs(self, small_config, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(small_config),
                     "--out", str(out)]) == 0
        images = sorted(p.name for p in out.glob("recon_*.pgm"))
        assert len(images) == 8  # 2 methods x 2 times x 2 repeats
        assert "recon_basis-processed_t5ms_rep0.pgm" in images
        assert "recon_post-processed_t20ms_rep1.pgm" in images
        for name in images:
            assert (out / name).with_suffix(".meta").exists()
        assert (out / "snr_sweep.csv").exists()
        assert (out / "snr_summary.csv").exists()
        sweep = (out / "snr_sweep.csv").read_text().splitlines()
        assert sweep[0] == "method,integration_time_ms,repeat,snr"
        assert len(sweep) == 1 + 8
        assert not list(out.glob("*tmp*"))

    def test_returns_every_file_written(self, small_config, tmp_path):
        # and leaves no staging directory, beside an older file it keeps
        out = tmp_path / "out"
        out.mkdir()
        (out / "unrelated.txt").write_text("keep me")
        paths = run_experiment(parse_config(small_config.read_text()), out)
        assert len(paths) == len(set(paths)) == 2 * 8 + 3
        assert set(out.iterdir()) == {*paths, out / "unrelated.txt"}
        assert all(path.is_file() for path in out.iterdir())
        assert (out / "unrelated.txt").read_text() == "keep me"

    def test_manifest_round_trip(self, small_config, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(small_config),
                     "--out", str(out), "--seed", "99"]) == 0
        manifest = (out / "manifest.txt").read_text()
        cfg = parse_config(manifest)
        assert cfg.seed == 99
        assert cfg.grid_side == 16
        assert cfg.output_dir == str(out)
        assert parse_config(cfg.to_text()) == cfg

    def test_rerun_is_byte_identical(self, small_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(small_config), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(small_config), "--out", str(out2)]) == 0
        for name in ("snr_sweep.csv", "snr_summary.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for path in out1.glob("recon_*.pgm"):
            assert path.read_bytes() == (out2 / path.name).read_bytes()

    def test_unwritable_output_dir(self, small_config, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("i am a file")
        out = blocker / "sub"
        assert main(["run", "--config", str(small_config), "--out", str(out)]) == 2
        assert not blocker.is_dir()

    def test_seed_change_changes_noise(self, small_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(small_config), "--out", str(out1)])
        main(["run", "--config", str(small_config), "--out", str(out2),
              "--seed", "124"])
        assert (out1 / "snr_sweep.csv").read_text() != (out2 / "snr_sweep.csv").read_text()

    @pytest.mark.parametrize("existing", [True, False], ids=["filled-out", "no-out"])
    def test_failed_sweep_leaves_out_untouched(self, existing, small_config, tmp_path,
                                               monkeypatch):
        # the last cell raises after every other graymap is written: the
        # older files stay, no new file appears and no staging is left
        out = tmp_path / "deep" / "out"
        if existing:
            out.mkdir(parents=True)
            (out / "unrelated.txt").write_text("keep me")
            (out / "snr_sweep.csv").write_text("method,integration_time_ms,repeat,snr\n")

        def files():
            return {p.relative_to(tmp_path): p.read_bytes()
                    for p in tmp_path.rglob("*") if p.is_file()}

        before = files()
        dirs = sorted(p for p in tmp_path.rglob("*") if p.is_dir())
        cfg = parse_config(small_config.read_text())
        cells = len(cfg.integration_times_ms) * cfg.repeats
        calls, image = [], analysis_module.basis_processed_image

        def last_cell_fails(*args):
            calls.append(args)
            if len(calls) == cells:
                raise RuntimeError("injected failure in the last cell")
            return image(*args)

        monkeypatch.setattr(analysis_module, "basis_processed_image", last_cell_fails)
        with pytest.raises(RuntimeError, match="injected"):
            run_experiment(cfg, out)
        assert len(calls) == cells
        assert files() == before
        assert sorted(p for p in tmp_path.rglob("*") if p.is_dir()) == dirs


    def test_rerun_removes_the_images_it_does_not_write(self, small_config, tmp_path,
                                                         monkeypatch):
        # a rerun with one time and one repeat leaves only its own two
        # images and sidecars; a failed one deletes nothing
        out = tmp_path / "out"
        run_experiment(parse_config(small_config.read_text()), out)
        (out / "unrelated.txt").write_text("keep me")
        (out / "recon_notes.txt").write_text("keep me too")
        fewer = parse_config(SMALL.replace("5 20", "20").replace("repeats = 2", "repeats = 1"))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        calls, write = [], cli_module.write_pgm

        def last_sink_fails(path, image):
            calls.append(path)
            if len(calls) == 2:  # 2 methods x 1 time x 1 repeat
                raise RuntimeError("injected failure in the last cell's sink")
            return write(path, image)

        with monkeypatch.context() as patch:
            patch.setattr(cli_module, "write_pgm", last_sink_fails)
            with pytest.raises(RuntimeError, match="injected"):
                run_experiment(fewer, out)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        paths = run_experiment(fewer, out)
        assert sorted(p.name for p in out.glob("recon_*")) == sorted([
            "recon_basis-processed_t20ms_rep0.meta", "recon_basis-processed_t20ms_rep0.pgm",
            "recon_notes.txt",
            "recon_post-processed_t20ms_rep0.meta", "recon_post-processed_t20ms_rep0.pgm"])
        assert set(out.iterdir()) == {*paths, out / "unrelated.txt", out / "recon_notes.txt"}


def _traced_peak(config, out) -> int:
    """Bytes that ``run_experiment`` allocates at its peak, under tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run_experiment(config, out)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestRunMemory:
    """The memory check bounds what a run holds, and a run holds one image
    however many cells it has.  (``numpy.random``, which a first run
    imports, is already loaded: the test session's ``rng`` fixture uses it.)"""

    @pytest.mark.parametrize("scene", ["bar-target", "gray-255"])
    @pytest.mark.parametrize("basis", ["canonical", "hadamard"])
    def test_estimate_bounds_the_peak(self, basis, scene, tmp_path):
        # the peak is one cell's: two cells show it
        text = (f"grid_side = 128\nbasis = {basis}\n"
                "integration_times_ms = 100\nrepeats = 1\n")
        if scene == "gray-255":
            # gray / 255 is not dyadic: two limbs
            gray = np.random.default_rng(3).integers(0, 256, size=(128, 128))
            lines = [" ".join(map(str, row)) for row in gray.tolist()]
            (tmp_path / "obj.pgm").write_text("P2\n128 128\n255\n" + "\n".join(lines))
            text += f"object_path = {tmp_path / 'obj.pgm'}\n"
        cfg = parse_config(text)
        _, held, planning, _, cell = _run_bytes(cfg)
        assert _traced_peak(cfg, tmp_path / "out") <= held + max(planning, cell)

    def test_peak_does_not_grow_with_the_cells(self, tmp_path):
        # 6 cells against 48: at most two images apart, not 42
        peaks = [_traced_peak(parse_config(f"grid_side = 64\nrepeats = {repeats}\n"),
                              tmp_path / f"r{repeats}") for repeats in (1, 8)]
        assert abs(peaks[1] - peaks[0]) < 2 * 64 * 64 * 8


class TestNoStackOnTheRunPath:
    """A run on either parent makes no pattern at all: the split and the
    overlaps of every set come from its window form, on any object."""

    @staticmethod
    def config(basis, scene, tmp_path):
        text = f"grid_side = 32\nbar_groups = 2\nbasis = {basis}\n"
        if scene == "file-object":
            # gray / 65535 is not dyadic: two limbs
            gray = np.random.default_rng(9).integers(0, 65536, size=(32, 32))
            lines = [" ".join(map(str, row)) for row in gray.tolist()]
            (tmp_path / "obj.pgm").write_text("P2\n32 32\n65535\n" + "\n".join(lines))
            text += f"object_path = {tmp_path / 'obj.pgm'}\n"
        return parse_config(text)

    @pytest.mark.parametrize("scene", ["bar-target", "file-object"])
    @pytest.mark.parametrize("basis", ["canonical", "hadamard"])
    def test_run_never_builds_a_whole_stack(self, basis, scene, tmp_path, monkeypatch):
        def refuse(self, *args):
            raise AssertionError("made patterns for a run")

        monkeypatch.setattr(PatternBasis, "_rows", refuse)
        monkeypatch.setattr(PatternBasis, "stack", property(refuse))
        run_experiment(self.config(basis, scene, tmp_path), tmp_path / "out")

    @pytest.mark.parametrize("scene", ["bar-target", "file-object"])
    @pytest.mark.parametrize("basis", ["canonical", "hadamard"])
    def test_run_makes_no_object_per_pattern(self, basis, scene, tmp_path, monkeypatch):
        # the splits stay flat arrays from the factor to the plans
        made, init = [], SubPatternSet.__init__

        def spy(self, *args):
            made.append(args)
            init(self, *args)

        monkeypatch.setattr(SubPatternSet, "__init__", spy)
        run_experiment(self.config(basis, scene, tmp_path), tmp_path / "out")
        assert made == []
        # reading an item of a split makes one
        assert decompose_basis(hadamard_basis(GridSpec(2)))[-1].weights == (1.0, -1.0)
        assert made == [(3, (1.0, -1.0))]


class TestObjectFile:
    def test_transmission_is_gray_over_maxval(self, tmp_path):
        path = tmp_path / "object.pgm"
        path.write_text("P2\n4 4\n255\n"
                        "0 255 17 200\n"
                        "255 0 1 254\n"
                        "128 64 0 255\n"
                        "3 99 250 0\n")
        gray = np.array([[0, 255, 17, 200], [255, 0, 1, 254],
                         [128, 64, 0, 255], [3, 99, 250, 0]])
        cfg = parse_config(f"grid_side = 4\nobject_path = {path}\n")
        obj = cli_module.build_scene(cfg)
        assert np.array_equal(obj, gray / 255)

    def test_non_square_object_is_refused(self, tmp_path, capsys):
        path = tmp_path / "object.pgm"
        path.write_text("P2\n4 3\n255\n0 255 0 255\n255 0 255 0\n0 255 0 255\n")
        cfg = tmp_path / "obj.cfg"
        cfg.write_text(f"grid_side = 4\nobject_path = {path}\n")
        with pytest.raises(DimensionError, match="must be square"):
            cli_module.build_scene(parse_config(cfg.read_text()))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "must be square" in capsys.readouterr().err
        assert not out.exists()


class TestGallery:
    def test_includes_pattern_85_at_16x16(self, tmp_path):
        cfg = tmp_path / "g.cfg"
        cfg.write_text("grid_side = 16\n")
        out = tmp_path / "gallery"
        assert main(["gallery", "--config", str(cfg), "--out", str(out)]) == 0
        original = out / "pattern_original_00085.pgm"
        modified = out / "pattern_modified_00085.pgm"
        assert original.exists() and modified.exists()
        gray, maxval = read_pgm(original)
        # canonical pattern: one-hot
        assert (gray == maxval).sum() == 1
        assert (gray == 0).sum() == 16 * 16 - 1
        values = read_pgm_values(modified)
        # three levels, recovered to within one 16-bit quantization step
        assert sorted(set(np.round(values, 4).ravel().tolist())) == [-1.0, 0.0, 1.0]

    def test_returns_every_file_written(self, tmp_path):
        out = tmp_path / "gallery"
        paths = emit_pattern_gallery(parse_config("grid_side = 16\n"), out)
        assert len(paths) == len(set(paths)) == 4 * 2 * 2
        assert set(paths) == set(out.iterdir())

    def test_identity_kernel_gallery_is_unchanged(self, tmp_path):
        cfg = tmp_path / "g.cfg"
        cfg.write_text("grid_side = 16\nkernel = identity\n")
        out = tmp_path / "gallery"
        assert main(["gallery", "--config", str(cfg), "--out", str(out)]) == 0
        for original in out.glob("pattern_original_*.pgm"):
            modified = out / original.name.replace("original", "modified")
            assert original.read_bytes() == modified.read_bytes()

    def test_modified_patterns_match_the_modified_basis(self, tmp_path):
        cfg = tmp_path / "g.cfg"
        cfg.write_text("grid_side = 16\nbasis = hadamard\n")
        out = tmp_path / "gallery"
        assert main(["gallery", "--config", str(cfg), "--out", str(out)]) == 0
        modified = modify_basis(hadamard_basis(GridSpec(16)),
                                parse_config(cfg.read_text()).kernel)
        written = sorted(out.glob("pattern_modified_*.pgm"))
        assert len(written) == 4
        for path in written:
            index = int(path.stem.rsplit("_", 1)[1])
            want = tmp_path / path.name
            write_pgm(want, modified.pattern(index))
            assert path.read_bytes() == want.read_bytes()


def test_console_script_installed():
    result = subprocess.run([sys.executable, "-m", "ghostsim.cli", "validate"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert "grid_side = 64" in result.stdout
