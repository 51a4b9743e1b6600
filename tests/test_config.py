"""Config parsing, validation, env overrides, and the manifest echo."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghostsim import ConfigError, load_config, parse_config
from ghostsim.config import ENV_PREFIX, ExperimentConfig


class TestParseConfig:
    def test_minimal_config_gets_defaults(self):
        cfg = parse_config("grid_side = 16\nkernel = edge-eq3\n")
        assert cfg.grid_side == 16
        assert cfg.basis == "canonical"
        assert cfg.integration_times_ms == (20.0, 100.0, 220.0)
        assert cfg.repeats == 3
        assert cfg.repeats_per_pattern == 2
        assert cfg.kernel.name == "edge-eq3"
        assert cfg.lamp_drift_period == 10.0 * 16 * 16

    def test_empty_text_is_all_defaults(self):
        cfg = parse_config("")
        assert cfg == parse_config("# comments and blank lines set nothing\n\n")
        assert cfg.grid_side == 64

    # threads: a key that older manifests still carry; it must fail loudly
    @pytest.mark.parametrize("key", ["sigma4", "threads"])
    def test_unknown_key_named_and_line_numbered(self, key):
        with pytest.raises(ConfigError) as err:
            parse_config(f"grid_side = 8\n{key} = 1\n")
        assert key in str(err.value)
        assert err.value.line == 2

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("seed = 1\nseed = 2\n")
        assert "duplicate" in str(err.value)

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError) as err:
            parse_config("grid_side 8\n")
        assert err.value.line == 1

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# a comment\n\nseed = 9  # trailing\n")
        assert cfg.seed == 9

    def test_inline_kernel_taps(self):
        cfg = parse_config("kernel = 0 -1 0; -1 0 1; 0 1 0\n")
        assert np.array_equal(cfg.kernel.taps,
                              [[0, -1, 0], [-1, 0, 1], [0, 1, 0]])

    def test_even_kernel_dimensions_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("kernel = 1 -1; -1 1\n")
        assert "kernel" in str(err.value)
        assert "odd" in str(err.value)

    @pytest.mark.parametrize("taps", ["0 0 0; 0 0 0; 0 0 0", "0", "-0.0 0.0 0"])
    def test_all_zero_kernel_rejected(self, taps):
        # every filtered image would be zero, so a run could score no SNR
        with pytest.raises(ConfigError) as err:
            parse_config(f"seed = 1\nkernel = {taps}\n")
        assert str(err.value) == "line 2: kernel: taps must not all be zero"
        assert parse_config("kernel = 0 0 0; 0 1e-300 0; 0 0 0\n").kernel.taps.any()

    def test_kernel_must_fit_grid(self):
        with pytest.raises(ConfigError):
            parse_config("grid_side = 1\nkernel = edge-eq3\n")

    @pytest.mark.parametrize("side", [1, 2])
    def test_side_too_small_for_default_kernel_charged_to_grid_side(self, side):
        with pytest.raises(ConfigError) as err:
            parse_config(f"seed = 5\ngrid_side = {side}\n")
        assert str(err.value).startswith("line 2: grid_side: ")
        assert err.value.line == 2

    def test_hadamard_needs_power_of_two(self):
        with pytest.raises(ConfigError) as err:
            parse_config("grid_side = 48\nbasis = hadamard\n")
        assert "power-of-two" in str(err.value)
        parse_config("grid_side = 32\nbasis = hadamard\n")

    def test_drift_amplitude_bound(self):
        with pytest.raises(ConfigError) as err:
            parse_config("lamp_drift_amplitude = 1.0\n")
        assert "lamp_drift_amplitude" in str(err.value)

    def test_times_must_be_positive(self):
        with pytest.raises(ConfigError):
            parse_config("integration_times_ms = 20 0 220\n")

    def test_repeated_time_rejected(self):
        # both cells of a repeated time would write the same image files
        with pytest.raises(ConfigError, match="integration_times_ms"):
            parse_config("integration_times_ms = 20 100 20\n")

    def test_times_with_the_same_file_name_rejected(self):
        # distinct values, both written as t20ms
        with pytest.raises(ConfigError, match="integration_times_ms"):
            parse_config("integration_times_ms = 20 20.0000001\n")
        assert parse_config("integration_times_ms = 20 20.0001\n").integration_times_ms \
            == (20.0, 20.0001)

    def test_background_rect_parse_and_bounds(self):
        cfg = parse_config("grid_side = 16\nbackground_rect = 2 11 12 3\n")
        assert cfg.background_rect == (2, 11, 12, 3)
        with pytest.raises(ConfigError):
            parse_config("grid_side = 16\nbackground_rect = 10 10 10 10\n")

    def test_seed_range(self):
        with pytest.raises(ConfigError):
            parse_config("seed = -1\n")
        with pytest.raises(ConfigError):
            parse_config(f"seed = {2**64}\n")


class TestEcho:
    def test_round_trip_defaults(self):
        cfg = parse_config("")
        assert parse_config(cfg.to_text()) == cfg

    def test_round_trip_custom(self):
        text = (
            "grid_side = 16\n"
            "basis = hadamard\n"
            "kernel = 0 -1 0; -1 0 1; 0 1 0\n"
            "lamp_base = 2.5\n"
            "integration_times_ms = 7.5 80\n"
            "background_rect = 1 2 3 4\n"
            "gallery_indices = 0 85 255\n"
            "object_path = some/object.pgm\n"
        )
        cfg = parse_config(text)
        assert parse_config(cfg.to_text()) == cfg

    def test_echo_parses_with_comments_prepended(self):
        cfg = parse_config("")
        manifest_like = "# version = 0.0.0\n" + cfg.to_text()
        assert parse_config(manifest_like) == cfg


class TestLoadConfig:
    def test_file_plus_env_plus_overrides(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("grid_side = 32\nseed = 5\nrepeats = 2\n")
        environ = {f"{ENV_PREFIX}SEED": "6", f"{ENV_PREFIX}REPEATS": "3",
                   "UNRELATED": "x"}
        cfg = load_config(path, environ=environ, overrides={"repeats": "4"})
        assert cfg.grid_side == 32   # from file
        assert cfg.seed == 6         # env beats file
        assert cfg.repeats == 4      # override beats env

    def test_unknown_env_key_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, environ={f"{ENV_PREFIX}SIGMA4": "1"})

    def test_env_values_are_validated(self):
        with pytest.raises(ConfigError):
            load_config(None, environ={f"{ENV_PREFIX}GRID_SIDE": "zero"})

    def test_env_side_too_small_for_default_kernel_charged_to_grid_side(self):
        with pytest.raises(ConfigError) as err:
            load_config(None, environ={f"{ENV_PREFIX}GRID_SIDE": "2"})
        assert str(err.value).startswith("grid_side: ")
        assert err.value.line is None

    def test_defaults_without_file(self):
        assert load_config(None, environ={}) == parse_config("")


@pytest.mark.parametrize("key, value", [
    ("detector_sigma", "nan"),
    ("lamp_drift_amplitude", "nan"),
    ("background_measure", "inf"),
    ("integration_times_ms", "20 inf"),
])
def test_non_finite_values_rejected(key, value):
    with pytest.raises(ConfigError) as err:
        parse_config(f"seed = 5\n{key} = {value}\n")
    assert str(err.value).startswith(f"line 2: {key}: ")
    assert err.value.line == 2


@pytest.mark.parametrize("source", [
    {"environ": {f"{ENV_PREFIX}OUTPUT_DIR": ""}},
    {"environ": {}, "overrides": {"output_dir": ""}},
])
def test_empty_values_rejected_from_every_source(source):
    with pytest.raises(ConfigError) as err:
        load_config(None, **source)
    assert str(err.value) == "output_dir: empty value"
    assert err.value.line is None


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_PATHS = st.from_regex(r"[A-Za-z0-9_./-]+", fullmatch=True)


def _positive(**kwargs):
    return st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, **kwargs)


@st.composite
def config_texts(draw):
    """Config text that sets every key to a random valid value."""
    side = draw(st.integers(min_value=3, max_value=40))
    pixels = side * side
    odd = st.sampled_from([k for k in (1, 3, 5) if k <= side])
    height, width = draw(odd), draw(odd)
    # an all-zero kernel is refused, so one tap at least is nonzero
    taps = draw(st.lists(_FLOATS, min_size=height * width, max_size=height * width)
                .filter(any))
    inline = "; ".join(" ".join(repr(t) for t in taps[r * width:(r + 1) * width])
                       for r in range(height))
    r0, c0 = draw(st.integers(0, side - 1)), draw(st.integers(0, side - 1))
    rect = (f"{r0} {c0} {draw(st.integers(1, side - r0))} "
            f"{draw(st.integers(1, side - c0))}")
    gallery = " ".join(str(g) for g in draw(
        st.lists(st.integers(0, pixels - 1), min_size=1, max_size=4)))
    times = " ".join(repr(t) for t in draw(st.lists(
        _positive(), min_size=1, max_size=4, unique_by=lambda t: f"{t:g}")))
    fraction = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    bases = ["canonical"] + (["hadamard"] if side & (side - 1) == 0 else [])
    values = {
        "grid_side": str(side),
        "basis": draw(st.sampled_from(bases)),
        "kernel": draw(st.sampled_from(["edge-eq3", "identity", inline])),
        "lamp_base": repr(draw(_positive())),
        "lamp_drift_amplitude": repr(draw(st.floats(0.0, 1.0, exclude_max=True))),
        "lamp_drift_period": draw(st.sampled_from(["auto", repr(draw(_positive()))])),
        "detector_sigma": repr(draw(st.floats(min_value=0.0, allow_infinity=False))),
        "normalization_sigma": repr(draw(st.floats(min_value=0.0, allow_infinity=False))),
        "background_measure": repr(draw(st.floats(min_value=0.0, allow_infinity=False))),
        "background_norm": repr(draw(st.floats(min_value=0.0, allow_infinity=False))),
        "seed": str(draw(st.integers(0, 2**64 - 1))),
        "integration_times_ms": times,
        "repeats": str(draw(st.integers(1, 9))),
        "repeats_per_pattern": str(draw(st.integers(1, 9))),
        "bar_groups": str(draw(st.integers(1, 9))),
        "object_path": draw(st.sampled_from(["synthetic", draw(_PATHS)])),
        "peak_fraction": repr(draw(fraction)),
        "background_fraction": repr(draw(fraction)),
        "mask_border": str(draw(st.integers(0, 9))),
        "background_rect": draw(st.sampled_from(["auto", rect])),
        "gallery_indices": draw(st.sampled_from(["auto", gallery])),
        "output_dir": draw(_PATHS),
    }
    assert set(values) == {f.name for f in dataclasses.fields(ExperimentConfig)}
    return "".join(f"{key} = {value}\n" for key, value in values.items())


@settings(max_examples=100, deadline=None)
@given(text=config_texts())
def test_echo_round_trips_random_valid_configs(text):
    cfg = parse_config(text)
    assert parse_config(cfg.to_text()) == cfg
