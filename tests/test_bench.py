"""Virtual bench: target synthesis, lamp model, measurement plans, the protocol."""

import math
import os
import platform
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ghostsim.bench as bench_module
from ghostsim import (
    CANONICAL,
    ConfigError,
    DimensionError,
    GridSpec,
    Kernel,
    MeasurementPlan,
    NoiseModel,
    PatternBasis,
    ProtocolError,
    canonical_basis,
    coefficients_from_draws,
    decompose_basis,
    edge_detect_kernel,
    hadamard_basis,
    lamp_intensity,
    modify_basis,
    plan_acquisition,
    projection_count,
    run_basis_protocol,
    sweep_cells,
    synth_bar_target,
)
from oracles import binary_decompose, frame_overlaps, part_overlaps, pattern_sums

QUIET = NoiseModel()  # all noise and backgrounds off, lamp base 1


class TestSynthBarTarget:
    def test_binary_values(self):
        target = synth_bar_target(GridSpec(64), 3)
        assert set(np.unique(target)) == {0.0, 1.0}

    def test_deterministic(self):
        a = synth_bar_target(GridSpec(64), 3)
        b = synth_bar_target(GridSpec(64), 3)
        assert np.array_equal(a, b)

    def test_non_degenerate(self):
        target = synth_bar_target(GridSpec(64), 3)
        filled = target.sum()
        assert 0 < filled < 64 * 64

    def test_border_margin_is_clear(self):
        target = synth_bar_target(GridSpec(64), 3)
        assert target[:8, :].sum() == 0
        assert target[-8:, :].sum() == 0
        assert target[:, :8].sum() == 0
        assert target[:, -8:].sum() == 0

    def test_grid_too_small(self):
        with pytest.raises(DimensionError):
            synth_bar_target(GridSpec(15), 1)
        with pytest.raises(DimensionError):
            synth_bar_target(GridSpec(16), 5)

    def test_small_grid_fits_two_groups(self):
        target = synth_bar_target(GridSpec(16), 2)
        assert set(np.unique(target)) == {0.0, 1.0}


class TestNoiseModel:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", [
        "lamp_base", "lamp_drift_amplitude", "lamp_drift_period", "detector_sigma",
        "normalization_sigma", "background_measure", "background_norm"])
    def test_non_finite_values_rejected(self, field, value):
        # NaN once passed every check but two, and inf every one
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            NoiseModel(**{field: value})

    @pytest.mark.parametrize("amplitude", [1.0, 2.0])
    def test_drift_amplitude_of_one_or_more_rejected(self, amplitude):
        # the drift 1 + a*sin(...) reaches 1 - a <= 0: refused as the model
        # is made, before any lamp is evaluated
        with pytest.raises(ConfigError, match="lamp_drift_amplitude must be < 1"):
            NoiseModel(lamp_drift_amplitude=amplitude)
        NoiseModel(lamp_drift_amplitude=math.nextafter(1.0, 0.0))


class TestLampIntensity:
    def test_no_drift_is_constant(self):
        noise = NoiseModel(lamp_base=2.0)
        values = {lamp_intensity(s, noise, 10.0) for s in range(50)}
        assert values == {20.0}

    def test_quarter_period_peak(self):
        noise = NoiseModel(lamp_base=1.0, lamp_drift_amplitude=0.25,
                           lamp_drift_period=8.0)
        assert lamp_intensity(2, noise, 2.0) == pytest.approx(2.0 * 1.25)

    def test_linear_in_integration_time(self):
        noise = NoiseModel(lamp_base=1.0, lamp_drift_amplitude=0.3,
                           lamp_drift_period=100.0)
        for step in (0, 7, 31):
            a1 = lamp_intensity(step, noise, 5.0)
            a2 = lamp_intensity(step, noise, 10.0)
            assert a2 == pytest.approx(2.0 * a1, rel=1e-12)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            lamp_intensity(-1, QUIET, 1.0)

    def test_nan_step_rejected(self):
        # NaN compares False both ways, so it is refused by name, not
        # blamed on the scale
        with pytest.raises(ValueError, match=r"step must be >= 0, got \[nan\]"):
            lamp_intensity(np.array([np.nan]), NoiseModel(), 1.0)

    def test_non_positive_intensity_rejected(self):
        # a drift deeper than the lamp cannot be made; a scale whose trough
        # 5e-324 * (1 - 0.5) rounds to 0 is refused at every step, its peak
        # too
        with pytest.raises(ConfigError, match="lamp_drift_amplitude must be < 1"):
            NoiseModel(lamp_drift_amplitude=2.0, lamp_drift_period=4.0)
        noise = NoiseModel(lamp_base=5e-324, lamp_drift_amplitude=0.5, lamp_drift_period=4.0)
        for step in (1, 3, np.arange(4)):
            with pytest.raises(ConfigError, match="non-positive"):
                lamp_intensity(step, noise, 1.0)

    @pytest.mark.parametrize("time_ms", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, time_ms):
        with pytest.raises(ConfigError, match="integration_time_ms must be finite"):
            lamp_intensity(0, QUIET, time_ms)

    def test_array_matches_scalar_steps(self):
        noise = NoiseModel(lamp_base=1.5, lamp_drift_amplitude=0.4,
                           lamp_drift_period=37.0)
        time_ms = 3.0
        steps = np.arange(100)
        expected = [lamp_intensity(int(s), noise, time_ms) for s in steps]
        assert lamp_intensity(steps, noise, time_ms).tolist() == expected


class TestLampInCells:
    """A sweep computes the drift profile once; each cell scales it."""

    @staticmethod
    def plan():
        obj = np.linspace(0.0, 1.0, 64).reshape(8, 8)
        return plan_acquisition(obj, canonical_basis(GridSpec(8)), 2)

    @settings(max_examples=60, deadline=None)
    @given(amplitude=st.floats(0.0, 0.9), period=st.floats(0.5, 1e5),
           times=st.lists(st.floats(1e-3, 1e4), min_size=2, max_size=3),
           lamp_base=st.floats(1e-3, 1e3), seed=st.integers(0, 2**64 - 1))
    def test_cells_match_the_formula_bit_for_bit(self, amplitude, period, times,
                                                lamp_base, seed):
        # cells of one sweep share the cached profile: the first computes
        # it; a cell draws 2N normals, the bucket sums' then the
        # normalization reads'
        plan = self.plan()
        noise = NoiseModel(lamp_base=lamp_base, lamp_drift_amplitude=amplitude,
                           lamp_drift_period=period, detector_sigma=0.3,
                           normalization_sigma=0.1, background_measure=0.2,
                           background_norm=0.4, seed=seed)
        m = plan.pattern_count
        for time_ms in times:
            draws = np.random.Generator(np.random.Philox(seed)).standard_normal(2 * m)
            bucket, norm = draws[:m], draws[m:]
            lamp = lamp_intensity(np.arange(plan.pattern_count), noise, time_ms)
            want = coefficients_from_draws(plan, lamp, noise, bucket, norm)
            assert run_basis_protocol(plan, noise, time_ms).tobytes() == want.tobytes()

    def test_drift_trough_rejected(self):
        # a drift deeper than the lamp cannot be made, and a scale whose
        # trough underflows is refused before the cell draws
        with pytest.raises(ConfigError, match="lamp_drift_amplitude must be < 1"):
            NoiseModel(lamp_drift_amplitude=2.0, lamp_drift_period=4.0)
        noise = NoiseModel(lamp_base=5e-324, lamp_drift_amplitude=0.5, lamp_drift_period=4.0)
        with pytest.raises(ConfigError, match="non-positive"):
            run_basis_protocol(self.plan(), noise, 1.0)

    def test_underflowing_scale_rejected(self):
        # 1e-200 * 1e-200 is 0 in float64, although each factor is positive,
        # and 1e200 * 1e200 is inf; the message names the scale, not the drift
        run_basis_protocol(self.plan(), QUIET, 1.0)  # the next cell reuses this profile
        for scale in (1e-200, 1e200):
            with pytest.raises(ConfigError, match="lamp_base = .* under- or overflows"):
                run_basis_protocol(self.plan(), NoiseModel(lamp_base=scale), scale)

    @pytest.mark.parametrize("time_ms", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, time_ms):
        # an infinite time once gave all-NaN coefficients and a numpy warning
        with pytest.raises(ConfigError, match="integration_time_ms must be finite"):
            run_basis_protocol(self.plan(), QUIET, time_ms)

    def test_sweeps_in_one_process_match_fresh_processes(self, tmp_path):
        # the profile is keyed by its amplitude: a second sweep with another
        # drift must not reuse the first one's
        code = ("import sys; from ghostsim.cli import run_experiment; "
                "from ghostsim.config import load_config; "
                "[run_experiment(load_config(None, environ={}, overrides={"
                "'grid_side': '16', 'bar_groups': '2', 'repeats': '1', "
                "'lamp_drift_period': '40', 'lamp_drift_amplitude': a}), "
                "sys.argv[1] + '/' + a) for a in sys.argv[2:]]")
        amplitudes = ["0.05", "0.5"]
        for where, runs in (("one", [amplitudes]),
                            ("fresh", [[a] for a in amplitudes])):
            for args in runs:
                result = subprocess.run([sys.executable, "-c", code,
                                         str(tmp_path / where), *args],
                                        capture_output=True, text=True)
                assert result.returncode == 0, result.stderr
        for a in amplitudes:
            one, fresh = tmp_path / "one" / a, tmp_path / "fresh" / a
            names = sorted(p.name for p in fresh.iterdir())
            assert sorted(p.name for p in one.iterdir()) == names
            assert len(names) == 15  # 6 graymaps, their sidecars and 3 files
            for name in names:
                assert (one / name).read_bytes() == (fresh / name).read_bytes(), (a, name)
        first = tmp_path / "one" / amplitudes[0] / "snr_sweep.csv"
        assert first.read_bytes() != (tmp_path / "one" / amplitudes[1] / "snr_sweep.csv").read_bytes()


@settings(max_examples=200, deadline=None)
@given(amplitude=st.floats(0.0, 1.0, exclude_max=True), period=st.floats(0.5, 1e5),
       lamp_base=st.floats(5e-324, sys.float_info.max),
       time_ms=st.floats(5e-324, sys.float_info.max), count=st.integers(1, 64))
@example(amplitude=0.5, period=4.0, lamp_base=5e-324, time_ms=1.0, count=4)
@example(amplitude=0.1, period=40.0, lamp_base=1e307, time_ms=17.0, count=64)
def test_lamp_scale_passes_only_where_every_step_is_finite_and_positive(
        amplitude, period, lamp_base, time_ms, count):
    # the one check reads the scale and the drift's ends 1 -/+ a, never a step
    noise = NoiseModel(lamp_base=lamp_base, lamp_drift_amplitude=amplitude,
                       lamp_drift_period=period)
    steps = np.arange(count)
    with np.errstate(over="ignore", under="ignore"):
        full = (time_ms * lamp_base) * (1.0 + amplitude * np.sin(2.0 * math.pi * steps / period))
    try:
        scale = bench_module._lamp_scale(noise, time_ms)
    except ConfigError:
        return  # refused at the scale, where the formula may still pass
    assert np.all((full > 0) & (full < math.inf))
    lamp = lamp_intensity(steps, noise, time_ms)
    profile = bench_module._drift_profile(count, amplitude, period)
    assert lamp.tobytes() == (scale * profile).tobytes() == full.tobytes()


@pytest.mark.parametrize("time_ms", [0.0, -1.0, float("nan")])
def test_non_positive_integration_time_rejected(time_ms, edge_kernel):
    obj = np.linspace(0.0, 1.0, 64).reshape(8, 8)
    plan = plan_acquisition(obj, canonical_basis(GridSpec(8)), 1)
    with pytest.raises(ConfigError, match="integration_time_ms"):
        run_basis_protocol(plan, QUIET, time_ms)
    with pytest.raises(ConfigError, match="integration_time_ms"):
        sweep_cells(obj, edge_kernel, QUIET, (1.0, time_ms), 1,
                    sink=lambda cell, image: None)


def plan_noise_samples(plan, noise, seeds, time_ms=1.0):
    """Coefficient vectors of one plan over many cell seeds, stacked."""
    return np.stack([
        run_basis_protocol(plan, replace(noise, seed=seed), time_ms)
        for seed in seeds
    ])


class TestBucketRead:
    """The bucket read of a part is ``a * <part, O> + background + noise``."""

    def test_noiseless_overlap(self):
        obj = np.full((2, 2), 0.5)
        assert frame_overlaps(obj, canonical_basis(GridSpec(2))).tolist() == [0.5] * 4
        assert plan_acquisition(obj, canonical_basis(GridSpec(2)), 1).s.tolist() == [0.5] * 4
        # the first Hadamard pattern lights every pixel
        assert frame_overlaps(obj, hadamard_basis(GridSpec(2)))[0] == 2.0
        assert plan_acquisition(obj, hadamard_basis(GridSpec(2)), 1).s[0] == 2.0

    def test_zero_pattern_gives_background(self):
        # one unit-weight frame a pattern, overlapping the object by 0
        noise = NoiseModel(background_measure=3.25)
        plan = MeasurementPlan(GridSpec(2), np.zeros(4), np.ones(4), np.ones(4), 4)
        coefficients = run_basis_protocol(plan, noise, 5.0)
        assert coefficients.tolist() == [3.25 / 5.0] * 4

    def test_grid_mismatch(self):
        with pytest.raises(DimensionError):
            plan_acquisition(np.zeros((3, 3)), hadamard_basis(GridSpec(2)), 1)
        with pytest.raises(DimensionError):
            plan_acquisition(np.zeros((3, 3)), canonical_basis(GridSpec(2)), 1)

    def test_noise_std(self):
        # sample std over ~1e5 single reads of fixed inputs matches detector_sigma
        noise = NoiseModel(detector_sigma=0.7)
        plan = plan_acquisition(np.full((32, 32), 0.25), canonical_basis(GridSpec(32)), 1)
        reads = plan_noise_samples(plan, noise, range(100)).ravel()
        assert reads.std() == pytest.approx(0.7, rel=0.02)
        assert reads.mean() == pytest.approx(0.25, abs=5 * 0.7 / np.sqrt(reads.size))


class TestNormalizationRead:
    """The normalization read of a pattern is ``a + background_norm + noise``."""

    def test_noiseless(self, rng):
        obj = rng.uniform(0.0, 1.0, size=(2, 2))
        plan = plan_acquisition(obj, canonical_basis(GridSpec(2)), 1)
        noise = NoiseModel(background_norm=0.5)
        got = run_basis_protocol(plan, noise, 4.0)
        assert got.tolist() == (4.0 * obj.ravel() / 4.5).tolist()
        got = run_basis_protocol(plan, NoiseModel(), 4.0)
        assert got.tolist() == (4.0 * obj.ravel() / 4.0).tolist()

    def test_sample_mean(self):
        # a clear object gives coefficient a / norm_read, so norm_read = 2 / coefficient
        noise = NoiseModel(normalization_sigma=0.3, background_norm=1.0)
        plan = plan_acquisition(np.ones((32, 32)), canonical_basis(GridSpec(32)), 1)
        reads = 2.0 / plan_noise_samples(plan, noise, range(100), 2.0).ravel()
        stderr = 0.3 / np.sqrt(reads.size)
        assert abs(reads.mean() - 3.0) < 3 * stderr


class TestReadStream:
    """All draws of a cell come from one stream keyed by the cell seed."""

    def test_keyed_streams_are_reproducible(self):
        plan = plan_acquisition(np.full((4, 4), 0.5), canonical_basis(GridSpec(4)), 2)
        noise = NoiseModel(detector_sigma=1.0, normalization_sigma=0.1)
        a, b, c = plan_noise_samples(plan, noise, (7, 7, 8))
        assert np.array_equal(a, b)
        assert not np.any(a == c)

    def test_negative_keys_rejected(self):
        with pytest.raises(ConfigError):
            NoiseModel(seed=-1)
        with pytest.raises(ConfigError):
            NoiseModel(seed=2**64)


class TestPostProtocol:
    """The repeat route: a binary basis, each pattern read several times."""

    def test_noiseless_coefficients(self, rng):
        grid = GridSpec(4)
        obj = rng.uniform(0.0, 1.0, size=(4, 4))
        plan = plan_acquisition(obj, canonical_basis(grid), 2)
        coeffs = run_basis_protocol(plan, QUIET, 1.0)
        assert np.array_equal(coeffs, obj.ravel())

    def test_read_counts(self):
        plan = plan_acquisition(np.zeros((8, 8)), canonical_basis(GridSpec(8)), 2)
        # one part a pattern, read twice at weight 1 / 2
        assert plan.bucket_reads == 2 * 64
        assert plan.pattern_count == 64  # one normalization read per pattern
        split = decompose_basis(canonical_basis(GridSpec(8)))
        assert split.owner.tolist() == list(range(64)) and np.all(split.level == 1.0)
        assert np.all(plan.u == 1.0)
        assert np.all(plan.q == 1.0 / math.sqrt(2.0))  # sqrt(2 * (1 / 2)**2)

    def test_deterministic_for_fixed_seed(self):
        grid = GridSpec(4)
        obj = np.full((4, 4), 0.5)
        noise = NoiseModel(detector_sigma=0.5, normalization_sigma=0.1, seed=11)
        time_ms = 2.0
        first = run_basis_protocol(plan_acquisition(obj, canonical_basis(grid), 2),
                                   noise, time_ms)
        second = run_basis_protocol(plan_acquisition(obj, canonical_basis(grid), 2),
                                    noise, time_ms)
        assert np.array_equal(first, second)

    @pytest.mark.parametrize("side", [1, 4])
    def test_the_set_not_its_label_sets_the_repeats(self, side):
        # a set of 0/1 patterns is read R times at weight level / R whatever
        # its label, and any other set once at its levels; at side 1 the
        # Hadamard factor H_1 = I_1 is the canonical set, so it is read R
        # times too
        grid, obj = GridSpec(side), np.linspace(0.0, 1.0, side * side).reshape(side, side)
        hadamard, canonical = hadamard_basis(grid), canonical_basis(grid)
        half = Kernel([[0.5]])
        for relabelled, like in (
                (PatternBasis(grid, CANONICAL, hadamard.factor), hadamard),
                (PatternBasis(grid, "custom", canonical.factor), canonical),
                (PatternBasis(grid, CANONICAL, canonical.factor, half),
                 modify_basis(canonical, half))):
            assert_same_plan(plan_acquisition(obj, relabelled, 2), plan_acquisition(obj, like, 2))
            assert projection_count(relabelled, 2) == projection_count(like, 2)
        frames = (2 if side == 1 else 1) * projection_count(hadamard, 1)
        assert plan_acquisition(obj, hadamard, 2).bucket_reads == frames
        assert projection_count(hadamard, 2) == frames

    @pytest.mark.parametrize("levels", [16, 1 << 16])
    def test_non_binary_pattern_in_any_block(self, levels):
        # only the patterns of the last factor row or column hold a -1: the
        # set, labelled canonical, is not a set of 0/1 patterns, so each part
        # is read once at its level, whatever the object's gray levels
        factor = np.eye(4, dtype=np.int8)
        factor[3, 3] = -1
        basis = PatternBasis(GridSpec(4), CANONICAL, factor)
        obj = np.random.default_rng(5).integers(0, levels, size=(4, 4)) / (levels - 1)
        plan = plan_acquisition(obj, basis, 2)
        split = decompose_basis(basis)
        assert split.owner.tolist() == list(range(16))
        lit = [basis.pattern(j)[np.nonzero(basis.pattern(j))] for j in range(16)]
        assert split.level.tolist() == [float(v[0]) for v in lit]
        assert split.level.tolist().count(-1.0) == 6  # (3, c) and (r, 3) for r, c < 3
        assert plan.u.tolist() == split.level.tolist() and np.all(plan.q == 1.0)
        assert projection_count(basis, 2) == plan.bucket_reads == 16
        assert np.array_equal(run_basis_protocol(plan, QUIET, 1.0),
                              [float(np.sum(basis.pattern(j) * obj)) for j in range(16)])

    def test_all_zero_pattern_keeps_its_repeats(self):
        # a factor row of zeros darkens every pattern of that row and
        # column; a dark pattern of a 0/1 set is still read R times, each
        # read at weight level / R = 0 and overlapping the object by 0
        factor = np.array([[1, 0], [0, 0]], dtype=np.int8)
        basis = PatternBasis(GridSpec(2), "custom", factor)
        obj = np.array([[0.25, 0.5], [0.75, 1.0]])
        plan = plan_acquisition(obj, basis, 2)
        split = decompose_basis(basis)
        assert split.owner.tolist() == [0, 1, 2, 3]
        assert split.level.tolist() == [1.0, 0.0, 0.0, 0.0]
        assert frame_overlaps(obj, basis).tolist() == [0.25, 0.0, 0.0, 0.0]
        assert projection_count(basis, 2) == plan.bucket_reads == 8
        assert plan.s.tolist() == [0.25, 0.0, 0.0, 0.0]
        assert plan.u.tolist() == [1.0, 0.0, 0.0, 0.0]
        assert plan.q.tolist() == [1.0 / math.sqrt(2.0), 0.0, 0.0, 0.0]
        assert run_basis_protocol(plan, QUIET, 1.0).tolist() == [0.25, 0.0, 0.0, 0.0]

    def test_rejects_out_of_range_object(self):
        with pytest.raises(ProtocolError):
            plan_acquisition(np.full((2, 2), 1.5), canonical_basis(GridSpec(2)), 2)
        with pytest.raises(ProtocolError):
            plan_acquisition(np.full((2, 2), -0.5), hadamard_basis(GridSpec(2)), 2)
        with pytest.raises(DimensionError):
            plan_acquisition(np.full((2, 2), np.nan), canonical_basis(GridSpec(2)), 2)

    def test_rejects_no_repeats(self):
        with pytest.raises(ValueError):
            plan_acquisition(np.zeros((2, 2)), canonical_basis(GridSpec(2)), 0)


class TestBasisProtocol:
    """The part route: binary parts of multi-level patterns, read once each."""

    def setup_plan(self, side, kernel, obj):
        modified = modify_basis(canonical_basis(GridSpec(side)), kernel)
        return plan_acquisition(obj, modified, 1)

    def test_noiseless_coefficients(self, rng, edge_kernel):
        obj = rng.uniform(0.0, 1.0, size=(4, 4))
        modified = modify_basis(canonical_basis(GridSpec(4)), edge_kernel)
        got = run_basis_protocol(plan_acquisition(obj, modified, 1), QUIET, 1.0)
        expected = np.array([
            float(np.sum(np.asarray(modified.pattern(j)) * obj))
            for j in range(len(modified))
        ])
        assert got == pytest.approx(expected, abs=1e-12)

    def test_read_parity_with_post_protocol(self, edge_kernel):
        obj = np.full((8, 8), 0.5)
        plan = self.setup_plan(8, edge_kernel, obj)
        repeated = plan_acquisition(obj, canonical_basis(GridSpec(8)), 2)
        assert plan.bucket_reads == repeated.bucket_reads == 2 * 64
        assert plan.pattern_count == repeated.pattern_count == 64

    def test_combined_noise_is_root_two_sigma(self, edge_kernel):
        # two unit-weight reads per pattern combine in quadrature
        sigma = 0.5
        noise = NoiseModel(detector_sigma=sigma)
        obj = np.full((32, 32), 0.5)
        plan = self.setup_plan(32, edge_kernel, obj)
        levels = decompose_basis(modify_basis(canonical_basis(GridSpec(32)), edge_kernel)).level
        assert np.array_equal(np.abs(levels), np.ones(2 * 1024))
        assert np.all(plan.q == math.sqrt(2.0))
        combos = plan_noise_samples(plan, noise, range(100))
        clean = run_basis_protocol(plan, QUIET, 1.0)
        assert np.std(combos - clean) == pytest.approx(np.sqrt(2) * sigma, rel=0.02)

    def test_deterministic_for_fixed_seed(self, edge_kernel):
        obj = np.full((4, 4), 0.25)
        plan = self.setup_plan(4, edge_kernel, obj)
        noise = NoiseModel(detector_sigma=0.3, normalization_sigma=0.05, seed=9)
        first = run_basis_protocol(plan, noise, 3.0)
        second = run_basis_protocol(plan, noise, 3.0)
        assert np.array_equal(first, second)


@pytest.mark.parametrize("route", ["post", "basis"])
def test_a_warm_cell_peaks_at_eight_arrays_a_pattern(route, edge_kernel):
    # a cell holds a few float64 arrays a pattern, never one a frame: the
    # side-64 Hadamard basis route projects 15,868 frames for 4,096
    # patterns, the post route 8,191 read twice
    grid = GridSpec(64)
    basis = hadamard_basis(grid)
    if route == "basis":
        basis = modify_basis(basis, edge_kernel)
    plan = plan_acquisition(synth_bar_target(grid), basis, 2)
    noise = NoiseModel(lamp_drift_amplitude=0.1, detector_sigma=0.5,
                       normalization_sigma=0.1, background_measure=1.0,
                       background_norm=0.5, seed=5)
    run_basis_protocol(plan, noise, 1.0)  # the sweep's drift profile is cached
    tracemalloc.start()
    try:
        run_basis_protocol(plan, replace(noise, seed=6), 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * plan.pattern_count * np.dtype(float).itemsize  # 256 KiB


class TestPlanOverlaps:
    """Every plan overlap is the correctly rounded sum of its frame."""

    @settings(max_examples=60, deadline=None)
    @given(side=st.integers(1, 12), repeats=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_random_objects(self, side, repeats, seed):
        # and each plan sums them, pattern by pattern in part order, as the
        # held stack's split does
        rng = np.random.default_rng(seed)
        obj = rng.uniform(0.0, 1.0, size=(side, side))
        parent = canonical_basis(GridSpec(side))
        taps = rng.integers(-2, 3, size=(1, 3 if side >= 3 else 1))
        for basis in (parent, modify_basis(parent, Kernel(taps))):
            want = part_overlaps(obj, basis, decompose_basis(basis))
            assert np.array_equal(frame_overlaps(obj, basis), want)
            assert_same_plan(plan_acquisition(obj, basis, repeats),
                             pattern_sums(obj, basis, repeats))

    @pytest.mark.parametrize("build", [canonical_basis, hadamard_basis])
    def test_side_64(self, build, rng):
        grid = GridSpec(64)
        obj = rng.uniform(0.0, 1.0, size=(64, 64))
        for basis in (build(grid), modify_basis(build(grid), edge_detect_kernel())):
            assert np.array_equal(frame_overlaps(obj, basis),
                                  part_overlaps(obj, basis, decompose_basis(basis)))


def tiny_mix(rng, side):
    """Uniform values with about one in ten scaled by 1e-300: the values
    span some 1,050 bits, so the object is 20 or more limbs."""
    obj = rng.uniform(0.0, 1.0, size=(side, side))
    obj[rng.uniform(size=(side, side)) < 0.1] *= 1e-300
    return obj


# Objects in [0, 1] of one, two and many limbs: a file object's gray / 255
# or gray / 65535, uniform floats, a binary mask, values spread down to
# 1e-300, and multiples of the finest float, whose sums are subnormal.
OBJECTS = {
    "gray-over-255": lambda rng, side: np.rint(255 * rng.uniform(size=(side, side))) / 255,
    "gray-over-65535":
        lambda rng, side: np.rint(65535 * rng.uniform(size=(side, side))) / 65535,
    "uniform": lambda rng, side: rng.uniform(0.0, 1.0, size=(side, side)),
    "dyadic": lambda rng, side: rng.integers(0, 2, size=(side, side)).astype(float),
    "tiny-mix": tiny_mix,
    "subnormal": lambda rng, side: rng.integers(0, 2**40, size=(side, side)) * 2.0**-1074,
}


@st.composite
def sets_and_objects(draw):
    """A parent of either kind, or its modification by a random kernel up
    to 5x5 of integral or float taps, and an object from OBJECTS."""
    hadamard = draw(st.booleans())
    side = draw(st.sampled_from([1, 2, 4, 8, 16]) if hadamard else st.integers(1, 12))
    basis = (hadamard_basis if hadamard else canonical_basis)(GridSpec(side))
    kind = draw(st.sampled_from(["parent", "integral", "float"]))
    if kind != "parent":
        h, w = (draw(st.sampled_from([k for k in (1, 3, 5) if k <= side])) for _ in "hw")
        values = (st.integers(-4, 4) if kind == "integral"
                  else st.sampled_from([0.0, -1.5, -0.25, 0.5, 0.1, 0.3, 2.0]))
        taps = draw(st.lists(values, min_size=h * w, max_size=h * w))
        basis = modify_basis(basis, Kernel(np.reshape(taps, (h, w))))
    name = draw(st.sampled_from(sorted(OBJECTS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return basis, OBJECTS[name](rng, side)


class TestCorrectlyRoundedOverlaps:
    """Each overlap is ``math.fsum`` of the object values its frame lights,
    bit for bit, on every set and object, by the one window path."""

    @settings(max_examples=150, deadline=None)
    @given(case=sets_and_objects())
    def test_every_overlap_is_the_fsum_of_its_frame(self, case):
        basis, obj = case
        split = decompose_basis(basis)
        assert np.array_equal(frame_overlaps(obj, basis), part_overlaps(obj, basis, split))

    def test_limb_counts(self, rng):
        # a frame of the side-64 grid lights at most 2**12 pixels, so each
        # limb holds 41 bits
        grid = GridSpec(64)
        assert bench_module._limb_layout(synth_bar_target(grid))[:2] == (41, 1)
        for name, count in (("gray-over-255", 2), ("dyadic", 1)):
            assert bench_module._limb_layout(OBJECTS[name](rng, 64))[:2] == (41, count)
        assert 24 <= bench_module._limb_layout(tiny_mix(rng, 64))[1] <= 31
        assert bench_module._limb_layout(np.zeros((4, 4)))[:2] == (49, 1)


BLAS_PROBE = """
import hashlib, sys
import numpy as np
from ghostsim import GridSpec, edge_detect_kernel, hadamard_basis, modify_basis, plan_acquisition
from ghostsim.bench import _window_overlaps
from ghostsim.bases import decompose_basis
obj = np.random.default_rng(3).integers(0, 256, size=(32, 32)) / 255
basis = modify_basis(hadamard_basis(GridSpec(32)), edge_detect_kernel())
plan = plan_acquisition(obj, basis, 1)
overlaps = _window_overlaps(obj, basis._form, decompose_basis(basis))
sys.stdout.write(hashlib.sha256(b"".join(
    a.tobytes() for a in (overlaps, plan.s, plan.u, plan.q))).hexdigest())
"""


def openblas_dynamic_arch() -> bool:
    """Whether numpy's OpenBLAS picks its kernel at run time, so that
    ``OPENBLAS_CORETYPE`` can choose another (numpy 1.26 and later tell)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64")
                    or not openblas_dynamic_arch(),
                    reason="needs an x86-64 OpenBLAS built with DYNAMIC_ARCH")
def test_plan_bytes_do_not_depend_on_the_blas_kernel():
    # the side-32 edge-modified Hadamard set on a gray / 255 object: a
    # per-frame dot gave different overlaps under each of these kernels;
    # the overlaps and the plan's sums made from them keep their bytes
    cores, digests = set(), set()
    for core in (None, "Nehalem", "Prescott"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["OPENBLAS_VERBOSE"] = "2"  # OpenBLAS names its kernel on stderr
        if core is not None:
            env["OPENBLAS_CORETYPE"] = core
        result = subprocess.run([sys.executable, "-c", BLAS_PROBE], env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        cores.add(result.stderr.strip())
        digests.add(result.stdout)
    if len(cores) < 2:
        pytest.skip("OPENBLAS_CORETYPE chose no other kernel here")
    assert len(digests) == 1


@contextmanager
def no_frames():
    """Fail if a plan makes any pattern: the window path makes none."""
    def refuse(*args):
        raise AssertionError("made patterns for a plan")

    with mock.patch.object(PatternBasis, "_rows", refuse):
        yield


@st.composite
def canonical_factor_cases(draw):
    """A canonical parent, or one modified by a random integral or
    non-integral kernel that puts each nonzero value on one to three taps,
    with an object of uniform floats in [0, 1] or of dyadic values
    ``k / 2**b``."""
    side = draw(st.integers(1, 12))
    basis = canonical_basis(GridSpec(side))
    kind = draw(st.sampled_from(["parent", "integral", "non-integral"]))
    if kind != "parent":
        h, w = (draw(st.sampled_from([k for k in (1, 3) if k <= side])) for _ in "hw")
        values = (st.integers(-4, 4).filter(bool) if kind == "integral"
                  else st.sampled_from([-1.5, -0.25, 0.5, 0.75, 2.0, 3.125]))
        counts = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
        levels = draw(st.lists(values, unique=True, min_size=len(counts),
                               max_size=len(counts)))
        taps = [v for v, k in zip(levels, counts) for _ in range(k)][:h * w]
        taps = draw(st.permutations(taps + [0] * (h * w - len(taps))))
        basis = modify_basis(basis, Kernel(np.reshape(taps, (h, w))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = draw(st.sampled_from([None, 0, 8, 30]))
    if bits is None:
        return basis, rng.uniform(0.0, 1.0, size=(side, side))
    return basis, rng.integers(0, 2**bits + 1, size=(side, side)) / 2**bits


class TestOverlapPaths:
    """Every set takes its overlaps from its window form, one path for any
    frame width and any object, and makes no pattern; each overlap is the
    ``math.fsum`` of its frame."""

    @settings(max_examples=100, deadline=None)
    @given(case=canonical_factor_cases())
    def test_canonical_sets_take_the_factor_path_when_exact(self, case):
        # frames of one to three pixels per tap value, on a dyadic object
        # (exact sums) or a uniform one (correctly rounded sums)
        basis, obj = case
        want = part_overlaps(obj, basis, decompose_basis(basis))
        with no_frames():
            plan_acquisition(obj, basis, 1)
            assert np.array_equal(frame_overlaps(obj, basis), want)

    @pytest.mark.parametrize("side", [4, 8])
    def test_wide_frames_take_the_window_path(self, side, rng):
        grid = GridSpec(side)
        obj = rng.uniform(0.0, 1.0, size=(side, side))
        laplacian = Kernel([[0, 1, 0], [1, -4, 1], [0, 1, 0]])
        bases = [modify_basis(canonical_basis(grid), laplacian), hadamard_basis(grid),
                 modify_basis(hadamard_basis(grid), edge_detect_kernel())]
        for basis in bases:
            want = part_overlaps(obj, basis, decompose_basis(basis))
            with no_frames():
                plan_acquisition(obj, basis, 1)
                assert np.array_equal(frame_overlaps(obj, basis), want)

    def test_every_hadamard_basis_is_dense(self, rng):
        # each frame of a Hadamard parent lights half the grid or all of
        # it, and its overlap is still the correctly rounded sum
        for side in (2, 4, 8, 16):
            basis = hadamard_basis(GridSpec(side))
            obj = rng.uniform(0.0, 1.0, size=(side, side))
            split = decompose_basis(basis)
            rows = basis.stack.reshape(len(basis), -1)
            lit = np.count_nonzero(rows[split.owner] == split.level[:, None], axis=1)
            assert lit.min() == side * side // 2
            assert np.array_equal(frame_overlaps(obj, basis), part_overlaps(obj, basis, split))

    @pytest.mark.parametrize("taps", [None, [[0, -1, 0], [-1, 0, 1], [0, 1, 0]],
                                      [[0, 1, 0], [1, -4, 1], [0, 1, 0]]],
                             ids=["parent", "edge-eq3", "laplacian"])
    def test_side_64_takes_the_factor_path(self, taps):
        # dyadic objects of at most 2**8 units a pixel: every frame's sum
        # is exact, and the dense product of each frame with the object is
        # exact too
        grid = GridSpec(64)
        rng = np.random.default_rng(64)
        for build in (canonical_basis, hadamard_basis):
            basis = build(grid)
            if taps is not None:
                basis = modify_basis(basis, Kernel(taps))
            for obj in (synth_bar_target(grid), rng.integers(0, 257, size=(64, 64)) / 256):
                with no_frames():
                    plan_acquisition(obj, basis, 1)
                    overlaps = frame_overlaps(obj, basis)
                assert np.array_equal(overlaps, dense_overlaps(obj, basis))

    @pytest.mark.parametrize("taps", [[[1, 0, 0]], [[0, 1, 0], [1, -4, 1], [0, 1, 0]]],
                             ids=["narrow", "dense"])
    def test_all_zero_pattern_reads_zero(self, taps, rng):
        # a factor row of zeros darkens every pattern of row or column 1,
        # on one-pixel frames and on the Laplacian's four-pixel ones
        factor = np.eye(4, dtype=np.int8)
        factor[1, 1] = 0
        basis = modify_basis(PatternBasis(GridSpec(4), "custom", factor), Kernel(taps))
        obj = rng.uniform(0.5, 1.0, size=(4, 4))
        plan, split = plan_acquisition(obj, basis, 1), decompose_basis(basis)
        overlaps = frame_overlaps(obj, basis)
        patterns = [1, 4, 5, 6, 7, 9, 13]
        dark = np.isin(split.owner, patterns)
        assert split.level[dark].tolist() == [0.0] * 7
        assert overlaps[dark].tolist() == [0.0] * 7
        assert np.count_nonzero(overlaps) == plan.bucket_reads - 7
        assert np.array_equal(overlaps, part_overlaps(obj, basis, split))
        for sums in (plan.s, plan.u, plan.q):
            assert sums[patterns].tolist() == [0.0] * 7

    @pytest.mark.parametrize("taps", [[[0, -1, 0], [-1, 0, 1], [0, 1, 0]],
                                      [[0, 1, 0], [1, -4, 1], [0, 1, 0]]],
                             ids=["edge-eq3", "laplacian"])
    def test_frame_width_picks_the_path_on_a_non_dyadic_object(self, taps):
        # gray / 255 is two limbs: whatever the frame width, the path is the
        # window form; the edge stencil's two-pixel frames and the
        # Laplacian's four-pixel ones are both correctly rounded sums
        obj = np.random.default_rng(6).integers(0, 256, size=(16, 16)) / 255
        basis = modify_basis(canonical_basis(GridSpec(16)), Kernel(taps))
        want = part_overlaps(obj, basis, decompose_basis(basis))
        with no_frames():
            plan_acquisition(obj, basis, 1)
            assert np.array_equal(frame_overlaps(obj, basis), want)


def dense_overlaps(obj, basis):
    """The plan's overlaps, each frame made dense from the held stack and
    multiplied with the object: exact, and so the correctly rounded sum,
    for a dyadic object whose frame sums stay below 2**53 units."""
    split = decompose_basis(basis)
    rows, flat = basis.stack.reshape(len(basis), -1), obj.ravel()
    overlaps = []
    for s in range(0, split.owner.size, 512):
        owner, level = split.owner[s:s + 512], split.level[s:s + 512]
        frames = (rows[owner] == level[:, None]) & (level[:, None] != 0.0)
        overlaps.append(frames.astype(float) @ flat)
    return np.concatenate(overlaps)


def assert_same_plan(got, want):
    """``got``, a plan, has the sums and frame count of ``want``: a plan or
    the ``(s, u, q, frames)`` of :func:`~oracles.pattern_sums`."""
    if isinstance(want, MeasurementPlan):
        want = (want.s, want.u, want.q, want.bucket_reads)
    for name, value in zip(("s", "u", "q", "bucket_reads"), want):
        assert np.array_equal(getattr(got, name), value), name


TINY = 3.175e-305  # near 2**-1011: an object far below 1


@st.composite
def dyadic_hadamard_cases(draw):
    """A Hadamard parent of a random power-of-two side, or its modification
    by a random integral kernel of 1 to 5 taps, and a dyadic object: values
    ``k / 2**b``, or small multiples of TINY."""
    side = draw(st.sampled_from([2, 4, 8, 16, 32]))
    basis = hadamard_basis(GridSpec(side))
    taps = draw(st.integers(0, 5))
    shapes = [(h, w) for h in (1, 3, 5) for w in (1, 3, 5)
              if h <= side and w <= side and h * w >= taps]
    if taps and shapes:
        h, w = draw(st.sampled_from(shapes))
        values = draw(st.lists(st.integers(-4, 4).filter(bool), min_size=taps,
                               max_size=taps))
        where = draw(st.permutations(range(h * w)))[:taps]
        kernel = np.zeros(h * w)
        kernel[where] = values
        basis = modify_basis(basis, Kernel(kernel.reshape(h, w)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = draw(st.sampled_from([0, 8, 16, 30, None]))
    if bits is None:
        return basis, rng.integers(0, 3, size=(side, side)) * TINY
    return basis, rng.integers(0, 2**bits + 1, size=(side, side)) / 2**bits


class TestSignOverlaps:
    """A +/-1 separable basis takes its overlaps from a few side x side
    products on any object; they equal the plan made from the held stack."""

    @settings(max_examples=40, deadline=None)
    @given(case=dyadic_hadamard_cases())
    def test_dyadic_objects_match_the_unstructured_plan(self, case):
        basis, obj = case
        with no_frames():
            plan = plan_acquisition(obj, basis, 1)
            overlaps = frame_overlaps(obj, basis)
        subs = [binary_decompose(p, j) for j, p in enumerate(basis.stack)]
        assert np.array_equal(overlaps, part_overlaps(obj, basis, subs))
        assert_same_plan(plan, pattern_sums(obj, basis, 1))

    @pytest.mark.parametrize("make", [
        lambda rng: rng.uniform(0.0, 1.0, size=(16, 16)),
        lambda rng: rng.integers(0, 65536, size=(16, 16)) / 65535,
    ], ids=["uniform", "gray-over-65535"])
    def test_other_objects_take_the_window_path(self, make, rng, edge_kernel):
        obj = make(rng)
        parent = hadamard_basis(GridSpec(16))
        for basis in (parent, modify_basis(parent, edge_kernel)):
            want = part_overlaps(obj, basis, decompose_basis(basis))
            with no_frames():
                plan_acquisition(obj, basis, 1)
                assert np.array_equal(frame_overlaps(obj, basis), want)

    def test_sums_past_two_pow_53_round_to_nearest_even(self):
        # in units of 2**-53 the first object sums to 2**53 and the second
        # to one unit more, half way between 1 and the next float: the
        # first overlap, all four pixels, is 1.0 for both
        unit = 2.0**-53
        basis = hadamard_basis(GridSpec(2))
        for obj in (np.array([[0.5, 0.25], [0.25 - unit, unit]]),
                    np.array([[0.5, 0.25], [0.25, unit]])):
            overlaps = frame_overlaps(obj, basis)
            assert overlaps[0] == 1.0 == plan_acquisition(obj, basis, 1).s[0]
            assert np.array_equal(overlaps, part_overlaps(obj, basis, decompose_basis(basis)))

    def test_subnormal_sums_round_once(self):
        # multiples of the finest float sum exactly, subnormal or not;
        # beside 0.5 a value of 2**-1074 is 1,074 bits down, 22 limbs of 49
        # bits, and rounds away
        basis = modify_basis(hadamard_basis(GridSpec(4)), Kernel([[1, 1, 0]]))
        finest = 2.0**-1074
        mixed = np.zeros((4, 4))
        mixed[0, :3] = 0.5, finest, finest
        edge = np.zeros((4, 4))
        edge[0, :3] = 2.0**-1022, finest, 3 * finest
        assert bench_module._limb_layout(mixed)[:2] == (49, 22)
        for obj in (np.full((4, 4), finest), np.full((4, 4), 2 * finest), mixed, edge,
                    np.zeros((4, 4))):
            assert np.array_equal(frame_overlaps(obj, basis),
                                  part_overlaps(obj, basis, decompose_basis(basis)))

    def test_many_tap_kernels_take_the_window_path(self):
        # float taps and any number of taps: every Hadamard set takes its
        # overlaps from the window form
        grid = GridSpec(16)
        obj = synth_bar_target(grid, 2)
        kernels = [[[0, -0.5, 0], [-0.5, 0, 0.5], [0, 0.5, 0]],
                   [[1, 2, 3, 2, 1], [2, 4, 6, 4, 2], [3, 6, 9, 6, 3], [2, 4, 6, 4, 2],
                    [1, 2, 3, 2, 1]],
                   np.round(np.random.default_rng(8).normal(size=(5, 5)), 3)]
        bases = [modify_basis(hadamard_basis(grid), Kernel(taps)) for taps in kernels]
        wants = [part_overlaps(obj, basis, decompose_basis(basis)) for basis in bases]
        for basis, want in zip(bases, wants):
            with no_frames():
                plan_acquisition(obj, basis, 1)
                assert np.array_equal(frame_overlaps(obj, basis), want)

    def test_all_zero_pattern_reads_zero(self):
        # rows 0 and 1 of H_4 repeat with period 2, so a difference across
        # two columns cancels on every pattern (r, 0) and (r, 1)
        basis = modify_basis(hadamard_basis(GridSpec(4)), Kernel([[1, 0, -1]]))
        dark = [j for j, pattern in enumerate(basis.stack) if not pattern.any()]
        assert dark == [0, 1, 4, 5, 8, 9, 12, 13]
        obj = np.arange(16.0).reshape(4, 4) / 16
        plan, split = plan_acquisition(obj, basis, 1), decompose_basis(basis)
        parts = np.isin(split.owner, dark)
        assert split.level[parts].tolist() == [0.0] * 8
        assert frame_overlaps(obj, basis)[parts].tolist() == [0.0] * 8
        assert_same_plan(plan, pattern_sums(obj, basis, 1))


@st.composite
def bases_and_objects(draw):
    """A parent or a filter-modified parent (integer or non-integral taps)
    of a random side, and a random object."""
    hadamard = draw(st.booleans())
    side = draw(st.sampled_from([1, 2, 4, 8]) if hadamard else st.integers(1, 9))
    grid = GridSpec(side)
    basis = (hadamard_basis if hadamard else canonical_basis)(grid)
    width = draw(st.sampled_from([k for k in (1, 3) if k <= side]))
    taps = draw(st.one_of(
        st.none(),
        st.lists(st.integers(-3, 3), min_size=width, max_size=width),
        st.lists(st.sampled_from([-1.5, -0.25, 0.0, 0.5, 2.0]),
                 min_size=width, max_size=width)))
    if taps is not None:
        basis = modify_basis(basis, Kernel([taps]))
    seed = draw(st.integers(0, 2**32 - 1))
    return basis, np.random.default_rng(seed).uniform(0.0, 1.0, size=(side, side))


@settings(max_examples=60, deadline=None)
@given(case=bases_and_objects(), repeats=st.integers(1, 3))
def test_plan_frames_follow_projection_count_and_binary_decompose(case, repeats):
    basis, obj = case
    plan = plan_acquisition(obj, basis, repeats)
    assert projection_count(basis, repeats) == plan.bucket_reads
    # a parent of 0/1 patterns reads each part R times at weight level / R
    subs = [binary_decompose(p, j) for j, p in enumerate(basis.stack)]
    split = decompose_basis(basis)
    assert split.owner.tolist() == [sub.parent_index for sub in subs for _ in sub.weights]
    assert split.level.tolist() == [w for sub in subs for w in sub.weights]
    assert_same_plan(plan, pattern_sums(obj, basis, repeats))


class TestNormalizationSusceptibility:
    """First-order effect of normalization noise on the two routes.

    With only normalization noise on, the measured coefficient error is the
    clean coefficient times -eps3/A to first order; the draws are given, so
    eps3 is known exactly.
    """

    def test_first_order_error_both_protocols(self, rng, edge_kernel):
        side = 8
        grid = GridSpec(side)
        obj = rng.uniform(0.2, 1.0, size=(side, side))
        a = 1.0  # integration time 1, lamp base 1, no drift
        sigma3 = 1e-3 * a
        noise = NoiseModel(normalization_sigma=sigma3)
        lamp = np.full(grid.pixel_count, a)
        z_norm = rng.standard_normal(grid.pixel_count)
        eps3 = sigma3 * z_norm

        modified = modify_basis(canonical_basis(grid), edge_kernel)
        routes = (
            (plan_acquisition(obj, canonical_basis(grid), 2), obj.ravel()),
            (plan_acquisition(obj, modified, 1),
             np.array([float(np.sum(np.asarray(p) * obj)) for p in modified.stack])),
        )
        for plan, clean in routes:
            got = coefficients_from_draws(plan, lamp, noise,
                                          np.zeros(plan.pattern_count), z_norm)
            keep = np.abs(clean) >= 1e-6
            predicted = -clean * eps3 / a
            assert (got - clean)[keep] == pytest.approx(predicted[keep], rel=0.1)
