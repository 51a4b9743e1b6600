"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest

from ghostsim import (
    BASIS_PROCESSED,
    POST_PROCESSED,
    GridSpec,
    NoiseModel,
    basis_processed_image,
    canonical_basis,
    cyclic_convolve,
    decompose_basis,
    derive_seed,
    edge_detect_kernel,
    filter_energy,
    hadamard_basis,
    kernel_autocorrelation,
    modify_basis,
    noise_autocorrelation,
    parse_config,
    plan_acquisition,
    post_processed_image,
    run_basis_protocol,
    summarize_sweep,
    sweep_cells,
    synth_bar_target,
)
from ghostsim.cli import main as cli_main
from oracles import build_operator_matrix, flatten, recombine, unflatten

EDGE = edge_detect_kernel()
TIMES = (20.0, 100.0, 220.0)


def drop(cell, image):
    """A sweep sink that keeps no image."""


def report(label: str, passed: bool) -> bool:
    print(f"\n[{'PASS' if passed else 'FAIL'}] {label}")
    return passed


@pytest.fixture(scope="module")
def default_sweep():
    """Sweep of the documented default noise config on the synthetic target."""
    cfg = parse_config("")  # the shipped defaults
    obj = synth_bar_target(GridSpec(cfg.grid_side), cfg.bar_groups)
    start = time.perf_counter()
    cells = sweep_cells(obj, cfg.kernel, cfg.to_noise_model(),
                        cfg.integration_times_ms, cfg.repeats, sink=drop,
                        repeats_per_pattern=cfg.repeats_per_pattern,
                        peak_fraction=cfg.peak_fraction,
                        background_fraction=cfg.background_fraction,
                        mask_border=cfg.mask_border)
    elapsed = time.perf_counter() - start
    means = {(s.method, s.integration_time_ms): s.mean_snr
             for s in summarize_sweep(cells)}
    return means, elapsed


def test_criterion_1_operator_equivalence(rng):
    start = time.perf_counter()
    grid = GridSpec(8)
    op = build_operator_matrix(EDGE, grid)
    quiet = NoiseModel()
    parent = canonical_basis(grid)
    modified = modify_basis(parent, EDGE)
    worst = 0.0
    for _ in range(50):
        obj = rng.uniform(0.0, 1.0, size=(8, 8))
        oracle = unflatten(op.T @ flatten(obj), grid)
        scale = np.abs(oracle).max()
        basis_img = basis_processed_image(plan_acquisition(obj, modified, 2), parent,
                                          quiet, 1.0)
        post_img = post_processed_image(plan_acquisition(obj, parent, 2), parent, EDGE,
                                        quiet, 1.0)
        worst = max(worst,
                    np.abs(basis_img - oracle).max() / scale,
                    np.abs(basis_img - post_img).max() / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    assert report(
        f"criterion 1: operator-equivalence oracle "
        f"(max rel err {worst:.2e}, {elapsed:.2f}s)", ok)


def test_criterion_2_filter_energy_and_amplification(rng):
    energy = filter_energy(EDGE)
    ratios = []
    for _ in range(10):
        noise = rng.standard_normal((128, 128))
        ratios.append(cyclic_convolve(noise, EDGE).std() / noise.std())
    measured = float(np.mean(ratios))
    ok = energy == 4.0 and abs(measured - 2.0) <= 0.02 * 2.0
    assert report(
        f"criterion 2: filter energy {energy} exact, "
        f"measured amplification {measured:.4f} within 2% of 2.0", ok)


def test_criterion_3_measurement_parity():
    grid = GridSpec(64)
    obj = synth_bar_target(grid, 3)
    noise = NoiseModel(detector_sigma=0.5, seed=3)
    repeats_per_pattern = 2
    parent = canonical_basis(grid)
    post = plan_acquisition(obj, parent, repeats_per_pattern)
    basis = plan_acquisition(obj, modify_basis(parent, EDGE), repeats_per_pattern)
    post_coefficients = run_basis_protocol(post, noise, 1.0)
    basis_coefficients = run_basis_protocol(basis, noise, 1.0)
    ok = (post.bucket_reads == 2 * 64 * 64 == basis.bucket_reads
          and post.pattern_count == 64 * 64 == basis.pattern_count
          and post_coefficients.shape == (64 * 64,) == basis_coefficients.shape)
    assert report(
        f"criterion 3: measurement parity at side 64 "
        f"(bucket reads {post.bucket_reads}/{basis.bucket_reads}, "
        f"normalization reads {post.pattern_count}/{basis.pattern_count})", ok)


def test_criterion_4_noise_character():
    start = time.perf_counter()
    side, trials = 64, 8
    grid = GridSpec(side)
    zero = np.zeros((side, side))
    parent = canonical_basis(grid)
    post = plan_acquisition(zero, parent, 2)
    basis = plan_acquisition(zero, modify_basis(parent, EDGE), 2)
    acc_basis = np.zeros((side, side))
    acc_post = np.zeros((side, side))
    for i in range(trials):
        noise = NoiseModel(detector_sigma=1.0, seed=derive_seed(2026, i))
        acc_basis += noise_autocorrelation(
            basis_processed_image(basis, parent, noise, 1.0))
        acc_post += noise_autocorrelation(
            post_processed_image(post, parent, EDGE, noise, 1.0))
    acc_basis /= trials
    acc_post /= trials

    off = acc_basis.copy()
    off[0, 0] = 0.0
    white_max = float(np.abs(off).max())
    expected = kernel_autocorrelation(EDGE)
    lags_ok = all(
        abs(acc_post[lag] - expected[key]) <= 0.05
        for lag, key in (((1, 1), (1, 1)), ((1, -1), (1, -1)), ((0, 2), (0, 2)))
    )
    elapsed = time.perf_counter() - start
    ok = white_max <= 0.05 and lags_ok and elapsed < 30.0
    assert report(
        f"criterion 4: noise character (white max |R| {white_max:.3f}, "
        f"colored lags {acc_post[1, 1]:+.3f}/{acc_post[1, -1]:+.3f}/"
        f"{acc_post[0, 2]:+.3f} vs -0.5/+0.5/-0.25, {elapsed:.1f}s)", ok)


def test_criterion_5_snr_comparison(default_sweep):
    means_default, elapsed_default = default_sweep
    cfg = parse_config("")
    obj = synth_bar_target(GridSpec(cfg.grid_side), cfg.bar_groups)

    # (a) detector noise only: the two routes are statistically equivalent
    start = time.perf_counter()
    sigma_only = NoiseModel(lamp_base=1.0, detector_sigma=2.0, seed=99)
    cells = sweep_cells(obj, EDGE, sigma_only, TIMES, 3, sink=drop)
    elapsed = elapsed_default + (time.perf_counter() - start)
    means_sigma = {(s.method, s.integration_time_ms): s.mean_snr
                   for s in summarize_sweep(cells)}
    agree = all(
        abs(means_sigma[(BASIS_PROCESSED, t)] - means_sigma[(POST_PROCESSED, t)])
        <= 0.10 * means_sigma[(POST_PROCESSED, t)]
        for t in TIMES
    )

    # (b) the default config is normalization-noise dominated
    ratios = [means_default[(BASIS_PROCESSED, t)] / means_default[(POST_PROCESSED, t)]
              for t in TIMES]
    always_better = all(r > 1.0 for r in ratios)
    mean_ratio = float(np.mean(ratios))
    ok = agree and always_better and 1.5 <= mean_ratio <= 3.0 and elapsed < 120.0
    assert report(
        "criterion 5: SNR comparison "
        f"(sigma-only agreement {agree}, per-time ratios "
        f"{'/'.join(f'{r:.2f}' for r in ratios)}, mean ratio {mean_ratio:.2f} "
        f"in [1.5, 3.0], {elapsed:.1f}s)", ok)


def test_criterion_6_monotonic_in_integration_time(default_sweep):
    means, _ = default_sweep
    ok = True
    for method in (POST_PROCESSED, BASIS_PROCESSED):
        series = [means[(method, t)] for t in TIMES]
        ok = ok and all(a < b for a, b in zip(series, series[1:]))
    post = "/".join(f"{means[(POST_PROCESSED, t)]:.1f}" for t in TIMES)
    basis = "/".join(f"{means[(BASIS_PROCESSED, t)]:.1f}" for t in TIMES)
    assert report(
        f"criterion 6: mean SNR strictly increases with integration time "
        f"(post {post}, basis {basis})", ok)


def test_criterion_7_structural_exactness(tmp_path):
    hadamard_ok = True
    for side in (2, 4, 8):
        basis = hadamard_basis(GridSpec(side))
        flat = basis.stack.reshape(len(basis), -1).astype(np.int64)
        product = flat @ flat.T
        hadamard_ok = hadamard_ok and np.array_equal(
            product, side * side * np.eye(len(basis), dtype=np.int64))

    modified = modify_basis(canonical_basis(GridSpec(16)), EDGE)
    decomposition_ok = all(
        np.array_equal(recombine(modified.pattern(sub.parent_index), sub),
                       np.asarray(modified.pattern(sub.parent_index)))
        for sub in decompose_basis(modified)
    )

    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(
        "grid_side = 16\nbar_groups = 2\nintegration_times_ms = 5 20\n"
        "repeats = 2\nseed = 31\n"
    )
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    rc1 = cli_main(["run", "--config", str(cfg_path), "--out", str(out1)])
    rc2 = cli_main(["run", "--config", str(cfg_path), "--out", str(out2)])
    csv_ok = rc1 == rc2 == 0 and all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("snr_sweep.csv", "snr_summary.csv")
    )
    ok = hadamard_ok and decomposition_ok and csv_ok
    assert report(
        f"criterion 7: structural exactness (hadamard {hadamard_ok}, "
        f"decomposition {decomposition_ok}, byte-identical CSVs {csv_ok})", ok)
