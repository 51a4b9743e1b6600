"""Region masks, the SNR metric, noise statistics, and the sweep."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ghostsim.analysis as analysis_module
from ghostsim import (
    BASIS_PROCESSED,
    METHODS,
    POST_PROCESSED,
    DegenerateBackgroundError,
    GridSpec,
    Kernel,
    MaskError,
    NoiseModel,
    NormalizationError,
    RegionMask,
    basis_processed_image,
    canonical_basis,
    compute_snr,
    cyclic_convolve,
    derive_seed,
    filter_energy,
    identity_kernel,
    kernel_autocorrelation,
    mask_from_rect,
    modify_basis,
    noise_autocorrelation,
    plan_acquisition,
    post_processed_image,
    predicted_amplification,
    select_background_mask,
    select_peak_mask,
    summarize_sweep,
    sweep_cells,
    synth_bar_target,
)


def drop(cell, image):
    """A sweep sink that keeps no image."""


class TestSelectPeakMask:
    def test_single_dominant_pixel(self):
        image = np.zeros((4, 4))
        image[1, 2] = -9.0  # dominance is by absolute value
        mask = select_peak_mask(image, 0.0626, border=0)  # ceil(0.0626*16) = 2
        assert 1 * 4 + 2 in mask.indices.tolist()

    def test_fraction_covering_one_pixel(self):
        image = np.zeros((4, 4))
        image[3, 1] = 5.0
        mask = select_peak_mask(image, 0.01, border=0)
        assert mask.indices.tolist() == [3 * 4 + 1]

    def test_constant_image_tie_break(self):
        image = np.ones((4, 4))
        mask = select_peak_mask(image, 0.25, border=0)
        assert mask.indices.tolist() == [0, 1, 2, 3]  # first ceil(0.25*16) indices

    def test_border_excludes_edge_pixels(self):
        image = np.zeros((4, 4))
        image[0, 0] = 100.0  # on the border, must be ignored
        image[1, 1] = 1.0
        mask = select_peak_mask(image, 0.25, border=1)
        assert mask.indices.tolist() == [1 * 4 + 1]
        candidates = {1 * 4 + 1, 1 * 4 + 2, 2 * 4 + 1, 2 * 4 + 2}
        assert set(mask.indices.tolist()) <= candidates

    def test_bad_fraction(self):
        with pytest.raises(MaskError):
            select_peak_mask(np.ones((4, 4)), 0.0)
        with pytest.raises(MaskError):
            select_peak_mask(np.ones((4, 4)), 1.0)

    def test_border_leaves_nothing(self):
        with pytest.raises(MaskError):
            select_peak_mask(np.ones((4, 4)), 0.5, border=2)

    def test_deterministic(self, rng):
        image = rng.normal(size=(8, 8))
        a = select_peak_mask(image, 0.1, border=1)
        b = select_peak_mask(image.copy(), 0.1, border=1)
        assert np.array_equal(a.indices, b.indices)


class TestBackgroundMask:
    def test_picks_flattest_pixels(self):
        image = np.zeros((4, 4))
        image[2, 2] = 10.0
        mask = select_background_mask(image, 0.5, border=0)
        assert 2 * 4 + 2 not in mask.indices.tolist()

    def test_disjoint_from_excluded(self):
        image = np.ones((4, 4))
        peak = select_peak_mask(image, 0.25, border=0)
        background = select_background_mask(image, 0.5, border=0,
                                            exclude=peak.indices)
        assert np.intersect1d(peak.indices, background.indices).size == 0

    @settings(max_examples=60, deadline=None)
    @given(side=st.integers(5, 12), fraction=st.floats(0.01, 0.5),
           border=st.integers(0, 1), seed=st.integers(0, 2**32 - 1),
           extra=st.lists(st.integers(-5, 200), max_size=8))
    def test_masks_match_unique_and_setdiff1d(self, side, fraction, border, seed, extra):
        # oracle: the np.unique / np.setdiff1d construction the masks replace
        image = np.random.default_rng(seed).integers(0, 4, size=(side, side)).astype(float)
        peak = select_peak_mask(image, fraction, border)
        exclude = np.concatenate([peak.indices[::-1], peak.indices[:2],
                                  np.array(extra, dtype=np.int64)])
        background = select_background_mask(image, fraction, border, exclude=exclude)
        idx = np.arange(side * side).reshape(side, side)
        cand = np.setdiff1d(idx[border:side - border, border:side - border].ravel(),
                            exclude)
        order = np.argsort(np.abs(image.ravel()[cand]), kind="stable")
        want = np.unique(cand[order[:int(np.ceil(fraction * cand.size))]])
        assert np.array_equal(background.indices, want)

    def test_region_mask_sorts_and_drops_repeats(self):
        mask = RegionMask(GridSpec(4), [[9, 3], [3, 15]], "peak")
        assert mask.indices.tolist() == [3, 9, 15]
        assert mask.indices.dtype == np.int64

    def test_rect_mask(self):
        mask = mask_from_rect(GridSpec(4), (1, 2, 2, 2))
        assert mask.indices.tolist() == [6, 7, 10, 11]

    def test_rect_out_of_bounds(self):
        with pytest.raises(MaskError):
            mask_from_rect(GridSpec(4), (3, 3, 2, 2))


class TestComputeSnr:
    def grid_masks(self):
        grid = GridSpec(4)
        peak = mask_from_rect(grid, (0, 0, 1, 4), role="peak")
        background = mask_from_rect(grid, (2, 0, 2, 4))
        return peak, background

    def test_known_arithmetic(self):
        peak, background = self.grid_masks()
        image = np.zeros((4, 4))
        image[0, :] = 10.0
        image[2:, :] = [[0.0, 4.0, 0.0, 4.0], [4.0, 0.0, 4.0, 0.0]]
        # background mean 2, population std 2, peak mean 10 -> snr 4
        report = compute_snr(image, peak, background)
        assert report.peak_mean == 10.0
        assert report.background_mean == 2.0
        assert report.background_std == 2.0
        assert report.snr == 4.0

    def test_zero_contrast(self):
        peak, background = self.grid_masks()
        image = np.zeros((4, 4))
        image[0, :] = 2.0
        image[2:, :] = [[0.0, 4.0, 0.0, 4.0], [4.0, 0.0, 4.0, 0.0]]
        assert compute_snr(image, peak, background).snr == 0.0

    def test_constant_background_rejected(self):
        peak, background = self.grid_masks()
        image = np.zeros((4, 4))
        image[0, :] = 1.0
        with pytest.raises(DegenerateBackgroundError):
            compute_snr(image, peak, background)

    def test_overlapping_masks_rejected(self):
        grid = GridSpec(4)
        peak = mask_from_rect(grid, (0, 0, 2, 4), role="peak")
        background = mask_from_rect(grid, (1, 0, 2, 4))
        with pytest.raises(MaskError):
            compute_snr(np.ones((4, 4)), peak, background)

    def test_one_shared_pixel_rejected(self):
        # indices given unsorted and repeated still share pixel 9
        grid = GridSpec(4)
        peak = RegionMask(grid, [9, 3, 3, 0], "peak")
        background = RegionMask(grid, [15, 9, 12, 12], "background")
        with pytest.raises(MaskError, match="overlap"):
            compute_snr(np.arange(16.0).reshape(4, 4), peak, background)

    def test_affine_invariance(self, rng):
        peak, background = self.grid_masks()
        image = rng.normal(size=(4, 4))
        base = compute_snr(image, peak, background).snr
        scaled = compute_snr(3.7 * image + 11.0, peak, background).snr
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_report_identity(self, rng):
        peak, background = self.grid_masks()
        image = rng.normal(size=(4, 4))
        report = compute_snr(image, peak, background)
        assert report.snr == pytest.approx(
            (report.peak_mean - report.background_mean) / report.background_std,
            rel=1e-15)


class TestPredictedAmplification:
    def test_edge_kernel(self, edge_kernel):
        assert predicted_amplification(edge_kernel) == 2.0

    def test_identity(self):
        assert predicted_amplification(identity_kernel()) == 1.0

    def test_box(self):
        assert predicted_amplification(Kernel(np.ones((3, 3)))) == 3.0

    def test_matches_measured_ratio(self, rng, edge_kernel):
        ratios = []
        for _ in range(10):
            noise = rng.standard_normal((128, 128))
            ratios.append(cyclic_convolve(noise, edge_kernel).std() / noise.std())
        assert np.mean(ratios) == pytest.approx(
            predicted_amplification(edge_kernel), rel=0.02)


class TestNoiseAutocorrelation:
    def test_delta_image_closed_form(self):
        # mean-subtracted delta: R at any nonzero lag is -1/(m-1)
        n = 8
        image = np.zeros((n, n))
        image[3, 5] = 1.0
        corr = noise_autocorrelation(image)
        assert corr[0, 0] == 1.0
        expected = -1.0 / (n * n - 1)
        off = np.delete(corr.ravel(), 0)
        assert off == pytest.approx(np.full(n * n - 1, expected), abs=1e-12)

    def test_white_noise_is_white(self, rng):
        field = rng.standard_normal((128, 128))
        corr = noise_autocorrelation(field)
        off = corr.copy()
        off[0, 0] = 0.0
        assert np.abs(off).max() <= 0.05

    def test_filtered_noise_matches_kernel_autocorrelation(self, rng, edge_kernel):
        field = cyclic_convolve(rng.standard_normal((128, 128)), edge_kernel)
        corr = noise_autocorrelation(field)
        expected = kernel_autocorrelation(edge_kernel)
        assert corr[1, 1] == pytest.approx(expected[(1, 1)], abs=0.05)
        assert corr[1, -1] == pytest.approx(expected[(1, -1)], abs=0.05)

    def test_constant_image_rejected(self):
        with pytest.raises(NormalizationError):
            noise_autocorrelation(np.full((4, 4), 3.0))


class TestSnrSweep:
    def test_row_count_and_grouping(self, rng, edge_kernel):
        obj = rng.uniform(0.0, 1.0, size=(16, 16))
        noise = NoiseModel(detector_sigma=0.5, seed=2)
        cells = sweep_cells(obj, edge_kernel, noise, (1.0, 2.0, 3.0), 3, sink=drop)
        assert len(cells) == 18
        summaries = summarize_sweep(cells)
        assert len(summaries) == 6
        for summary in summaries:
            group = [c.snr for c in cells
                     if (c.method, c.integration_time_ms)
                     == (summary.method, summary.integration_time_ms)]
            assert len(group) == 3
            assert summary.mean_snr == pytest.approx(np.mean(group))
            assert summary.std_snr == pytest.approx(np.std(group))

    def test_noiseless_rows_match_across_methods(self, rng, edge_kernel):
        obj = rng.uniform(0.0, 1.0, size=(8, 8))
        cells = sweep_cells(obj, edge_kernel, NoiseModel(), (1.0, 2.0), 2, sink=drop)
        post = {(c.integration_time_ms, c.repeat): c.snr
                for c in cells if c.method == POST_PROCESSED}
        basis = {(c.integration_time_ms, c.repeat): c.snr
                 for c in cells if c.method == BASIS_PROCESSED}
        for key, value in post.items():
            assert basis[key] == pytest.approx(value, rel=1e-8)

    def test_deterministic_and_cells_reproducible_alone(self, edge_kernel):
        obj = synth_bar_target(GridSpec(16), 2)
        noise = NoiseModel(detector_sigma=0.5, normalization_sigma=0.2,
                           background_measure=1.0, seed=77)
        times = (2.0, 5.0)
        images, images_again = [], []
        cells = sweep_cells(obj, edge_kernel, noise, times, 2,
                            sink=lambda cell, image: images.append(image))
        again = sweep_cells(obj, edge_kernel, noise, times, 2,
                            sink=lambda cell, image: images_again.append(image))

        def table(sweep):
            return [(c.method, c.integration_time_ms, c.repeat, c.snr) for c in sweep]

        assert table(cells) == table(again)
        assert all(np.array_equal(a, b) for a, b in zip(images, images_again))
        # each cell depends only on its own sub-seed and the sweep's plan, so
        # the sweep's result does not depend on the order its cells run in
        parent = canonical_basis(GridSpec(16))
        post = plan_acquisition(obj, parent, 2)
        basis = plan_acquisition(obj, modify_basis(parent, edge_kernel), 2)
        assert len(cells) == 8
        for cell, image in zip(cells, images):
            seed = derive_seed(noise.seed, METHODS.index(cell.method),
                               times.index(cell.integration_time_ms), cell.repeat)
            cell_noise = replace(noise, seed=seed)
            if cell.method == POST_PROCESSED:
                alone = post_processed_image(post, parent, edge_kernel, cell_noise,
                                             cell.integration_time_ms)
            else:
                alone = basis_processed_image(basis, parent, cell_noise,
                                              cell.integration_time_ms)
            assert np.array_equal(image, alone)

    def test_sink_gets_each_cell_once_in_order(self, edge_kernel):
        obj = synth_bar_target(GridSpec(16), 2)
        noise = NoiseModel(detector_sigma=0.5, seed=3)
        seen = []
        cells = sweep_cells(obj, edge_kernel, noise, (2.0, 5.0), 2,
                            sink=lambda cell, image: seen.append((cell, image.shape)))
        assert [cell for cell, _ in seen] == cells  # the very cells returned
        assert [(c.method, c.integration_time_ms, c.repeat) for c in cells] == [
            (m, t, r) for m in METHODS for t in (2.0, 5.0) for r in (0, 1)]
        assert all(shape == (16, 16) for _, shape in seen)
        assert not hasattr(cells[0], "image")
        with pytest.raises(TypeError, match="sink"):
            sweep_cells(obj, edge_kernel, noise, (2.0,), 1)

    def test_background_rect_is_used(self, edge_kernel):
        obj = synth_bar_target(GridSpec(16), 2)
        noise = NoiseModel(detector_sigma=0.5, seed=5)
        cells = sweep_cells(obj, edge_kernel, noise, (2.0,), 1, sink=drop,
                            background_rect=(2, 11, 12, 3))
        assert len(cells) == 2
        for cell in cells:
            assert cell.report.background_std > 0

    def test_overlapping_background_rect_fails_before_any_plan(self, edge_kernel,
                                                                monkeypatch):
        built = []
        monkeypatch.setattr(analysis_module, "plan_acquisition",
                            lambda *args: built.append(args))
        obj = synth_bar_target(GridSpec(16), 2)
        with pytest.raises(MaskError, match="overlap"):
            sweep_cells(obj, edge_kernel, NoiseModel(), (2.0,), 1, sink=drop,
                        background_rect=(0, 0, 16, 16))
        assert built == []

    def test_sigma3_dominated_config_prefers_basis_route(self, edge_kernel):
        # with strong normalization noise plus measurement background the
        # post-filtered route amplifies the error, the modified-basis route
        # cancels it pattern by pattern
        obj = synth_bar_target(GridSpec(32), 2)
        noise = NoiseModel(detector_sigma=0.75, normalization_sigma=1.5,
                           background_measure=30.0, seed=31)
        cells = sweep_cells(obj, edge_kernel, noise, (10.0, 30.0), 3, sink=drop)
        summaries = {(s.method, s.integration_time_ms): s.mean_snr
                     for s in summarize_sweep(cells)}
        for t in (10.0, 30.0):
            assert summaries[(BASIS_PROCESSED, t)] > summaries[(POST_PROCESSED, t)]
