"""Grid arithmetic, cyclic filtering, and the dense operator oracle.

The independent oracles here are brute-force index-arithmetic loops; the
library paths must agree with them, not with each other.  The dense
operator and ``flatten``/``unflatten`` live in ``tests/oracles.py``; they
are checked here against the stencil before other tests lean on them.
"""

import numpy as np
import pytest

from ghostsim import (
    KERNEL_PRESETS,
    DimensionError,
    GridSpec,
    Kernel,
    NormalizationError,
    cyclic_convolve,
    cyclic_correlate,
    filter_energy,
    kernel_autocorrelation,
)
from oracles import build_operator_matrix, flatten, unflatten


def brute_convolve(image: np.ndarray, kernel: Kernel) -> np.ndarray:
    """Oracle: direct evaluation of out[p] = sum_q K[q] * image[(p-q) % n]."""
    n = image.shape[0]
    ch, cw = (kernel.height - 1) // 2, (kernel.width - 1) // 2
    out = np.zeros_like(image, dtype=float)
    for r in range(n):
        for c in range(n):
            acc = 0.0
            for i in range(kernel.height):
                for j in range(kernel.width):
                    dr, dc = i - ch, j - cw
                    acc += kernel.taps[i, j] * image[(r - dr) % n, (c - dc) % n]
            out[r, c] = acc
    return out


def brute_correlate(image: np.ndarray, kernel: Kernel) -> np.ndarray:
    """Oracle: direct evaluation of out[p] = sum_q K[q] * image[(p+q) % n]."""
    n = image.shape[0]
    ch, cw = (kernel.height - 1) // 2, (kernel.width - 1) // 2
    out = np.zeros_like(image, dtype=float)
    for r in range(n):
        for c in range(n):
            acc = 0.0
            for i in range(kernel.height):
                for j in range(kernel.width):
                    dr, dc = i - ch, j - cw
                    acc += kernel.taps[i, j] * image[(r + dr) % n, (c + dc) % n]
            out[r, c] = acc
    return out


class TestGridSpec:
    def test_pixel_count(self):
        assert GridSpec(4).pixel_count == 16

    @pytest.mark.parametrize("side", [0, -3, 2.5, "4"])
    def test_invalid_side(self, side):
        with pytest.raises(DimensionError):
            GridSpec(side)


class TestKernel:
    def test_even_dimensions_rejected(self):
        with pytest.raises(DimensionError):
            Kernel([[1, 2], [3, 4]])

    def test_non_finite_rejected(self):
        with pytest.raises(DimensionError):
            Kernel([[np.nan]])

    def test_presets(self, edge_kernel, unit_kernel):
        assert KERNEL_PRESETS["edge-eq3"]() == edge_kernel
        assert KERNEL_PRESETS["identity"]() == unit_kernel
        assert sorted(KERNEL_PRESETS) == ["edge-eq3", "identity"]


class TestFlatten:
    def test_row_major_order(self):
        image = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert flatten(image).tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_single_pixel(self):
        assert flatten([[7.0]]).tolist() == [7.0]

    def test_round_trip_exact(self, rng):
        image = rng.normal(size=(4, 4))
        assert np.array_equal(unflatten(flatten(image), GridSpec(4)), image)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            unflatten(np.zeros(5), GridSpec(2))
        with pytest.raises(DimensionError):
            flatten(np.zeros((2, 3)))


class TestCyclicConvolve:
    def test_identity_kernel_is_noop(self, unit_kernel, rng):
        image = rng.normal(size=(6, 6))
        assert np.array_equal(cyclic_convolve(image, unit_kernel), image)

    def test_zero_sum_kernel_kills_constants(self, edge_kernel):
        image = np.full((8, 8), 3.7)
        assert np.all(cyclic_convolve(image, edge_kernel) == 0.0)

    def test_delta_stamp(self, edge_kernel):
        # frozen from the brute-force oracle below
        delta = np.zeros((5, 5))
        delta[2, 2] = 1.0
        out = cyclic_convolve(delta, edge_kernel)
        expected = brute_convolve(delta, edge_kernel)
        assert np.array_equal(out, expected)
        assert out[1, 2] == -1.0
        assert out[2, 1] == -1.0
        assert out[2, 3] == 1.0
        assert out[3, 2] == 1.0
        assert out[2, 2] == 0.0

    def test_matches_brute_force(self, rng):
        for _ in range(5):
            image = rng.normal(size=(6, 6))
            kernel = Kernel(rng.normal(size=(3, 3)))
            assert cyclic_convolve(image, kernel) == pytest.approx(
                brute_convolve(image, kernel), abs=1e-12)

    def test_kernel_too_large(self, rng):
        with pytest.raises(DimensionError):
            cyclic_convolve(np.zeros((3, 3)), Kernel(np.ones((5, 5))))

    def test_linearity(self, rng, edge_kernel):
        x = rng.normal(size=(8, 8))
        y = rng.normal(size=(8, 8))
        a, b = 1.7, -0.4
        left = cyclic_convolve(a * x + b * y, edge_kernel)
        right = a * cyclic_convolve(x, edge_kernel) + b * cyclic_convolve(y, edge_kernel)
        assert left == pytest.approx(right, abs=1e-12)


class TestCyclicCorrelate:
    def test_symmetric_kernel_equals_convolve(self, rng):
        box = Kernel(np.ones((3, 3)))
        image = rng.normal(size=(5, 5))
        assert cyclic_correlate(image, box) == pytest.approx(
            cyclic_convolve(image, box), abs=1e-12)

    def test_edge_kernel_negates_convolution(self, edge_kernel, rng):
        image = rng.normal(size=(6, 6))
        assert cyclic_correlate(image, edge_kernel) == pytest.approx(
            -cyclic_convolve(image, edge_kernel), abs=1e-12)

    def test_equals_convolve_with_rotated_kernel(self, rng):
        image = rng.normal(size=(4, 4))
        kernel = Kernel(rng.normal(size=(3, 3)))
        assert cyclic_correlate(image, kernel) == pytest.approx(
            brute_correlate(image, kernel), abs=1e-12)
        assert cyclic_correlate(image, kernel) == pytest.approx(
            cyclic_convolve(image, Kernel(kernel.taps[::-1, ::-1])), abs=1e-12)


class TestOperatorMatrix:
    def test_identity_kernel_gives_identity(self, unit_kernel):
        op = build_operator_matrix(unit_kernel, GridSpec(3))
        assert np.array_equal(op, np.eye(9))

    def test_rows_hold_the_taps(self, edge_kernel):
        op = build_operator_matrix(edge_kernel, GridSpec(4))
        for row in op:
            nonzero = np.sort(row[row != 0.0])
            assert nonzero.tolist() == [-1.0, -1.0, 1.0, 1.0]

    def test_apply_equals_stencil(self, rng, edge_kernel):
        grid = GridSpec(4)
        op = build_operator_matrix(edge_kernel, grid)
        image = rng.normal(size=(4, 4))
        applied = unflatten(op @ flatten(image), grid)
        assert applied == pytest.approx(cyclic_convolve(image, edge_kernel), abs=1e-12)

    def test_equivalence_over_random_pairs(self, rng):
        # operator application and the stencil path must agree everywhere
        for _ in range(100):
            n = int(rng.choice([3, 4, 5, 8]))
            grid = GridSpec(n)
            kernel = Kernel(rng.normal(size=(3, 3)))
            image = rng.normal(size=(n, n))
            op = build_operator_matrix(kernel, grid)
            assert unflatten(op @ flatten(image), grid) == pytest.approx(
                cyclic_convolve(image, kernel), abs=1e-12)

    def test_transpose_is_correlation(self, rng, edge_kernel):
        for n in (3, 5, 8):
            grid = GridSpec(n)
            op = build_operator_matrix(edge_kernel, grid)
            image = rng.normal(size=(n, n))
            assert op.T @ flatten(image) == pytest.approx(
                flatten(cyclic_correlate(image, edge_kernel)), abs=1e-12)

    def test_block_circulant_structure(self, edge_kernel):
        # row p of the operator is row 0 cyclically shifted by p (2-D shift)
        n = 4
        op = build_operator_matrix(edge_kernel, GridSpec(n))
        base = op[:, 0].reshape(n, n)
        for j in range(n * n):
            col = op[:, j].reshape(n, n)
            assert np.array_equal(col, np.roll(base, (j // n, j % n), axis=(0, 1)))


class TestFilterEnergy:
    def test_edge_kernel_energy(self, edge_kernel):
        assert filter_energy(edge_kernel) == 4.0

    def test_identity_energy(self, unit_kernel):
        assert filter_energy(unit_kernel) == 1.0

    def test_box_energy(self):
        assert filter_energy(Kernel(np.ones((3, 3)))) == 9.0

    def test_white_noise_amplification(self, rng, edge_kernel):
        # std of filtered white noise grows by sqrt(energy)
        expected = np.sqrt(filter_energy(edge_kernel))
        ratios = []
        for _ in range(10):
            noise = rng.standard_normal((128, 128))
            ratios.append(cyclic_convolve(noise, edge_kernel).std() / noise.std())
        assert np.mean(ratios) == pytest.approx(expected, rel=0.02)


class TestKernelAutocorrelation:
    def overlap_oracle(self, kernel: Kernel, dr: int, dc: int) -> float:
        taps = kernel.taps
        h, w = taps.shape
        acc = 0.0
        for i in range(h):
            for j in range(w):
                if 0 <= i + dr < h and 0 <= j + dc < w:
                    acc += taps[i, j] * taps[i + dr, j + dc]
        return acc / filter_energy(kernel)

    def test_zero_lag_is_one(self, rng):
        kernel = Kernel(rng.normal(size=(3, 3)))
        assert kernel_autocorrelation(kernel)[(0, 0)] == 1.0

    def test_edge_kernel_lags(self, edge_kernel):
        corr = kernel_autocorrelation(edge_kernel)
        assert corr[(1, 1)] == -0.5
        assert corr[(1, -1)] == 0.5
        assert corr[(0, 1)] == 0.0
        assert corr[(1, 0)] == 0.0
        assert corr[(0, 2)] == -0.25
        for lag, value in corr.items():
            assert value == pytest.approx(
                self.overlap_oracle(edge_kernel, *lag), abs=1e-15)

    def test_zero_kernel_rejected(self):
        with pytest.raises(NormalizationError):
            kernel_autocorrelation(Kernel([[0.0]]))


def test_zero_sum_kernels_annihilate_constants(rng, edge_kernel):
    # taps in {-1, 0, 1} cancel bit-exactly on constants (partial sums stay
    # at representable multiples of the constant); general zero-sum kernels
    # cancel to rounding noise
    for _ in range(20):
        image = np.full((6, 6), float(rng.uniform(-5, 5)))
        assert np.all(cyclic_convolve(image, edge_kernel) == 0.0)
    horizontal = Kernel([[1.0, 0.0, -1.0]])
    assert np.all(cyclic_convolve(np.full((5, 5), 2.2473833), horizontal) == 0.0)
    for _ in range(20):
        taps = rng.normal(size=(3, 3))
        taps[1, 1] -= taps.sum()
        image = np.full((6, 6), float(rng.uniform(-5, 5)))
        out = cyclic_convolve(image, Kernel(taps))
        assert np.abs(out).max() < 1e-13 * max(1.0, np.abs(image).max())
