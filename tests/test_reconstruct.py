"""Reconstruction, the post-filter path, and the two end-to-end pipelines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ghostsim import (
    BASIS_PROCESSED,
    HADAMARD,
    POST_PROCESSED,
    DimensionError,
    GridSpec,
    MeasurementPlan,
    NoiseModel,
    PatternBasis,
    ProtocolError,
    basis_processed_image,
    canonical_basis,
    cyclic_correlate,
    derive_seed,
    hadamard_basis,
    identity_kernel,
    kernel_autocorrelation,
    modify_basis,
    noise_autocorrelation,
    plan_acquisition,
    post_process,
    post_processed_image,
    reconstruct,
)
from oracles import build_operator_matrix, flatten, unflatten

QUIET = NoiseModel()


def relative_error(got, want):
    scale = max(np.abs(want).max(), 1e-30)
    return np.abs(np.asarray(got) - np.asarray(want)).max() / scale


class TestReconstruct:
    def test_canonical_is_reshape(self):
        # the reshape keeps a -0.0, which a product by the identity would
        # sum with 0 * x terms into +0.0
        vec = np.array([1.5, -0.0, 0.0, -2.0])
        image = reconstruct(vec, canonical_basis(GridSpec(2)))
        assert image.tolist() == [[1.5, 0.0], [0.0, -2.0]]
        assert np.signbit(image).tolist() == [[False, True], [False, True]]

    def test_orthonormal_completeness(self, rng):
        grid = GridSpec(4)
        basis = canonical_basis(grid)
        obj = rng.normal(size=(4, 4))
        coeffs = np.array([float(np.sum(np.asarray(p) * obj)) for p in basis.stack])
        assert np.array_equal(reconstruct(coeffs, basis), obj)

    def test_hadamard_completeness_factor(self, rng):
        # oracle: the explicit matrix product of the +/-1 rows with themselves
        grid = GridSpec(4)
        basis = hadamard_basis(grid)
        flat = basis.stack.reshape(len(basis), -1).astype(float)
        assert np.array_equal(flat @ flat.T, 16.0 * np.eye(16))
        obj = rng.normal(size=(4, 4))
        coeffs = flat @ obj.ravel()
        image = reconstruct(coeffs, basis)
        assert relative_error(image, 16.0 * obj) < 1e-12

    def test_count_mismatch(self):
        with pytest.raises(DimensionError):
            reconstruct(np.zeros(5), canonical_basis(GridSpec(2)))

    def test_modified_basis_is_refused(self, edge_kernel):
        # the filter-modified route rebuilds in its parent
        modified = modify_basis(hadamard_basis(GridSpec(4)), edge_kernel)
        with pytest.raises(ProtocolError, match="parent"):
            reconstruct(np.zeros(16), modified)

    def test_records_must_cover_all_patterns(self):
        # coverage is checked once, when the plan is built: one sum of each
        # kind a pattern, and at least one frame a pattern
        grid = GridSpec(2)
        ones = np.ones(4)
        for bad in (np.ones(3), np.ones(5), np.ones((2, 2))):
            for sums in ((bad, ones, ones), (ones, bad, ones), (ones, ones, bad)):
                with pytest.raises(DimensionError, match="one for each of the 4"):
                    MeasurementPlan(grid, *sums, 4)
        with pytest.raises(DimensionError, match="cover each of the 4"):
            MeasurementPlan(grid, ones, ones, ones, 3)
        assert MeasurementPlan(grid, ones, ones, ones, 4).bucket_reads == 4

    @pytest.mark.parametrize("make", [hadamard_basis, canonical_basis])
    def test_factor_not_label_sets_the_image_units(self, make, rng):
        # a parent relabelled "custom" plans as the shipped one does, so it
        # rebuilds the object in the same units (a Hadamard one once came
        # back 64 times the object)
        grid = GridSpec(8)
        parent = PatternBasis(grid, "custom", make(grid).factor)
        obj = rng.random((8, 8))
        for measured in (parent, modify_basis(parent, identity_kernel())):
            plan = plan_acquisition(obj, measured, 2)
            image = basis_processed_image(plan, parent, NoiseModel(), 1.0)
            assert np.abs(image - obj).max() <= 1e-12

    def test_non_orthogonal_parent_is_refused(self, rng):
        # a lower-triangular all-ones factor plans like any other, but its
        # rows are not orthogonal: its noiseless image came back 54 off this
        # object, so reconstruct refuses the set by name.  A signed
        # permutation factor has F F^T = I and rebuilds exactly
        grid = GridSpec(4)
        obj = rng.random((4, 4))
        parent = PatternBasis(grid, "lower", np.tril(np.ones((4, 4), dtype=np.int8)))
        plan = plan_acquisition(obj, parent, 1)
        with pytest.raises(ProtocolError, match="lower.*not orthogonal"):
            basis_processed_image(plan, parent, QUIET, 1.0)
        signed = PatternBasis(grid, "signed", -np.eye(4, dtype=np.int8)[[2, 0, 3, 1]])
        image = basis_processed_image(plan_acquisition(obj, signed, 1), signed, QUIET, 1.0)
        assert np.abs(image - obj).max() <= 1e-12

    def test_canonical_reconstruction_is_a_copy(self):
        vec = np.arange(4.0)
        image = reconstruct(vec, canonical_basis(GridSpec(2)))
        image[0, 0] = 9.0
        assert vec[0] == 0.0


@st.composite
def parent_and_coefficients(draw):
    hadamard = draw(st.booleans())
    side = draw(st.sampled_from([1, 2, 4, 8, 16]) if hadamard
                else st.integers(min_value=1, max_value=12))
    basis = (hadamard_basis if hadamard else canonical_basis)(GridSpec(side))
    coefficients = draw(arrays(float, side * side,
                               elements=st.floats(-1e6, 1e6, allow_subnormal=False)))
    return basis, coefficients


@settings(max_examples=60, deadline=None)
@given(case=parent_and_coefficients())
def test_separable_reconstruction_matches_full_sum(case):
    # oracle: the sum of coefficient_j * pattern_j over the whole float stack
    basis, coefficients = case
    want = np.tensordot(coefficients, basis.stack.astype(float), axes=(0, 0))
    got = reconstruct(coefficients, basis)
    if basis.label == HADAMARD:
        bound = 1e-12 * max(1.0, float(np.abs(coefficients).sum()))
        assert np.abs(got - want).max() <= bound
    else:  # the identity factor keeps a canonical reconstruction exact
        assert np.array_equal(got, want)


class TestPostProcess:
    def test_identity_kernel_is_noop(self, rng):
        image = rng.normal(size=(5, 5))
        assert np.array_equal(post_process(image, identity_kernel()), image)

    def test_zero_sum_kernel_kills_constant(self, edge_kernel):
        assert np.all(post_process(np.full((6, 6), 2.5), edge_kernel) == 0.0)

    def test_orientation_matches_operator_transpose(self, rng, edge_kernel):
        grid = GridSpec(5)
        image = rng.normal(size=(5, 5))
        op = build_operator_matrix(edge_kernel, grid)
        expected = unflatten(op.T @ flatten(image), grid)
        assert post_process(image, edge_kernel) == pytest.approx(expected, abs=1e-12)


class TestPipelineEquality:
    """Noiseless basis-processed and post-processed images are the same image."""

    @pytest.mark.parametrize("side", [4, 8])
    def test_noiseless_equality_canonical(self, side, rng, edge_kernel):
        obj = rng.uniform(0.0, 1.0, size=(side, side))
        grid = GridSpec(side)
        parent = canonical_basis(grid)
        post = post_processed_image(plan_acquisition(obj, parent, 2), parent,
                                    edge_kernel, QUIET, 1.0)
        basis = basis_processed_image(
            plan_acquisition(obj, modify_basis(parent, edge_kernel), 2), parent,
            QUIET, 1.0)
        assert relative_error(basis, post) < 1e-10
        # dense-operator oracle for the shared target
        op = build_operator_matrix(edge_kernel, grid)
        oracle = unflatten(op.T @ flatten(obj), grid)
        assert relative_error(basis, oracle) < 1e-10
        assert relative_error(oracle, cyclic_correlate(obj, edge_kernel)) < 1e-12

    def test_noiseless_equality_hadamard(self, rng, edge_kernel):
        obj = rng.uniform(0.0, 1.0, size=(4, 4))
        parent = hadamard_basis(GridSpec(4))
        post = post_processed_image(plan_acquisition(obj, parent, 2), parent,
                                    edge_kernel, QUIET, 1.0)
        basis = basis_processed_image(
            plan_acquisition(obj, modify_basis(parent, edge_kernel), 2), parent,
            QUIET, 1.0)
        oracle = cyclic_correlate(obj, edge_kernel)
        assert relative_error(post, oracle) < 1e-10
        assert relative_error(basis, oracle) < 1e-10

    def test_plan_must_match_parent_grid(self, edge_kernel):
        plan = plan_acquisition(np.full((2, 2), 0.5), canonical_basis(GridSpec(2)), 2)
        with pytest.raises(DimensionError):
            post_processed_image(plan, canonical_basis(GridSpec(4)), edge_kernel,
                                 QUIET, 1.0)


class TestNoiseCharacter:
    """Measuring through the modified basis leaves the noise white; filtering
    afterwards imprints the kernel's autocorrelation on it."""

    def run_pure_noise(self, method, side, trials, edge_kernel):
        grid = GridSpec(side)
        zero = np.zeros((side, side))
        parent = canonical_basis(grid)
        if method == BASIS_PROCESSED:
            plan = plan_acquisition(zero, modify_basis(parent, edge_kernel), 2)
        else:
            plan = plan_acquisition(zero, parent, 2)
        acc = np.zeros((side, side))
        for i in range(trials):
            noise = NoiseModel(detector_sigma=1.0, seed=derive_seed(404, i))
            if method == BASIS_PROCESSED:
                image = basis_processed_image(plan, parent, noise, 1.0)
            else:
                image = post_processed_image(plan, parent, edge_kernel, noise, 1.0)
            acc += noise_autocorrelation(image)
        return acc / trials

    def test_basis_noise_is_white(self, edge_kernel):
        corr = self.run_pure_noise(BASIS_PROCESSED, 32, 12, edge_kernel)
        off = corr.copy()
        off[0, 0] = 0.0
        assert np.abs(off).max() <= 0.05

    def test_post_noise_carries_kernel_autocorrelation(self, edge_kernel):
        corr = self.run_pure_noise(POST_PROCESSED, 32, 12, edge_kernel)
        expected = kernel_autocorrelation(edge_kernel)
        assert corr[1, 1] == pytest.approx(expected[(1, 1)], abs=0.05)
        assert corr[1, -1] == pytest.approx(expected[(1, -1)], abs=0.05)
        assert corr[0, 2] == pytest.approx(expected[(0, 2)], abs=0.05)
