"""Pattern generation, filter modification, and binary decomposition."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ghostsim.bases as bases_module
from ghostsim import (
    DimensionError,
    GridSpec,
    Kernel,
    UnsupportedSizeError,
    binary_decompose,
    build_operator_matrix,
    canonical_basis,
    cyclic_convolve,
    decompose_basis,
    flatten,
    hadamard_basis,
    identity_kernel,
    modify_basis,
    PatternBasis,
    plan_acquisition,
    projection_count,
    synth_bar_target,
    unflatten,
)


class TestCanonicalBasis:
    def test_first_pattern_is_one_hot(self):
        basis = canonical_basis(GridSpec(2))
        assert basis.pattern(0).tolist() == [[1, 0], [0, 0]]

    def test_partition_of_unity(self):
        basis = canonical_basis(GridSpec(4))
        total = np.sum(np.asarray(basis.stack, dtype=float), axis=0)
        assert np.array_equal(total, np.ones((4, 4)))

    def test_orthonormality(self):
        basis = canonical_basis(GridSpec(3))
        flat = np.asarray(basis.stack, dtype=float).reshape(len(basis), -1)
        assert np.array_equal(flat @ flat.T, np.eye(9))


class TestHadamardBasis:
    def test_single_pixel_grid(self):
        basis = hadamard_basis(GridSpec(1))
        assert len(basis) == 1
        assert basis.pattern(0).tolist() == [[1]]

    def test_two_by_two_rows(self):
        basis = hadamard_basis(GridSpec(2))
        assert basis.pattern(0).tolist() == [[1, 1], [1, 1]]
        assert basis.pattern(1).tolist() == [[1, -1], [1, -1]]
        assert basis.pattern(2).tolist() == [[1, 1], [-1, -1]]
        assert basis.pattern(3).tolist() == [[1, -1], [-1, 1]]

    @pytest.mark.parametrize("side", [2, 4, 8])
    def test_self_orthogonality_exact(self, side):
        # integer product must equal side**2 times the identity, exactly
        basis = hadamard_basis(GridSpec(side))
        flat = basis.stack.reshape(len(basis), -1).astype(np.int64)
        product = flat @ flat.T
        assert np.array_equal(product, side * side * np.eye(len(basis), dtype=np.int64))

    @pytest.mark.parametrize("side", [3, 6, 12])
    def test_non_power_of_two_rejected(self, side):
        with pytest.raises(UnsupportedSizeError):
            hadamard_basis(GridSpec(side))

    @pytest.mark.parametrize("side", [1, 2, 4, 8, 16])
    def test_matches_scipy_sylvester_matrix(self, side):
        linalg = pytest.importorskip("scipy.linalg")
        basis = hadamard_basis(GridSpec(side))
        expected = linalg.hadamard(side * side, dtype=np.int8)
        assert basis.stack.dtype == np.int8
        assert np.array_equal(basis.stack.reshape(side * side, -1), expected)

    def test_entries_are_plus_minus_one(self):
        basis = hadamard_basis(GridSpec(4))
        assert set(np.unique(basis.stack)) == {-1, 1}


def float_stencil(stack: np.ndarray, kernel: Kernel) -> np.ndarray:
    """Reference: the all-float64 roll sum, one ``tap * roll`` term per tap."""
    out = np.zeros(stack.shape, dtype=float)
    for dr, dc, v in kernel.offsets():
        out += v * np.roll(stack, (dr, dc), axis=(-2, -1))
    return out


@st.composite
def parent_and_integer_kernel(draw):
    build = draw(st.sampled_from([canonical_basis, hadamard_basis]))
    side = draw(st.sampled_from([2, 4, 8]) if build is hadamard_basis
                else st.integers(1, 7))
    h = draw(st.sampled_from([h for h in (1, 3, 5) if h <= side]))
    w = draw(st.sampled_from([w for w in (1, 3, 5) if w <= side]))
    taps = draw(st.lists(st.integers(-300, 300), min_size=h * w, max_size=h * w))
    # or taps whose absolute sum sits at the edge of an integer type
    target = draw(st.sampled_from([None, 127, 128, 32767, 32768]))
    if target is not None:
        weights = [abs(v) for v in taps]
        weights[draw(st.integers(0, h * w - 1))] += 1
        parts = [target * wt // sum(weights) for wt in weights]
        parts[weights.index(max(weights))] += target - sum(parts)
        signs = draw(st.sampled_from(["+", "-", "mixed"]))
        taps = [p if signs == "+" or (signs == "mixed" and v >= 0) else -p
                for p, v in zip(parts, taps)]
    return build(GridSpec(side)), Kernel(np.reshape(taps, (h, w)))


class TestModifyBasisDtype:
    @settings(max_examples=60, deadline=None)
    @given(case=parent_and_integer_kernel())
    def test_integer_kernel_keeps_an_exact_integer_stack(self, case):
        parent, kernel = case
        modified = modify_basis(parent, kernel).stack
        assert np.issubdtype(modified.dtype, np.integer)
        assert np.array_equal(modified, float_stencil(parent.stack, kernel))
        op = build_operator_matrix(kernel, parent.grid)
        rows = parent.stack.reshape(len(parent), -1).astype(float)
        assert np.array_equal(modified.reshape(len(parent), -1), rows @ op.T)

    def test_edge_stencil_stays_int8_on_both_parents(self, edge_kernel):
        for build in (canonical_basis, hadamard_basis):
            assert modify_basis(build(GridSpec(8)), edge_kernel).stack.dtype == np.int8

    @pytest.mark.parametrize("build, taps, dtype", [
        (hadamard_basis, [[64, 0, 63]], np.int8),
        (hadamard_basis, [[64, 0, 64]], np.int16),
        (canonical_basis, [[127]], np.int8),
        (canonical_basis, [[128]], np.int16),
        (hadamard_basis, [[16384, 0, 16383]], np.int16),
        (hadamard_basis, [[16384, 0, 16384]], np.int32),
    ])
    def test_sum_at_the_edge_of_a_type_is_widened(self, build, taps, dtype):
        # the all-ones Hadamard row and a one-hot pattern both reach +bound
        parent, kernel = build(GridSpec(4)), Kernel(taps)
        modified = modify_basis(parent, kernel).stack
        assert modified.dtype == dtype
        assert np.array_equal(modified, float_stencil(parent.stack, kernel))
        assert modified.max() == np.abs(taps).sum()

    @pytest.mark.parametrize("taps", [[[0.5, -1.0, 0.25]], [[1e-3]], [[2.0**60, -1.0, 3.0]]])
    def test_other_kernels_give_the_float64_sum(self, taps, rng):
        parent = hadamard_basis(GridSpec(4))
        kernel = Kernel(taps)
        modified = modify_basis(parent, kernel).stack
        assert modified.dtype == np.float64
        assert np.array_equal(modified, float_stencil(parent.stack, kernel))
        image = rng.normal(size=(4, 4))
        assert np.array_equal(cyclic_convolve(image, kernel), float_stencil(image, kernel))

    def test_large_integral_taps_do_not_overflow(self):
        parent = hadamard_basis(GridSpec(4))
        kernel = Kernel([[2.0**40, -(2.0**40), 2.0**40]])
        modified = modify_basis(parent, kernel).stack
        assert modified.dtype == np.int64
        assert np.array_equal(modified, float_stencil(parent.stack, kernel))
        assert np.abs(modified).max() == 3 * 2**40

    def test_peak_memory_stays_near_the_parent_size(self, edge_kernel):
        parent = canonical_basis(GridSpec(32))
        tracemalloc.start()
        try:
            modify_basis(parent, edge_kernel)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * parent.stack.nbytes


class TestModifyBasis:
    def test_identity_kernel_keeps_patterns(self):
        basis = canonical_basis(GridSpec(4))
        modified = modify_basis(basis, identity_kernel())
        assert np.array_equal(modified.stack, basis.stack)
        assert modified.label == "modified(canonical,identity)"

    def test_matches_per_pattern_convolution(self, edge_kernel):
        basis = canonical_basis(GridSpec(5))
        modified = modify_basis(basis, edge_kernel)
        for j in range(len(basis)):
            expected = cyclic_convolve(np.asarray(basis.pattern(j), float), edge_kernel)
            assert modified.pattern(j) == pytest.approx(expected, abs=1e-12)

    def test_one_hot_pattern_gets_the_stamp(self, edge_kernel):
        grid = GridSpec(5)
        modified = modify_basis(canonical_basis(grid), edge_kernel)
        stamp = modified.pattern(2 * 5 + 2)
        assert stamp[1, 2] == -1.0
        assert stamp[2, 1] == -1.0
        assert stamp[2, 3] == 1.0
        assert stamp[3, 2] == 1.0

    def test_matches_dense_operator(self, edge_kernel):
        # modified pattern j equals the operator applied to pattern j
        grid = GridSpec(4)
        basis = canonical_basis(grid)
        op = build_operator_matrix(edge_kernel, grid)
        modified = modify_basis(basis, edge_kernel)
        for j in range(len(basis)):
            expected = unflatten(op @ flatten(np.asarray(basis.pattern(j), float)), grid)
            assert modified.pattern(j) == pytest.approx(expected, abs=1e-12)

    def test_hadamard_parent(self, edge_kernel, rng):
        grid = GridSpec(4)
        basis = hadamard_basis(grid)
        modified = modify_basis(basis, edge_kernel)
        j = int(rng.integers(len(basis)))
        expected = cyclic_convolve(np.asarray(basis.pattern(j), float), edge_kernel)
        assert modified.pattern(j) == pytest.approx(expected, abs=1e-12)

    def test_modified_canonical_values_come_from_taps(self, edge_kernel):
        modified = modify_basis(canonical_basis(GridSpec(8)), edge_kernel)
        allowed = set(edge_kernel.taps.ravel().tolist()) | {0.0}
        assert set(np.unique(modified.stack).tolist()) <= allowed


class TestBinaryDecompose:
    def test_one_hot_is_single_part(self):
        basis = canonical_basis(GridSpec(3))
        sub = binary_decompose(basis.pattern(4), 4)
        assert sub.part_count == 1
        assert sub.parts[0][1] == 1.0
        assert np.array_equal(sub.recombine(), np.asarray(basis.pattern(4), float))

    def test_edge_modified_canonical_has_two_parts(self, edge_kernel):
        modified = modify_basis(canonical_basis(GridSpec(8)), edge_kernel)
        for j in range(len(modified)):
            sub = binary_decompose(modified.pattern(j), j)
            assert sub.part_count == 2
            assert [w for _, w in sub.parts] == [1.0, -1.0]

    def test_recombination_is_exact(self, rng):
        pattern = rng.choice([-1.0, 0.0, 1.0], size=(6, 6))
        sub = binary_decompose(pattern)
        assert np.array_equal(sub.recombine(), pattern)

    def test_parts_are_binary(self, rng):
        pattern = rng.choice([-2.0, -0.5, 0.0, 1.5], size=(5, 5))
        sub = binary_decompose(pattern)
        for part, weight in sub.parts:
            assert set(np.unique(part)) <= {0, 1}
            assert weight != 0.0
        assert np.array_equal(sub.recombine(), pattern)

    def test_all_zero_pattern(self):
        sub = binary_decompose(np.zeros((4, 4)))
        assert sub.part_count == 1
        assert sub.parts[0][1] == 0.0
        assert np.array_equal(sub.recombine(), np.zeros((4, 4)))

    def test_round_trip_over_both_parents(self, edge_kernel):
        # exact (not toleranced) recombination for every modified pattern
        for parent in (canonical_basis(GridSpec(4)), hadamard_basis(GridSpec(4))):
            modified = modify_basis(parent, edge_kernel)
            for sub in decompose_basis(modified):
                assert np.array_equal(
                    sub.recombine(), np.asarray(modified.pattern(sub.parent_index))
                )


def assert_same_decomposition(got, want):
    """``got`` holds exactly the parts, weights and order of ``want``; each
    part is a read-only uint8 image and each weight a Python float."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.parent_index == w.parent_index
        assert [wt for _, wt in g.parts] == [wt for _, wt in w.parts]
        assert all(type(wt) is float for _, wt in g.parts)
        for (g_part, _), (w_part, _) in zip(g.parts, w.parts):
            assert g_part.dtype == np.uint8
            assert not g_part.flags.writeable
            assert np.array_equal(g_part, w_part)


# value sets per stack kind: levels within the integer scan, an integer range
# wider than it, integers past 2**53 that float64 merges, non-integral
# floats, and many distinct floats; all but the first go pattern by pattern
STACK_KINDS = {
    "int8": (np.int8, st.integers(-5, 5)),
    "int16-wide": (np.int16, st.integers(-300, 300)),
    "int64-huge": (np.int64, st.sampled_from([0, 5, -7, -(2**55) - 3, 2**60, 2**60 + 1])),
    "float-taps": (float, st.sampled_from([0.0, -0.0, 0.5, -1.25, 0.1 + 0.2, 0.3, 3.0])),
    "float-many": (float, st.floats(-1e3, 1e3, allow_subnormal=False)),
}


@st.composite
def pattern_stacks(draw):
    side = draw(st.integers(1, 6))
    dtype, elements = STACK_KINDS[draw(st.sampled_from(sorted(STACK_KINDS)))]
    stack = draw(arrays(dtype, (side * side, side, side), elements=elements))
    stack[draw(st.lists(st.integers(0, side * side - 1), max_size=side))] = 0
    return PatternBasis(GridSpec(side), stack, "custom")


class TestDecomposeBasis:
    @settings(max_examples=150, deadline=None)
    @given(basis=pattern_stacks(), scan_elements=st.sampled_from([1, 7, 40, 1 << 18]))
    def test_matches_pattern_by_pattern(self, basis, scan_elements):
        # small scan blocks split the stack into many row blocks
        want = [binary_decompose(p, j) for j, p in enumerate(basis)]
        with mock.patch.object(bases_module, "_SCAN_ELEMENTS", scan_elements):
            got = decompose_basis(basis)
            count = projection_count(basis, 1)
        assert_same_decomposition(got, want)
        assert count == sum(sub.part_count for sub in want)

    @pytest.mark.parametrize("taps", [[[0, -1, 0], [-1, 0, 1], [0, 1, 0]],
                                      [[0.5, -1.0, 0.25]], [[64, 0, 64]]])
    @pytest.mark.parametrize("build", [canonical_basis, hadamard_basis])
    def test_modified_bases(self, build, taps):
        modified = modify_basis(build(GridSpec(8)), Kernel(taps))
        want = [binary_decompose(p, j) for j, p in enumerate(modified)]
        assert_same_decomposition(decompose_basis(modified), want)

    @pytest.mark.parametrize("dtype", [float, np.int32])
    def test_blocks_with_many_levels(self, dtype, rng):
        # thousands of distinct values: each block is split pattern by pattern
        stack = (rng.normal(size=(64, 8, 8)) * 1e4).astype(dtype)
        stack[5] = 0
        basis = PatternBasis(GridSpec(8), stack, "custom")
        want = [binary_decompose(p, j) for j, p in enumerate(basis)]
        assert_same_decomposition(decompose_basis(basis), want)
        assert projection_count(basis, 1) == sum(sub.part_count for sub in want)

    def test_working_memory_stays_below_one_stack_mask(self, edge_kernel):
        # building the plan may peak at little beyond the parts it
        # decomposes: their bytes and their Python objects.  A whole-stack
        # bool mask per level would add 1 MiB each at side 32.
        grid = GridSpec(32)
        modified = modify_basis(hadamard_basis(grid), edge_kernel)
        obj = synth_bar_target(grid, 2)
        part_bytes = sum(p.nbytes for sub in decompose_basis(modified)
                         for p, _ in sub.parts)
        tracemalloc.start()
        try:
            plan = plan_acquisition(obj, modified, 1)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert plan.bucket_reads == 3836
        assert peak <= 1.5 * part_bytes + 2**20
        # the plan keeps none of the parts (free lists make up most of held)
        assert held <= 0.25 * part_bytes


class TestProjectionCount:
    def test_canonical_with_repeats(self):
        assert projection_count(canonical_basis(GridSpec(8)), 2) == 128

    def test_edge_modified_canonical(self, edge_kernel):
        modified = modify_basis(canonical_basis(GridSpec(8)), edge_kernel)
        assert projection_count(modified, 1) == 128

    def test_identity_modified(self):
        modified = modify_basis(canonical_basis(GridSpec(8)), identity_kernel())
        assert projection_count(modified, 1) == 64

    @pytest.mark.parametrize("repeats", [1, 2, 3])
    @pytest.mark.parametrize("build", [canonical_basis, hadamard_basis])
    def test_counts_the_frames_the_plans_project(self, build, repeats, edge_kernel):
        grid = GridSpec(4)
        parent = build(grid)
        obj = np.linspace(0.0, 1.0, 16).reshape(4, 4)
        modified = modify_basis(parent, edge_kernel)
        post = plan_acquisition(obj, parent, repeats)
        basis = plan_acquisition(obj, modified, repeats)
        assert projection_count(parent, repeats) == post.bucket_reads
        assert projection_count(modified, repeats) == basis.bucket_reads

    def test_invalid_repeats(self):
        with pytest.raises(ValueError):
            projection_count(canonical_basis(GridSpec(2)), 0)


def test_float_stack_must_be_finite():
    stack = np.eye(4).reshape(4, 2, 2)
    stack[1, 0, 0] = np.nan
    with pytest.raises(DimensionError):
        PatternBasis(GridSpec(2), stack, "custom")
    assert PatternBasis(GridSpec(2), np.eye(4, dtype=np.int8).reshape(4, 2, 2),
                        "custom").stack.dtype == np.int8


def test_basis_stack_is_frozen():
    basis = canonical_basis(GridSpec(2))
    with pytest.raises(ValueError):
        basis.stack[0, 0, 0] = 5
