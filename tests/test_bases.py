"""Pattern generation, filter modification, and binary decomposition."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ghostsim.bases as bases_module
import ghostsim.bench as bench_module
from ghostsim import (
    Decomposition,
    DimensionError,
    GridSpec,
    Kernel,
    UnsupportedSizeError,
    canonical_basis,
    cyclic_convolve,
    cyclic_correlate,
    decompose_basis,
    hadamard_basis,
    identity_kernel,
    modify_basis,
    PatternBasis,
    plan_acquisition,
    ProtocolError,
    projection_count,
    synth_bar_target,
    write_pgm,
)
from oracles import (
    binary_decompose,
    build_operator_matrix,
    flatten,
    frame_overlaps,
    part_images,
    part_overlaps,
    pattern_sums,
    recombine,
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
        # the closed form of the Sylvester matrix that scipy.linalg.hadamard
        # builds: H[i, j] = (-1)**popcount(i & j)
        n = side * side
        i, j = np.indices((n, n))
        expected = np.array([1 - 2 * (bin(v).count("1") % 2) for v in (i & j).ravel()])
        basis = hadamard_basis(GridSpec(side))
        assert np.array_equal(basis.stack.reshape(n, -1), expected.reshape(n, n))

    def test_entries_are_plus_minus_one(self):
        basis = hadamard_basis(GridSpec(4))
        assert set(np.unique(basis.stack)) == {-1, 1}

    @pytest.mark.parametrize("side", [4, 16, 64])
    def test_kronecker_square_of_the_factor_is_the_sylvester_doubling(self, side):
        h = np.ones((1, 1), dtype=np.int8)
        while h.shape[0] < side * side:
            h = np.block([[h, h], [h, -h]])
        assert np.array_equal(hadamard_basis(GridSpec(side)).stack.reshape(h.shape), h)


class TestFactor:
    """Pattern ``r * side + c`` of a parent, or of its filter-modified set,
    is ``kernel * outer(F[r], F[c])`` for the basis's factor and kernel."""

    @pytest.mark.parametrize("build, side", [(canonical_basis, 5), (hadamard_basis, 8)])
    @pytest.mark.parametrize("taps", [None, [[0, -1, 0], [-1, 0, 1], [0, 1, 0]],
                                      [[2, -3, 0], [0, 1, 0], [5, 0, -1]],
                                      [[0.5, -1.25, 3.0]]],
                             ids=["parent", "edge-eq3", "integral", "non-integral"])
    def test_stack_is_the_kernel_times_outer_products_of_the_factor(self, build, side,
                                                                    taps):
        basis = build(GridSpec(side))
        if taps is not None:
            basis = modify_basis(basis, Kernel(taps))
        f = basis.factor
        assert f.shape == (side, side)
        for j, pattern in enumerate(basis.stack):
            want = np.outer(f[j // side], f[j % side])
            if basis.kernel is not None:
                want = cyclic_convolve(want, basis.kernel)
            assert np.array_equal(pattern, want), j

    def test_factor_and_kernel_are_recorded_once(self, edge_kernel):
        grid = GridSpec(4)
        for build, f in ((canonical_basis, np.eye(4)),
                         (hadamard_basis, [[1, 1, 1, 1], [1, -1, 1, -1],
                                           [1, 1, -1, -1], [1, -1, -1, 1]])):
            parent = build(grid)
            assert np.array_equal(parent.factor, f) and parent.kernel is None
            modified = modify_basis(parent, edge_kernel)
            assert modified.factor is parent.factor and modified.kernel == edge_kernel
            # a set modified twice is its parent modified once, by the
            # convolution of the two kernels
            with pytest.raises(ProtocolError, match="already filter-modified"):
                modify_basis(modified, edge_kernel)

    def test_factor_must_be_side_by_side_and_is_frozen(self):
        grid = GridSpec(2)
        with pytest.raises(DimensionError, match="factor"):
            PatternBasis(grid, "custom", np.eye(4, dtype=np.int8))
        basis = PatternBasis(grid, "custom", np.eye(2, dtype=np.int8))
        with pytest.raises(ValueError):
            basis.factor[0, 0] = 5


def float_stencil(stack: np.ndarray, kernel: Kernel, sign: int = 1) -> np.ndarray:
    """Reference: the all-float64 whole-stack roll sum, one ``tap * roll``
    term per tap; ``sign = 1`` convolves, ``sign = -1`` correlates."""
    out = np.zeros(stack.shape, dtype=float)
    for dr, dc, v in kernel.offsets():
        out += v * np.roll(stack, (sign * dr, sign * dc), axis=(-2, -1))
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


@st.composite
def parent_and_float_kernel(draw):
    """A parent and up to 5x5 taps, one of them at least non-integral:
    eighths, whose every partial sum is exact, or any floats."""
    build = draw(st.sampled_from([canonical_basis, hadamard_basis]))
    side = draw(st.sampled_from([2, 4, 8]) if build is hadamard_basis
                else st.integers(1, 7))
    h = draw(st.sampled_from([h for h in (1, 3, 5) if h <= side]))
    w = draw(st.sampled_from([w for w in (1, 3, 5) if w <= side]))
    eighths = draw(st.booleans())
    values = (st.integers(-80, 80).map(lambda k: k / 8) if eighths
              else st.floats(-1e3, 1e3))
    taps = draw(st.lists(values, min_size=h * w, max_size=h * w))
    assume(any(v != int(v) for v in taps))
    return build(GridSpec(side)), Kernel(np.reshape(taps, (h, w))), eighths


def exact_stencil(stack: np.ndarray, kernel: Kernel, sign: int = 1) -> np.ndarray:
    """Reference for integral taps: the int64 whole-stack roll sum, which
    holds every integer level exactly."""
    stack = stack.astype(np.int64)
    return sum((int(v) * np.roll(stack, (sign * dr, sign * dc), axis=(-2, -1))
                for dr, dc, v in kernel.offsets()), np.zeros_like(stack))


class TestModifyBasisDtype:
    def test_every_set_is_float64(self, edge_kernel):
        # a parent's levels, patterns and stack, and those of its sets
        # modified by integral or non-integral taps
        for build in (canonical_basis, hadamard_basis):
            parent = build(GridSpec(8))
            for basis in (parent, modify_basis(parent, edge_kernel),
                          modify_basis(parent, Kernel([[0.5, -1.0, 0.25]]))):
                assert basis._form.level.dtype == np.float64
                assert basis.pattern(5).dtype == basis.stack.dtype == np.float64

    @pytest.mark.parametrize("build, digest", [
        (canonical_basis, ("eeebce747cce402b090e991d3b5d33cb2e2cdd3f311caed4f47257f7f7606008",
                           "225c98c4d31d643c55345036687321d0c010a25cc78644247491f67990e0ccc6")),
        (hadamard_basis, ("bf2db8019f5e9744ac93369053975022c1204c13369b079e2c3ba374658555b4",
                          "14370b4dcf9b3d6fb81b04e9b5c0dc64b9e8802e2f35e65e791a3e2fd0bd4394")),
    ])
    def test_pattern_graymaps_are_pinned(self, build, digest, edge_kernel, tmp_path):
        # every side-8 pattern of a parent and of its edge-modified set
        # gives the graymap and sidecar bytes the int8 patterns gave
        parent = build(GridSpec(8))
        for basis, want in zip((parent, modify_basis(parent, edge_kernel)), digest):
            h = hashlib.sha256()
            for j in range(len(basis)):
                for path in write_pgm(tmp_path / "pattern.pgm", basis.pattern(j)):
                    h.update(path.read_bytes())
            assert h.hexdigest() == want, basis.label

    @settings(max_examples=60, deadline=None)
    @given(case=parent_and_integer_kernel())
    def test_integer_kernel_keeps_an_exact_integer_stack(self, case):
        parent, kernel = case
        modified = modify_basis(parent, kernel).stack
        assert np.array_equal(modified, exact_stencil(parent.stack, kernel))
        assert np.array_equal(modified, float_stencil(parent.stack, kernel))
        op = build_operator_matrix(kernel, parent.grid)
        rows = parent.stack.reshape(len(parent), -1)
        assert np.array_equal(modified.reshape(len(parent), -1), rows @ op.T)

    @settings(max_examples=80, deadline=None)
    @given(case=parent_and_float_kernel())
    def test_float_kernel_gives_the_float64_roll_sum(self, case):
        # the stack read off the window form has the bits of the float64
        # roll sum, tap by tap; the dense product sums in its own order, so
        # it has the same bits where every partial sum is exact (eighths)
        # and is within the rounding of a 25-term sum otherwise
        parent, kernel, eighths = case
        modified = modify_basis(parent, kernel).stack
        assert np.array_equal(modified, float_stencil(parent.stack, kernel))
        op = build_operator_matrix(kernel, parent.grid)
        rows = parent.stack.reshape(len(parent), -1)
        dense = (rows @ op.T).reshape(modified.shape)
        if eighths:
            assert np.array_equal(modified, dense)
        else:
            bound = 32 * np.finfo(float).eps * np.abs(kernel.taps).sum()
            assert np.allclose(modified, dense, rtol=0.0, atol=bound)

    @pytest.mark.parametrize("build, taps", [
        (hadamard_basis, [[64, 0, 63]]),
        (hadamard_basis, [[64, 0, 64]]),
        (canonical_basis, [[127]]),
        (canonical_basis, [[128]]),
        (hadamard_basis, [[16384, 0, 16383]]),
        (hadamard_basis, [[16384, 0, 16384]]),
        (hadamard_basis, [[2**40, 0, 2**40]]),
    ])
    def test_sum_at_the_edge_of_a_type_is_exact(self, build, taps):
        # the all-ones Hadamard row and a one-hot pattern both reach
        # +sum(|taps|), one past an integer type's top for the even sums
        parent, kernel = build(GridSpec(4)), Kernel(taps)
        modified = modify_basis(parent, kernel).stack
        assert np.array_equal(modified, exact_stencil(parent.stack, kernel))
        assert np.array_equal(modified, float_stencil(parent.stack, kernel))
        assert modified.max() == np.abs(taps).sum()

    @pytest.mark.parametrize("taps", [[[0.5, -1.0, 0.25]], [[1e-3]], [[2.0**60, -1.0, 3.0]]])
    def test_other_kernels_give_the_float64_sum(self, taps, rng):
        parent = hadamard_basis(GridSpec(4))
        kernel = Kernel(taps)
        modified = modify_basis(parent, kernel).stack
        assert np.array_equal(modified, float_stencil(parent.stack, kernel))
        image = rng.normal(size=(4, 4))
        assert np.array_equal(cyclic_convolve(image, kernel), float_stencil(image, kernel))

    def test_large_integral_taps_do_not_overflow(self):
        parent = hadamard_basis(GridSpec(4))
        kernel = Kernel([[2.0**40, -(2.0**40), 2.0**40]])
        modified = modify_basis(parent, kernel).stack
        assert np.array_equal(modified, exact_stencil(parent.stack, kernel))
        assert np.array_equal(modified, float_stencil(parent.stack, kernel))
        assert np.abs(modified).max() == modified.max() == 3 * 2**40

    def test_peak_memory_stays_near_the_parent_size(self, edge_kernel):
        # a side-64 stack is read off the window form by one gather: its
        # temporaries are a level per row window and pattern column, not a
        # rolled copy of the stack per tap (which peaks at twice the output)
        for build in (canonical_basis, hadamard_basis):
            modified = modify_basis(build(GridSpec(64)), edge_kernel)
            tracemalloc.start()
            try:
                stack = modified.stack
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert stack.nbytes == 128 * 2**20
            assert peak < 1.5 * stack.nbytes
            del stack


class TestBlockedStencil:
    """A set's patterns are read off its window form in blocks of any
    size (``pattern(j)`` is a block of one, ``stack`` the whole set), and
    every block gives the float64 roll sum of the parent stack bit for bit.
    The stencil filters only images: an integer or a float image gives the
    float64 roll sum of the image."""

    # one pattern per block, 7 patterns (25 patterns split 7 + 7 + 7 + 4),
    # and the whole set in one block
    @pytest.fixture(params=[1, 7, 25], ids=["one", "uneven", "default"])
    def block(self, request):
        return request.param

    @staticmethod
    def read(basis, block):
        return np.concatenate([basis._rows(s, min(s + block, len(basis)))
                               for s in range(0, len(basis), block)])

    def check(self, block, taps, sign, image):
        """The canonical side-5 set of the ``sign`` stencil of ``taps``,
        read in blocks, and ``image`` filtered by it; returns the set."""
        parent, kernel = canonical_basis(GridSpec(5)), Kernel(taps)
        # correlating is convolving with the kernel turned half a turn; a
        # one-hot pattern takes one tap a pixel, so the order is exact
        turned = kernel if sign == 1 else Kernel(np.rot90(kernel.taps, 2))
        modified = self.read(modify_basis(parent, turned), block)
        assert np.array_equal(modified, float_stencil(parent.stack, kernel, sign))
        filtered = (cyclic_convolve if sign == 1 else cyclic_correlate)(image, kernel)
        assert filtered.dtype == np.float64
        assert np.array_equal(filtered, float_stencil(image.astype(float), kernel, sign))
        return modified

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("taps", [
        [[0, -1, 0], [-1, 0, 1], [0, 1, 0]],
        [[3, 0, -2], [0, 5, 0], [1, 0, -7]],
    ], ids=["edge", "integral"])
    def test_integer_path(self, block, sign, taps, rng):
        image = rng.integers(-3, 4, size=(5, 5)).astype(np.int8)
        modified = self.check(block, taps, sign, image)
        parent = canonical_basis(GridSpec(5))
        assert np.array_equal(modified, exact_stencil(parent.stack, Kernel(taps), sign))

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("taps", [
        [[0.5, -1.25, 0.0], [0.3, 2.0, -0.7], [1e-3, 0.0, 3.5]],
        [[0, -1, 0], [-1, 0, 1], [0, 1, 0]],
    ], ids=["non-integral", "edge"])
    def test_float_path(self, block, sign, taps, rng):
        self.check(block, taps, sign, rng.normal(size=(5, 5)))

    def test_modify_basis_on_both_parents(self, block, edge_kernel):
        for build in (canonical_basis, hadamard_basis):
            parent = build(GridSpec(4))
            modified = self.read(modify_basis(parent, edge_kernel), block)
            assert np.array_equal(modified, exact_stencil(parent.stack, edge_kernel))
            assert np.array_equal(modified, float_stencil(parent.stack, edge_kernel))


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
        assert sub.weights == (1.0,)
        assert np.array_equal(recombine(basis.pattern(4), sub),
                              np.asarray(basis.pattern(4), float))

    def test_edge_modified_canonical_has_two_parts(self, edge_kernel):
        modified = modify_basis(canonical_basis(GridSpec(8)), edge_kernel)
        for j in range(len(modified)):
            sub = binary_decompose(modified.pattern(j), j)
            assert sub.part_count == 2
            assert sub.weights == (1.0, -1.0)

    def test_recombination_is_exact(self, rng):
        pattern = rng.choice([-1.0, 0.0, 1.0], size=(6, 6))
        sub = binary_decompose(pattern)
        assert np.array_equal(recombine(pattern, sub), pattern)

    def test_parts_are_binary(self, rng):
        pattern = rng.choice([-2.0, -0.5, 0.0, 1.5], size=(5, 5))
        sub = binary_decompose(pattern)
        assert sub.weights == (1.5, -0.5, -2.0)
        for part, weight in zip(part_images(pattern, sub), sub.weights):
            assert set(np.unique(part)) <= {0, 1}
            assert weight != 0.0
        assert np.array_equal(recombine(pattern, sub), pattern)

    def test_all_zero_pattern(self):
        sub = binary_decompose(np.zeros((4, 4)))
        assert sub.part_count == 1
        assert sub.weights == (0.0,)
        assert np.array_equal(part_images(np.zeros((4, 4)), sub)[0], np.zeros((4, 4)))
        assert np.array_equal(recombine(np.zeros((4, 4)), sub), np.zeros((4, 4)))

    @settings(max_examples=100, deadline=None)
    @given(pattern=arrays(float, st.tuples(st.integers(1, 6), st.integers(1, 6)),
                          elements=st.one_of(
                              st.sampled_from([0.0, -0.0, 0.5, -1.25, 0.1 + 0.2, 0.3]),
                              st.floats(-1e3, 1e3))))
    def test_levels_match_np_unique(self, pattern):
        # the reference split, built here from np.unique: the distinct
        # nonzero values, descending, or one dark part
        levels = np.unique(pattern)
        want = tuple(levels[levels != 0.0][::-1].tolist()) or (0.0,)
        assert binary_decompose(pattern).weights == want

    def test_round_trip_over_both_parents(self, edge_kernel):
        # exact (not toleranced) recombination for every modified pattern
        for parent in (canonical_basis(GridSpec(4)), hadamard_basis(GridSpec(4))):
            modified = modify_basis(parent, edge_kernel)
            for sub in decompose_basis(modified):
                pattern = modified.pattern(sub.parent_index)
                assert np.array_equal(recombine(pattern, sub), np.asarray(pattern))


def assert_same_decomposition(got, want, basis):
    """``got`` holds exactly the weights and order of ``want``, each weight a
    Python float, and so the same part images of every pattern."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.parent_index == w.parent_index
        assert g.weights == w.weights
        assert all(type(wt) is float for wt in g.weights)
        pattern = basis.pattern(g.parent_index)
        for g_part, w_part in zip(part_images(pattern, g), part_images(pattern, w)):
            assert np.array_equal(g_part, w_part)


def assert_split_arrays(got, want):
    """``got`` is a :class:`Decomposition` whose flat arrays list the parts of
    ``want``, pattern by pattern, and whose items, read by any index, are
    ``want``'s."""
    assert isinstance(got, Decomposition)
    assert got.owner.dtype == np.intp and got.level.dtype == np.float64
    assert not got.owner.flags.writeable and not got.level.flags.writeable
    assert got.owner.tolist() == [sub.parent_index for sub in want for _ in sub.weights]
    assert got.level.tolist() == [w for sub in want for w in sub.weights]
    m = len(want)
    for j in {0, m // 2, m - 1}:
        assert got[j] == want[j] == got[j - m]
        assert all(type(wt) is float for wt in got[j].weights)
    for j in (m, -m - 1):
        with pytest.raises(IndexError):
            got[j]


def split_overlaps(obj, basis):
    """Overlaps of the frames of :func:`binary_decompose`, pattern by pattern."""
    return part_overlaps(obj, basis,
                         [binary_decompose(p, j) for j, p in enumerate(basis.stack)])


@st.composite
def factor_sets(draw):
    """A set on a random factor with entries in {-1, 0, 1}, some of its
    rows all zero (so whole rows and columns of patterns are dark),
    modified or not by a random kernel of integral or non-integral taps."""
    side = draw(st.integers(1, 6))
    factor = draw(arrays(np.int8, (side, side), elements=st.integers(-1, 1)))
    factor[draw(st.lists(st.integers(0, side - 1), max_size=2))] = 0
    basis = PatternBasis(GridSpec(side), "custom", factor)
    kind = draw(st.sampled_from(["parent", "integral", "non-integral"]))
    if kind == "parent":
        return basis
    h, w = (draw(st.sampled_from([k for k in (1, 3, 5) if k <= side])) for _ in "hw")
    values = (st.integers(-300, 300) if kind == "integral"
              else st.sampled_from([0.0, -0.0, 0.5, -1.25, 0.1 + 0.2, 0.3, 3.0]))
    taps = draw(st.lists(values, min_size=h * w, max_size=h * w))
    return modify_basis(basis, Kernel(np.reshape(taps, (h, w))))


class TestDecomposeBasis:
    @settings(max_examples=150, deadline=None)
    @given(basis=factor_sets())
    def test_matches_pattern_by_pattern(self, basis):
        # any factor with entries in {-1, 0, 1}, dark patterns included
        want = [binary_decompose(p, j) for j, p in enumerate(basis.stack)]
        got = decompose_basis(basis)
        assert_same_decomposition(got, want, basis)
        assert_split_arrays(got, want)
        assert projection_count(basis, 1) == sum(sub.part_count for sub in want)

    @settings(max_examples=100, deadline=None)
    @given(basis=factor_sets(), repeats=st.sampled_from([1, 2, 3]))
    def test_repeated_frames_sum_back_to_each_pattern(self, basis, repeats):
        # one plan formula: each part read R times at weight level / R, with
        # R = repeats for a parent of 0/1 patterns and 1 for any other set;
        # the R reads of a part sum to its level, so the parts sum back to
        # the pattern, and the plan's sums are the held stack's
        side = basis.grid.side
        obj = np.zeros((side, side))
        plan = plan_acquisition(obj, basis, repeats)
        binary = basis.kernel is None and np.isin(basis.stack, (0.0, 1.0)).all()
        r = repeats if binary else 1
        split = decompose_basis(basis)
        assert plan.bucket_reads == projection_count(basis, repeats) == r * split.level.size
        for j in range(len(basis)):
            pattern, total = basis.pattern(j), np.zeros((side, side))
            for p in np.flatnonzero(split.owner == j):
                for _ in range(r):
                    total += split.level[p] / r * (pattern == split.level[p])
            assert np.array_equal(total, pattern)
        _, u, q, _ = pattern_sums(obj, basis, repeats)
        assert np.array_equal(plan.u, u) and np.array_equal(plan.q, q)

    @settings(max_examples=100, deadline=None)
    @given(basis=factor_sets(), seed=st.integers(0, 2**32 - 1))
    def test_plan_frames_match_binary_decompose(self, basis, seed):
        # any factor, dark rows included, on a uniform object: each overlap
        # is the fsum of the frame binary_decompose gives
        side = basis.grid.side
        obj = np.random.default_rng(seed).uniform(0.0, 1.0, size=(side, side))
        assert np.array_equal(frame_overlaps(obj, basis), split_overlaps(obj, basis))
        s = pattern_sums(obj, basis, 1)[0]
        assert np.array_equal(plan_acquisition(obj, basis, 1).s, s)

    @pytest.mark.parametrize("taps", [[[0, -1, 0], [-1, 0, 1], [0, 1, 0]],
                                      [[0.5, -1.0, 0.25]], [[64, 0, 64]]])
    @pytest.mark.parametrize("build", [canonical_basis, hadamard_basis])
    def test_modified_bases(self, build, taps):
        modified = modify_basis(build(GridSpec(8)), Kernel(taps))
        want = [binary_decompose(p, j) for j, p in enumerate(modified.stack)]
        assert_same_decomposition(decompose_basis(modified), want, modified)

    @pytest.mark.parametrize("dtype", [float, np.int32])
    def test_blocks_with_many_levels(self, dtype, rng):
        # 25 spread taps, float or integral, give each Hadamard pattern
        # dozens of levels
        taps = (rng.normal(size=(5, 5)) * 1e4).astype(dtype)
        basis = modify_basis(hadamard_basis(GridSpec(8)), Kernel(taps))
        want = [binary_decompose(p, j) for j, p in enumerate(basis.stack)]
        assert max(sub.part_count for sub in want) > 20
        assert_same_decomposition(decompose_basis(basis), want, basis)
        assert projection_count(basis, 1) == sum(sub.part_count for sub in want)

    def test_levels_keep_the_stencils_rounding(self):
        # past 2**53 the float64 stencil rounds, 2**53 + 1 + 1 and 2**53 - 1
        # + 1 both to 2**53, so a frame can hold window pairs whose exact
        # sums differ; the split and the overlaps follow the stencil's bits
        kernel = Kernel([[2.0**53, 1, 0], [0, 0, 1], [0, 0, 0]])
        basis = modify_basis(hadamard_basis(GridSpec(8)), kernel)
        exact = exact_stencil(hadamard_basis(GridSpec(8)).stack, kernel)
        assert any(len(set(zip(f.ravel().tolist(), e.ravel().tolist())))
                   > len(set(f.ravel().tolist())) for f, e in zip(basis.stack, exact))
        want = [binary_decompose(p, j) for j, p in enumerate(basis.stack)]
        assert_split_arrays(decompose_basis(basis), want)
        obj = np.arange(64.0).reshape(8, 8) / 64
        assert np.array_equal(frame_overlaps(obj, basis), split_overlaps(obj, basis))

    def test_plan_peaks_under_two_mib(self, edge_kernel):
        # no part image is built: the plan's working memory is one float
        # block, one scan mask and the levels, whatever the part count
        grid = GridSpec(32)
        modified = modify_basis(hadamard_basis(grid), edge_kernel)
        obj = synth_bar_target(grid, 2)
        tracemalloc.start()
        try:
            plan = plan_acquisition(obj, modified, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert plan.bucket_reads == 3836
        assert peak < 2 * 2**20


@st.composite
def separable_sets(draw):
    """A parent of a random side, or its modification by a random kernel of
    integral or non-integral taps, some of them sharing a value."""
    hadamard = draw(st.booleans())
    side = draw(st.sampled_from([1, 2, 4, 8, 16]) if hadamard else st.integers(1, 9))
    basis = (hadamard_basis if hadamard else canonical_basis)(GridSpec(side))
    kind = draw(st.sampled_from(["parent", "integral", "non-integral"]))
    if kind == "parent":
        return basis
    h, w = (draw(st.sampled_from([k for k in (1, 3, 5) if k <= side])) for _ in "hw")
    values = (st.integers(-3, 3) if kind == "integral"
              else st.sampled_from([0.0, -1.5, -0.25, 0.5, 0.1, 2.0]))
    taps = draw(st.lists(values, min_size=h * w, max_size=h * w))
    return modify_basis(basis, Kernel(np.reshape(taps, (h, w))))


class TestFactorOnlySets:
    """A parent, or a parent modified once, holds only its factor and
    kernel; its levels, rows and frames equal those of the whole stack."""

    @settings(max_examples=120, deadline=None)
    @given(basis=separable_sets())
    def test_factor_levels_match_the_stack_scan(self, basis):
        # the window form's split is binary_decompose of every pattern of
        # the materialised stack, on both parents, for kernels up to 5x5
        want = [binary_decompose(p, j) for j, p in enumerate(basis.stack)]
        got = decompose_basis(basis)
        assert_same_decomposition(got, want, basis)
        assert_split_arrays(got, want)

    @settings(max_examples=100, deadline=None)
    @given(basis=separable_sets(), seed=st.integers(0, 2**32 - 1),
           gray=st.sampled_from([None, 255, 65535]))
    def test_window_overlaps_match_the_held_stack(self, basis, seed, gray):
        # each overlap is the fsum of its frame in the materialised stack,
        # on a uniform or a gray / maxval object
        side = basis.grid.side
        rng = np.random.default_rng(seed)
        obj = rng.uniform(0.0, 1.0, size=(side, side))
        if gray is not None:
            obj = np.rint(gray * obj) / gray
        want = [binary_decompose(p, j) for j, p in enumerate(basis.stack)]
        assert np.array_equal(frame_overlaps(obj, basis), part_overlaps(obj, basis, want))

    @pytest.mark.parametrize("build", [canonical_basis, hadamard_basis])
    def test_sets_hold_no_stack(self, build, edge_kernel):
        parent = build(GridSpec(8))
        modified = modify_basis(parent, edge_kernel)
        for basis in (parent, modified):
            assert len(basis) == 64 and not hasattr(basis, "__dict__")
            assert basis.stack is not basis.stack  # made anew on each read
            assert np.array_equal(basis.pattern(-1), basis.stack[-1])
        with pytest.raises(DimensionError, match="needs an integer factor"):
            PatternBasis(GridSpec(2), "custom", np.eye(2))
        with pytest.raises(DimensionError, match="needs an integer factor"):
            PatternBasis(GridSpec(2), "custom", 2 * np.eye(2, dtype=np.int8))
        with pytest.raises(DimensionError, match="does not fit"):
            modify_basis(build(GridSpec(2)), edge_kernel)

    @pytest.mark.parametrize("build", [canonical_basis, hadamard_basis])
    def test_a_set_is_not_iterable(self, build, edge_kernel):
        # iterating would build the side**4 stack: at side 1024, 1 TiB
        for basis in (build(GridSpec(8)), modify_basis(build(GridSpec(8)), edge_kernel)):
            with pytest.raises(TypeError):
                iter(basis)

    @pytest.mark.parametrize("taps", [[[0, -0.5, 0], [-0.5, 0, 0.5], [0, 0.5, 0]],
                                      [[0, -1, 0], [-1, 0, 1], [0, 1, 0]]])
    def test_plan_makes_the_window_form_once(self, taps, monkeypatch):
        # a Hadamard set with float or integral taps, on a two-limb object:
        # each set makes its one form when it is built, and a plan's split
        # and every limb's sums come from it: a plan makes no form and no
        # pattern
        forms, build = [], bases_module._window_form

        def spy(factor, kernel):
            forms.append(kernel)
            return build(factor, kernel)

        def refuse(*args):
            raise AssertionError("made patterns for a plan")

        monkeypatch.setattr(bases_module, "_window_form", spy)
        basis = modify_basis(hadamard_basis(GridSpec(16)), Kernel(taps))
        assert forms == [None, basis.kernel]
        obj = np.random.default_rng(4).integers(0, 256, size=(16, 16)) / 255
        want = split_overlaps(obj, basis)
        monkeypatch.setattr(PatternBasis, "_rows", refuse)
        plan = plan_acquisition(obj, basis, 1)
        assert np.array_equal(frame_overlaps(obj, basis), want)
        assert projection_count(basis, 1) == plan.bucket_reads
        assert np.array_equal(plan_acquisition(obj, basis, 1).s, plan.s)
        assert forms == [None, basis.kernel]

    def test_decomposition_arrays_are_checked(self):
        split = Decomposition([0, 0, 1], [2.0, -1.0, 0.0])
        assert len(split) == 2 and split[1] == bases_module.SubPatternSet(1, (0.0,))
        with pytest.raises(DimensionError, match="equal length"):
            Decomposition([0, 1], [1.0])
        # a pattern with no part, an owner list out of order, one that does
        # not start at pattern 0
        for owner in ([0, 2], [0, 1, 0], [1, 1]):
            with pytest.raises(DimensionError, match="count up from 0"):
                Decomposition(owner, [1.0] * len(owner))
        assert len(Decomposition([], [])) == 0
        with pytest.raises(TypeError):
            split[0:1]

    def test_dense_plan_peaks_far_below_the_stack(self, edge_kernel):
        # a uniform object on the side-64 edge-modified Hadamard set, whose
        # +/-1 parent lights half the grid in every frame: the plan holds
        # two limb sums per level and pattern, not a 32nd of the set's
        # 128 MiB stack (which is not built here)
        grid = GridSpec(64)
        modified = modify_basis(hadamard_basis(grid), edge_kernel)
        obj = np.random.default_rng(3).uniform(0.0, 1.0, size=(64, 64))
        assert bench_module._limb_layout(obj)[1] == 2
        tracemalloc.start()
        try:
            plan = plan_acquisition(obj, modified, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert plan.bucket_reads == 15868
        stack_bytes = len(modified) * grid.pixel_count * np.dtype(float).itemsize
        assert stack_bytes == 128 * 2**20
        assert peak < stack_bytes / 32


class TestCensus:
    @settings(max_examples=150, deadline=None)
    @given(basis=factor_sets())
    def test_each_pattern_projects_the_parts_its_classes_reach(self, basis):
        # the oracle scans every pattern; the census reads class pairs
        side, form = basis.grid.side, basis._form
        rows, cols, parts = form.census
        levels = np.append(form.values[::-1], 0.0)
        count = 0
        for j, pattern in enumerate(basis.stack):
            r, c = divmod(j, side)
            want = binary_decompose(pattern, j)
            assert tuple(levels[parts[rows[r], cols[c]]].tolist()) == want.weights
            count += want.part_count
        assert projection_count(basis, 1) == count


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
    # each entry sums every tap at most once, so taps whose absolute sum
    # overflows are refused before any pattern is made
    with pytest.raises(DimensionError, match="finite"), np.errstate(over="ignore"):
        modify_basis(hadamard_basis(GridSpec(4)), Kernel([[1e308, 1e308, 1e308]]))
    parent, kernel = hadamard_basis(GridSpec(4)), Kernel([[1e307, 1e307, 1e307]])
    stack = modify_basis(parent, kernel).stack
    assert np.isfinite(stack).all()
    assert np.array_equal(stack, float_stencil(parent.stack, kernel))


def test_basis_stack_is_frozen():
    basis = canonical_basis(GridSpec(2))
    with pytest.raises(ValueError):
        basis.stack[0, 0, 0] = 5
