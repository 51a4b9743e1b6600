"""The sums cell against the per-read loop it replaces, and against the
dense operator.

The reference below is the acquisition as one read at a time: a keyed
random substream per detector read, one bucket read per binary part (or per
repeat) and one normalization read per pattern.  The reads of pattern ``j``
share its lamp value and have independent read noise, so their weighted sum
is ``a_j s_j + bg u_j + sigma sum_p w_p z_p``: the sums cell's numerator with
``zeta_j = sum_p w_p z_p / q_j``.  Fed the reference's draws mapped that
way, the sums cell must match the loop to within a few roundings of its
terms; with no read noise, to within a few ulps; and over many seeds, its
cells must have the per-read protocol's moments.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ghostsim import (
    GridSpec,
    NoiseModel,
    canonical_basis,
    coefficients_from_draws,
    decompose_basis,
    edge_detect_kernel,
    hadamard_basis,
    lamp_intensity,
    modify_basis,
    plan_acquisition,
    run_basis_protocol,
)
from oracles import (
    build_operator_matrix,
    part_images,
    pattern_draws,
    per_read_cell,
    plan_frames,
)

EDGE = edge_detect_kernel()
ALL_NOISE = NoiseModel(lamp_base=1.3, lamp_drift_amplitude=0.2, lamp_drift_period=37.0,
                       detector_sigma=0.5, normalization_sigma=0.05,
                       background_measure=0.1, background_norm=0.02, seed=20261018)
TIME_MS = 3.0


# ------------------------------------------------------------ reference

def read_stream(seed: int, pattern_index: int, read_index: int) -> np.random.Generator:
    """Independent random substream for one detector read."""
    if pattern_index < 0 or read_index < 0:
        raise ValueError("pattern_index and read_index must be >= 0")
    return np.random.default_rng([int(seed), int(pattern_index), int(read_index)])


def bucket_read(frame, obj, a, noise, rng) -> float:
    """``a * <frame, obj> + background_measure + N(0, detector_sigma^2)``
    for a binary frame, whose overlap ``<frame, obj>`` is the correctly
    rounded sum of the object values it lights, ``math.fsum``."""
    frame = np.asarray(frame)
    assert np.all((frame == 0) | (frame == 1)), "a bucket reads a binary frame"
    overlap = math.fsum(np.asarray(obj, dtype=float)[frame == 1])
    value = a * overlap + noise.background_measure
    if noise.detector_sigma > 0:
        value += noise.detector_sigma * rng.standard_normal()
    return float(value)


def normalization_read(a, noise, rng) -> float:
    """``a + background_norm + N(0, normalization_sigma^2)``."""
    value = a + noise.background_norm
    if noise.normalization_sigma > 0:
        value += noise.normalization_sigma * rng.standard_normal()
    return float(value)


def loop_post_protocol(obj, basis, noise, time_ms, repeats) -> np.ndarray:
    """Repeat protocol: ``repeats`` reads per pattern, averaged, divided by
    one normalization read."""
    out = np.zeros(len(basis))
    for j, pattern in enumerate(basis.stack):
        a = lamp_intensity(j, noise, time_ms)
        reads = [bucket_read(pattern, obj, a, noise, read_stream(noise.seed, j, i))
                 for i in range(repeats)]
        norm = normalization_read(a, noise, read_stream(noise.seed, j, repeats))
        out[j] = float(sum(reads) / repeats / norm)
    return out


def loop_basis_protocol(obj, basis, decomposed, noise, time_ms) -> np.ndarray:
    """Weighted protocol: one read per binary part of each pattern of
    ``basis``, weighted sum, divided by one normalization read."""
    out = np.zeros(len(decomposed))
    for sub in decomposed:
        j = sub.parent_index
        a = lamp_intensity(j, noise, time_ms)
        parts = part_images(basis.pattern(j), sub)
        combined = 0.0
        for i, (part, weight) in enumerate(zip(parts, sub.weights)):
            combined += weight * bucket_read(part, obj, a, noise,
                                             read_stream(noise.seed, j, i))
        norm = normalization_read(a, noise, read_stream(noise.seed, j, len(parts)))
        out[j] = float(combined / norm)
    return out


def reference_draws(frames, seed):
    """The reference's draws laid out for the frames: part ``i`` of pattern
    ``j`` reads substream ``(j, i)``; the normalization read of ``j`` reads
    ``(j, parts of j)``."""
    owner = frames[0].tolist()
    index, seen = [], {}
    for j in owner:
        index.append(seen.get(j, 0))
        seen[j] = index[-1] + 1
    bucket = np.array([read_stream(seed, j, i).standard_normal()
                       for j, i in zip(owner, index)])
    norm = np.array([read_stream(seed, j, seen[j]).standard_normal()
                     for j in range(len(seen))])
    return bucket, norm


# A coefficient sums its terms (at most four reads a pattern here) in
# another order than the loop does.  Either side rounds at most about 30
# times, each time by at most eps / 2 of a value no larger than the sum of
# the terms' magnitudes; so the two differ by at most 32 eps times that sum,
# over the normalization read.  The largest distance seen is 1.5 eps.
TERM_BOUND = 32 * np.finfo(float).eps


def plan_cell(plan, frames, noise, time_ms):
    """The sums cell fed the reference's draws, and the bound on its
    distance from the loop: ``TERM_BOUND`` times the sum of the magnitudes
    of each coefficient's terms, over its normalization read."""
    owner, weight, overlap = frames
    lamp = lamp_intensity(np.arange(plan.pattern_count), noise, time_ms)
    bucket, norm_draws = reference_draws(frames, noise.seed)
    got = coefficients_from_draws(plan, lamp, noise, pattern_draws(frames, bucket),
                                  norm_draws)
    norm = lamp + noise.background_norm + noise.normalization_sigma * norm_draws
    terms = np.abs(weight) * (lamp[owner] * overlap + noise.background_measure
                              + noise.detector_sigma * np.abs(bucket))
    return got, TERM_BOUND * np.bincount(owner, terms) / np.abs(norm)


# ------------------------------------------------------------ per-read oracle

@pytest.fixture(scope="module")
def side8_object():
    return np.random.default_rng(8).uniform(0.0, 1.0, size=(8, 8))


DECOMPOSED_BASES = {
    "modified-canonical": lambda grid: modify_basis(canonical_basis(grid), EDGE),
    "hadamard": hadamard_basis,
    "modified-hadamard": lambda grid: modify_basis(hadamard_basis(grid), EDGE),
}


def reference_cases(obj):
    """``(basis, repeats, loop coefficients)`` of every set here: the
    canonical parent read once and twice a pattern, and the three sets
    read at their levels."""
    canonical = canonical_basis(GridSpec(8))
    for repeats in (1, 2):
        yield canonical, repeats, lambda noise, c=canonical, r=repeats: loop_post_protocol(
            obj, c, noise, TIME_MS, r)
    for name in sorted(DECOMPOSED_BASES):
        basis = DECOMPOSED_BASES[name](GridSpec(8))
        yield basis, 2, lambda noise, b=basis: loop_basis_protocol(
            obj, b, decompose_basis(b), noise, TIME_MS)


@pytest.mark.parametrize("repeats", [1, 2])
def test_canonical_repeats_match_loop(side8_object, repeats):
    basis = canonical_basis(GridSpec(8))
    plan = plan_acquisition(side8_object, basis, repeats)
    want = loop_post_protocol(side8_object, basis, ALL_NOISE, TIME_MS, repeats)
    got, bound = plan_cell(plan, plan_frames(side8_object, basis, repeats), ALL_NOISE,
                           TIME_MS)
    assert np.all(np.abs(got - want) <= bound)


@pytest.mark.parametrize("name", sorted(DECOMPOSED_BASES))
def test_decomposed_bases_match_loop(side8_object, name):
    basis = DECOMPOSED_BASES[name](GridSpec(8))
    plan = plan_acquisition(side8_object, basis, 2)
    want = loop_basis_protocol(side8_object, basis, decompose_basis(basis), ALL_NOISE,
                               TIME_MS)
    got, bound = plan_cell(plan, plan_frames(side8_object, basis, 2), ALL_NOISE, TIME_MS)
    assert np.all(np.abs(got - want) <= bound)


# With no read noise the two sides differ only in how they round
# sum_p w_p (a S_p + bg), at most four terms a pattern here.  The largest
# distance seen is 1 ulp of the sum of the terms' magnitudes, over the
# normalization read; the bound is 4.
NOISELESS_ULPS = 4


def test_noiseless_cells_match_loop_within_a_few_ulps(side8_object):
    # drift and both backgrounds on, both read noises off
    noise = replace(ALL_NOISE, detector_sigma=0.0, normalization_sigma=0.0)
    for basis, repeats, loop in reference_cases(side8_object):
        owner, weight, overlap = plan_frames(side8_object, basis, repeats)
        lamp = lamp_intensity(np.arange(len(basis)), noise, TIME_MS)
        scale = np.bincount(owner, np.abs(weight) * (lamp[owner] * overlap
                                                     + noise.background_measure))
        scale /= lamp + noise.background_norm
        got = run_basis_protocol(plan_acquisition(side8_object, basis, repeats), noise,
                                 TIME_MS)
        assert np.all(np.abs(got - loop(noise)) <= NOISELESS_ULPS * np.spacing(scale)), \
            basis.label


# Over 1,000 seeds of each protocol (disjoint seeds), each pattern's sample
# mean must lie within 5 standard errors of the other protocol's, and its
# sample std within 15% of the other's.  A sample std ratio has a std of
# about sqrt(1 / 1000) = 3.2%, so 15% is 4.7 of them; over 256 patterns and
# four plans, sampling alone passes both with probability above 0.99.
MOMENT_SEEDS, MEAN_ERRORS, STD_RATIO = 1000, 5.0, 0.15


@pytest.mark.parametrize("name,repeats", [("canonical", 2), ("modified-canonical", 1),
                                          ("hadamard", 1), ("modified-hadamard", 1)])
def test_cells_have_the_per_read_moments(name, repeats):
    grid = GridSpec(16)
    basis = canonical_basis(grid) if name == "canonical" else DECOMPOSED_BASES[name](grid)
    obj = np.random.default_rng(16).uniform(0.0, 1.0, size=(16, 16))
    plan = plan_acquisition(obj, basis, repeats)
    frames = plan_frames(obj, basis, repeats)
    noise = replace(ALL_NOISE, detector_sigma=2.0)
    sums = np.stack([run_basis_protocol(plan, replace(noise, seed=seed), TIME_MS)
                     for seed in range(MOMENT_SEEDS)])
    reads = np.stack([per_read_cell(frames, replace(noise, seed=seed), TIME_MS)
                      for seed in range(MOMENT_SEEDS, 2 * MOMENT_SEEDS)])
    stderr = np.sqrt((sums.var(axis=0) + reads.var(axis=0)) / MOMENT_SEEDS)
    spread = reads.std(axis=0) > 0
    assert np.array_equal(sums.std(axis=0) > 0, spread)
    assert np.all(np.abs(sums.mean(axis=0) - reads.mean(axis=0))[spread]
                  <= MEAN_ERRORS * stderr[spread])
    ratio = sums.std(axis=0)[spread] / reads.std(axis=0)[spread]
    assert np.all(np.abs(ratio - 1.0) <= STD_RATIO)


def test_reference_streams_are_keyed():
    a = read_stream(7, 3, 1).standard_normal()
    assert a == read_stream(7, 3, 1).standard_normal()
    assert a != read_stream(7, 3, 2).standard_normal()
    with pytest.raises(ValueError):
        read_stream(1, -1, 0)


# ------------------------------------------------------------ dense oracle

@st.composite
def basis_and_object(draw):
    label = draw(st.sampled_from(["canonical", "hadamard"]))
    side = draw(st.sampled_from([4, 8]) if label == "hadamard"
                else st.integers(min_value=3, max_value=9))
    obj = draw(arrays(float, (side, side),
                      elements=st.floats(0.0, 1.0, allow_subnormal=False)))
    return label, side, obj


@settings(max_examples=40, deadline=None)
@given(case=basis_and_object(),
       time_ms=st.floats(0.5, 50.0),
       drift=st.floats(0.0, 0.9))
def test_noiseless_coefficients_match_dense_operator(case, time_ms, drift):
    label, side, obj = case
    grid = GridSpec(side)
    parent = canonical_basis(grid) if label == "canonical" else hadamard_basis(grid)
    rows = parent.stack.reshape(len(parent), -1).astype(float)
    op = build_operator_matrix(EDGE, grid)
    noise = NoiseModel(lamp_drift_amplitude=drift, lamp_drift_period=7.0, seed=1)

    # modified pattern j is op @ row_j, so its coefficient is row_j . (op^T o)
    basis_route = run_basis_protocol(
        plan_acquisition(obj, modify_basis(parent, EDGE), 2), noise, time_ms)
    np.testing.assert_allclose(basis_route, rows @ (op.T @ obj.ravel()),
                               rtol=1e-10, atol=1e-10)
    plain = plan_acquisition(obj, parent, 2)
    np.testing.assert_allclose(run_basis_protocol(plain, noise, time_ms),
                               rows @ obj.ravel(), rtol=1e-10, atol=1e-10)
