"""The vectorised protocol against the per-read loop it replaces, and against
the dense operator.

The reference below is the acquisition as one read at a time: a keyed
random substream per detector read, one bucket read per binary part (or per
repeat) and one normalization read per pattern.  Fed the same draws, the
plan-based cell must reproduce it bit for bit.
"""

import math

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
from oracles import build_operator_matrix, part_images

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


def reference_draws(plan, seed):
    """The reference's draws laid out for the plan: part ``i`` of pattern
    ``j`` reads substream ``(j, i)``; the normalization read of ``j`` reads
    ``(j, parts of j)``."""
    owner = plan.owner.tolist()
    index, seen = [], {}
    for j in owner:
        index.append(seen.get(j, 0))
        seen[j] = index[-1] + 1
    bucket = np.array([read_stream(seed, j, i).standard_normal()
                       for j, i in zip(owner, index)])
    norm = np.array([read_stream(seed, j, seen[j]).standard_normal()
                     for j in range(plan.pattern_count)])
    return bucket, norm


def plan_cell(plan, noise, time_ms):
    lamp = lamp_intensity(np.arange(plan.pattern_count), noise, time_ms)
    return coefficients_from_draws(plan, lamp, noise, *reference_draws(plan, noise.seed))


# ------------------------------------------------------------ exact oracle

@pytest.fixture(scope="module")
def side8_object():
    return np.random.default_rng(8).uniform(0.0, 1.0, size=(8, 8))


@pytest.mark.parametrize("repeats", [1, 2])
def test_canonical_repeats_match_loop(side8_object, repeats):
    basis = canonical_basis(GridSpec(8))
    plan = plan_acquisition(side8_object, basis, repeats)
    want = loop_post_protocol(side8_object, basis, ALL_NOISE, TIME_MS, repeats)
    assert np.array_equal(plan_cell(plan, ALL_NOISE, TIME_MS), want)


DECOMPOSED_BASES = {
    "modified-canonical": lambda grid: modify_basis(canonical_basis(grid), EDGE),
    "hadamard": hadamard_basis,
    "modified-hadamard": lambda grid: modify_basis(hadamard_basis(grid), EDGE),
}


@pytest.mark.parametrize("name", sorted(DECOMPOSED_BASES))
def test_decomposed_bases_match_loop(side8_object, name):
    basis = DECOMPOSED_BASES[name](GridSpec(8))
    plan = plan_acquisition(side8_object, basis, 2)
    want = loop_basis_protocol(side8_object, basis, decompose_basis(basis), ALL_NOISE,
                               TIME_MS)
    assert np.array_equal(plan_cell(plan, ALL_NOISE, TIME_MS), want)


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
