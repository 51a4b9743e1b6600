"""Slow reference forms that the library's fast paths are checked against.

None of these is on a run path.  The dense ``side**2 x side**2`` operator
applies a stencil as one matrix product on the row-major vector of an
image; the per-pattern split reads a pattern's levels off its values; the
part images are the binary frames ``pattern == level`` that a
``SubPatternSet`` describes by its levels alone; and the ``P2`` body is
one ``%``-format over the gray values as Python ints.  The per-read
protocol reads every frame of a plan once, as the bench projects it, where
a plan keeps only three sums a pattern.  The tests that compare frames,
recombine a pattern or run the per-read reference build them here, the
same way for every test.
"""

import functools
import math
import operator

import numpy as np

import ghostsim.bench as bench_module
from ghostsim import (DimensionError, GridSpec, Kernel, SubPatternSet, decompose_basis,
                      lamp_intensity)
from ghostsim.bases import _repeats


def flatten(image) -> np.ndarray:
    """Row-major vector of a square image."""
    arr = np.asarray(image, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"expected a square 2-D image, got shape {arr.shape}")
    return arr.reshape(-1)


def unflatten(vector, grid: GridSpec) -> np.ndarray:
    """Inverse of :func:`flatten`; exact round-trip."""
    vec = np.asarray(vector, dtype=float)
    if vec.ndim != 1 or vec.size != grid.pixel_count:
        raise DimensionError(
            f"expected {grid.pixel_count} values for a {grid.side}x{grid.side} grid, "
            f"got shape {vec.shape}"
        )
    return vec.reshape(grid.side, grid.side)


def build_operator_matrix(kernel: Kernel, grid: GridSpec) -> np.ndarray:
    """Dense ``side**2 x side**2`` matrix applying ``cyclic_convolve``.

    For every image ``x``: ``unflatten(B @ flatten(x)) == cyclic_convolve(x,
    kernel)``, and ``B.T`` applies ``cyclic_correlate``.  Dense storage is
    only reasonable up to side 64.
    """
    n = grid.side
    if kernel.height > n or kernel.width > n:
        raise DimensionError(
            f"kernel {kernel.height}x{kernel.width} does not fit a {n}x{n} grid")
    m = grid.pixel_count
    op = np.zeros((m, m))
    src = np.arange(m)
    rows = src // n
    cols = src % n
    for dr, dc, v in kernel.offsets():
        dest = ((rows + dr) % n) * n + (cols + dc) % n
        # column j holds the flattened convolution of the one-hot image at j
        op[dest, src] += v
    return op


def binary_decompose(pattern, parent_index: int = 0) -> SubPatternSet:
    """Split one pattern into weighted binary parts, one per distinct
    nonzero value (descending), compared in float64; an all-zero pattern
    yields a single all-dark part with weight 0."""
    img = np.asarray(pattern, dtype=float)
    if img.ndim != 2:
        raise DimensionError(f"pattern must be 2-D, got shape {img.shape}")
    if not np.all(np.isfinite(img)):
        raise DimensionError("pattern values must be finite")
    v = np.sort(img, axis=None)
    keep = np.ones(v.size, dtype=bool)
    np.not_equal(v[1:], v[:-1], out=keep[1:])
    levels = v[keep]
    levels = levels[levels != 0.0][::-1]  # descending: positive parts first
    return SubPatternSet(parent_index, tuple(levels.tolist()) or (0.0,))


def part_images(pattern, sub) -> list[np.ndarray]:
    """Part ``k`` of ``sub`` as a ``uint8`` image: ``pattern == w`` for its
    weight ``w``, compared in float64, or all zeros for weight 0."""
    img = np.asarray(pattern, dtype=float)
    return [(img == w if w != 0.0 else np.zeros(img.shape, bool)).astype(np.uint8)
            for w in sub.weights]


def recombine(pattern, sub) -> np.ndarray:
    """The weighted sum of the parts, in float64."""
    total = np.zeros(np.shape(pattern), dtype=float)
    for part, weight in zip(part_images(pattern, sub), sub.weights):
        total += weight * part
    return total


def part_overlaps(obj, basis, decomposed) -> list[float]:
    """Each part's overlap with ``obj`` as one bucket read computes it: the
    correctly rounded sum of the object values the part lights,
    ``math.fsum``."""
    flat = np.asarray(obj, dtype=float).ravel()
    return [math.fsum(flat[part.ravel() != 0])
            for sub in decomposed
            for part in part_images(basis.pattern(sub.parent_index), sub)]


def p2_body(gray) -> str:
    """The ``P2`` body of a 2-D array of integer gray values: one
    ``%``-format over the flat list, a line of ``w`` decimal numbers per
    row."""
    h, w = np.shape(gray)
    row = " ".join(["%d"] * w) + "\n"
    return (row * h) % tuple(np.ravel(gray).tolist())


def frame_overlaps(obj, basis) -> np.ndarray:
    """The overlap of each part of ``decompose_basis(basis)`` with ``obj``,
    as ``plan_acquisition`` computes it from the set's window form."""
    return bench_module._window_overlaps(np.asarray(obj, dtype=float), basis._form,
                                         decompose_basis(basis))


def plan_frames(obj, basis, repeats_per_pattern: int):
    """``(owner, weight, overlap)`` of every frame a plan of ``basis``
    projects, in projection order: each part of the split read ``R`` times
    (:func:`ghostsim.bases._repeats`) at weight ``level / R``."""
    r = _repeats(basis, repeats_per_pattern)
    split = decompose_basis(basis)
    return (np.repeat(split.owner, r), np.repeat(split.level, r) / r,
            np.repeat(frame_overlaps(obj, basis), r))


def per_read_coefficients(frames, lamp, noise, bucket_draws, norm_draws) -> np.ndarray:
    """The per-read protocol: frame ``p`` of pattern ``owner[p]`` is read
    once, ``lamp * overlap + background + sigma * bucket_draws[p]``, and
    the reads of a pattern are summed at their weights and divided by its
    one normalization read."""
    owner, weight, overlap = frames
    reads = lamp[owner] * overlap + noise.background_measure
    reads += noise.detector_sigma * bucket_draws
    norm = lamp + noise.background_norm
    norm += noise.normalization_sigma * norm_draws
    return np.bincount(owner, weight * reads, lamp.size) / norm


def per_read_cell(frames, noise, integration_time_ms) -> np.ndarray:
    """One cell by the per-read protocol: from a Philox stream keyed by the
    cell seed, one normal per frame in projection order, then one per
    normalization read."""
    m = int(frames[0][-1]) + 1
    lamp = lamp_intensity(np.arange(m), noise, integration_time_ms)
    rng = np.random.Generator(np.random.Philox(noise.seed))
    bucket = rng.standard_normal(frames[0].size)
    return per_read_coefficients(frames, lamp, noise, bucket, rng.standard_normal(m))


def pattern_draws(frames, bucket_draws) -> np.ndarray:
    """The one bucket draw a pattern that per-read draws amount to:
    ``zeta_j = sum_p w_p z_p / q_j``, with ``q_j = sqrt(sum_p w_p**2)``, or 0
    where ``q_j = 0``, so that ``sigma * q_j * zeta_j`` is the weighted sum
    of pattern ``j``'s read noise."""
    owner, weight, _ = frames
    m = int(owner[-1]) + 1
    q = np.sqrt(np.bincount(owner, weight * weight, m))
    total = np.bincount(owner, weight * bucket_draws, m)
    return np.divide(total, q, out=np.zeros(m), where=q != 0)


def pattern_sums(obj, basis, repeats_per_pattern: int):
    """``(s, u, q, frames)`` of a plan of ``basis``, from the held stack:
    each pattern split by :func:`binary_decompose`, each part's overlap
    by ``math.fsum``, and, pattern by pattern in part order, ``s = sum
    level * overlap``, ``u = sum level`` and ``q = sqrt(sum level**2) /
    sqrt(R)``.  A parent of 0/1 patterns reads each part ``R =
    repeats_per_pattern`` times at weight ``level / R``, which sum to one
    read at its level; any other set reads each part once."""
    stack = basis.stack
    binary = basis.kernel is None and np.isin(stack, (0.0, 1.0)).all()
    r = repeats_per_pattern if binary else 1
    subs = [binary_decompose(p, j) for j, p in enumerate(stack)]
    overlaps = iter(part_overlaps(obj, basis, subs))
    s, u, q = [], [], []
    for sub in subs:
        s.append(_added(w * next(overlaps) for w in sub.weights))
        u.append(_added(sub.weights))
        q.append(math.sqrt(_added(w * w for w in sub.weights)) / math.sqrt(r))
    return np.array(s), np.array(u), np.array(q), r * sum(sub.part_count for sub in subs)


def _added(values) -> float:
    """The floats added left to right, each sum rounded, as ``np.bincount``
    adds them (``sum`` compensates its rounding since Python 3.12)."""
    return functools.reduce(operator.add, values, 0.0)
