"""Slow reference forms that the library's fast paths are checked against.

None of these is on a run path.  The dense ``side**2 x side**2`` operator
applies a stencil as one matrix product on the row-major vector of an
image; the per-pattern split reads a pattern's levels off its values; the
part images are the binary frames ``pattern == level`` that a
``SubPatternSet`` describes by its levels alone; and the ``P2`` body is
one ``%``-format over the gray values as Python ints.  The tests that compare
frames, recombine a pattern or run the per-read reference build them here,
the same way for every test.
"""

import math

import numpy as np

from ghostsim import DimensionError, GridSpec, Kernel, SubPatternSet


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
