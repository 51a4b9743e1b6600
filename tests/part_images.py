"""Part images of a binary split, built from the pattern and its levels.

``SubPatternSet`` keeps only the levels of a pattern; the tests that compare
frames, recombine a pattern or run the per-read reference build the binary
images here, the same way for every test.
"""

import math

import numpy as np


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
