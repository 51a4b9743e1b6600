"""Square-grid images and cyclic stencil filtering.

An image is a square 2-D float array.  All filtering wraps indices at the
grid edges, so there are no boundary special cases: convolving a pattern
with a kernel and correlating an object with it are adjoint, pixel for
pixel, which is the identity the filtered-basis measurement rests on.

The stencil filters images only, in float64: masks and post-processing.  A
filter-modified set's patterns are read off its window form (see
:mod:`ghostsim.bases`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DimensionError, NormalizationError

__all__ = [
    "GridSpec",
    "Kernel",
    "edge_detect_kernel",
    "identity_kernel",
    "KERNEL_PRESETS",
    "cyclic_convolve",
    "cyclic_correlate",
    "filter_energy",
    "kernel_autocorrelation",
]


@dataclass(frozen=True)
class GridSpec:
    """Square pixel grid with ``side`` pixels per edge."""

    side: int

    def __post_init__(self):
        side = self.side
        if isinstance(side, bool) or not isinstance(side, (int, np.integer)):
            raise DimensionError(f"grid side must be an integer, got {side!r}")
        if side < 1:
            raise DimensionError(f"grid side must be at least 1, got {side}")
        object.__setattr__(self, "side", int(side))

    @property
    def pixel_count(self) -> int:
        return self.side * self.side


@dataclass(frozen=True, eq=False)
class Kernel:
    """Small odd-sized real stencil with its centre tap at ((h-1)/2, (w-1)/2)."""

    taps: np.ndarray
    name: str | None = None

    def __post_init__(self):
        taps = np.array(self.taps, dtype=float)
        if taps.ndim != 2:
            raise DimensionError(f"kernel taps must be 2-D, got shape {taps.shape}")
        h, w = taps.shape
        if h % 2 == 0 or w % 2 == 0:
            raise DimensionError(f"kernel dimensions must be odd, got {h}x{w}")
        if not np.all(np.isfinite(taps)):
            raise DimensionError("kernel taps must all be finite")
        taps.flags.writeable = False
        object.__setattr__(self, "taps", taps)

    @property
    def height(self) -> int:
        return self.taps.shape[0]

    @property
    def width(self) -> int:
        return self.taps.shape[1]

    def offsets(self) -> Iterator[tuple[int, int, float]]:
        """Yield ``(row_offset, col_offset, tap)`` for every nonzero tap.

        Offsets are relative to the centre tap, in fixed row-major order so
        accumulation is deterministic.
        """
        ch = (self.height - 1) // 2
        cw = (self.width - 1) // 2
        for i in range(self.height):
            for j in range(self.width):
                v = self.taps[i, j]
                if v != 0.0:
                    yield i - ch, j - cw, float(v)

    def __eq__(self, other):
        if not isinstance(other, Kernel):
            return NotImplemented
        return self.name == other.name and np.array_equal(self.taps, other.taps)

    def __repr__(self):
        return f"Kernel(name={self.name!r}, shape={self.height}x{self.width})"


def edge_detect_kernel() -> Kernel:
    """Cross-shaped edge stencil: the sum of vertical and horizontal central differences."""
    return Kernel([[0, -1, 0], [-1, 0, 1], [0, 1, 0]], name="edge-eq3")


def identity_kernel() -> Kernel:
    """1x1 unit stencil; filtering with it is a no-op."""
    return Kernel([[1.0]], name="identity")


KERNEL_PRESETS = {
    "edge-eq3": edge_detect_kernel,
    "identity": identity_kernel,
}


def _as_square(image) -> np.ndarray:
    arr = np.asarray(image, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"expected a square 2-D image, got shape {arr.shape}")
    return arr


def _require_fits(kernel: Kernel, side: int):
    if kernel.height > side or kernel.width > side:
        raise DimensionError(
            f"kernel {kernel.height}x{kernel.width} does not fit a {side}x{side} grid"
        )


def _stencil(image: np.ndarray, kernel: Kernel, sign: int) -> np.ndarray:
    """Sum of ``tap * roll(image, sign * offset)`` over the kernel taps, in
    tap order and in float64: ``sign = 1`` convolves, ``sign = -1``
    correlates."""
    _require_fits(kernel, image.shape[0])
    out = np.zeros(image.shape)
    for dr, dc, v in kernel.offsets():
        out += v * np.roll(image, (sign * dr, sign * dc), axis=(0, 1))
    return out


def cyclic_convolve(image, kernel: Kernel) -> np.ndarray:
    """Convolve an image with a stencil, wrapping indices at the grid edges.

    ``out[p] = sum_q K[q] * image[(p - q) mod side]`` with ``q`` running over
    the kernel support centred on zero (true convolution: the kernel is
    flipped relative to correlation).
    """
    return _stencil(_as_square(image), kernel, 1)


def cyclic_correlate(image, kernel: Kernel) -> np.ndarray:
    """Cyclic correlation: ``out[p] = sum_q K[q] * image[(p + q) mod side]``.

    Equals :func:`cyclic_convolve` with the 180-degree-rotated kernel, and
    is its adjoint: ``<cyclic_convolve(P, K), O> == <P, cyclic_correlate(O,
    K)>``.  A basis convolved with ``K`` therefore measures the object
    correlated with ``K``, the image the post-processing route computes.
    """
    return _stencil(_as_square(image), kernel, -1)


def filter_energy(kernel: Kernel) -> float:
    """Sum of squared taps; white noise passed through the stencil has its
    standard deviation amplified by the square root of this."""
    return float(np.sum(kernel.taps * kernel.taps))


def kernel_autocorrelation(kernel: Kernel) -> dict[tuple[int, int], float]:
    """Normalized tap autocorrelation ``R[l] = sum_q K[q] K[q+l] / energy``.

    Covers every lag in the ``(2h-1) x (2w-1)`` window (zero-valued lags
    included) with ``R[(0, 0)] == 1``.  This is the autocorrelation the
    stencil imprints on white noise it filters.
    """
    t = kernel.taps
    h, w = t.shape

    def overlap(dr: int, dc: int) -> float:
        acc = 0.0
        for i in range(max(0, -dr), min(h, h - dr)):
            for j in range(max(0, -dc), min(w, w - dc)):
                acc += t[i, j] * t[i + dr, j + dc]
        return acc

    # normalize by the zero-lag overlap (the filter energy, accumulated the
    # same way) so the zero-lag entry is exactly 1
    energy = overlap(0, 0)
    if energy == 0.0:
        raise NormalizationError("autocorrelation is undefined for an all-zero kernel")
    return {
        (dr, dc): overlap(dr, dc) / energy
        for dr in range(-(h - 1), h)
        for dc in range(-(w - 1), w)
    }
