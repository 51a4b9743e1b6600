"""Illumination-pattern sets.

Canonical (one-hot raster) and Hadamard generators, filter-modified variants
of either, and the split of a multi-level pattern into weighted binary parts
that a two-state amplitude modulator can actually project.  A split is
described by its levels alone: part ``k`` of pattern ``P`` is the frame
``P == level_k``, so no part image is stored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GridSpec, Kernel, _stencil
from .errors import DimensionError, UnsupportedSizeError

__all__ = [
    "CANONICAL",
    "HADAMARD",
    "PatternBasis",
    "SubPatternSet",
    "canonical_basis",
    "hadamard_basis",
    "modify_basis",
    "binary_decompose",
    "decompose_basis",
    "projection_count",
]

CANONICAL = "canonical"
HADAMARD = "hadamard"


@dataclass(frozen=True, eq=False)
class PatternBasis:
    """Ordered, complete set of ``side**2`` patterns sharing one grid.

    ``stack`` has shape ``(pixel_count, side, side)``; pattern ``j`` is
    ``stack[j]``.  Its dtype may be integer (the int8 parents and their
    exact filter-modified sets) or float; a float stack must be finite.

    ``factor`` is the ``side x side`` matrix ``F`` of a separable set:
    pattern ``j = r * side + c`` is ``kernel * outer(F[r], F[c])``, the
    cyclic convolution of that outer product with ``kernel``, or the outer
    product itself when ``kernel`` is None.  The parents have ``F = I``
    (canonical) or ``F = H_side`` (Hadamard) and no kernel; their
    filter-modified sets keep ``F`` and record the kernel.  Both are None
    for a set with no such form (a custom stack, or a set modified twice).
    The arrays are frozen after construction, so one basis serves every
    cell of a sweep unchanged, in any order.
    """

    grid: GridSpec
    stack: np.ndarray
    label: str
    factor: np.ndarray | None = None
    kernel: Kernel | None = None

    def __post_init__(self):
        stack = np.asarray(self.stack)
        n = self.grid.side
        expected = (self.grid.pixel_count, n, n)
        if stack.shape != expected:
            raise DimensionError(
                f"basis stack must have shape {expected}, got {stack.shape}"
            )
        # an integer stack is finite by construction; skip the scan
        if (not np.issubdtype(stack.dtype, np.integer)
                and not np.all(np.isfinite(stack))):
            raise DimensionError("basis patterns must be finite")
        stack.setflags(write=False)
        object.__setattr__(self, "stack", stack)
        if self.factor is not None:
            factor = np.asarray(self.factor)
            if factor.shape != (n, n):
                raise DimensionError(
                    f"basis factor must have shape {(n, n)}, got {factor.shape}")
            factor.setflags(write=False)
            object.__setattr__(self, "factor", factor)

    def __len__(self) -> int:
        return self.stack.shape[0]

    def __iter__(self):
        return iter(self.stack)

    def pattern(self, index: int) -> np.ndarray:
        return self.stack[index]


def canonical_basis(grid: GridSpec) -> PatternBasis:
    """One-hot pattern per pixel, ordered by flattened index."""
    m, n = grid.pixel_count, grid.side
    stack = np.eye(m, dtype=np.int8).reshape(m, n, n)
    return PatternBasis(grid, stack, CANONICAL, _parent_factor(CANONICAL, n))


def _require_power_of_two(side: int):
    if side & (side - 1) != 0:
        raise UnsupportedSizeError(
            f"Hadamard basis needs a power-of-two grid side, got {side}"
        )


def _parent_factor(label: str, side: int) -> np.ndarray:
    """The int8 ``side x side`` factor of a parent set: the identity for
    ``canonical``, the Sylvester-ordered Hadamard matrix for ``hadamard``
    (which needs a power-of-two side).  Pattern ``r * side + c`` of the
    parent is ``outer(F[r], F[c])``, so one pattern needs no stack."""
    if label != HADAMARD:
        return np.eye(side, dtype=np.int8)
    _require_power_of_two(side)
    f = np.ones((1, 1), dtype=np.int8)
    while f.shape[0] < side:  # Sylvester doubling: [[H, H], [H, -H]]
        f = np.block([[f, f], [f, -f]])
    return f


def hadamard_basis(grid: GridSpec) -> PatternBasis:
    """Rows of the Sylvester-ordered Hadamard matrix of side ``side**2``,
    reshaped row-major; entries are exactly +/-1.  That matrix is
    ``H_side (x) H_side``, so the stack is the Kronecker square of the
    factor."""
    n = grid.side
    f = _parent_factor(HADAMARD, n)
    return PatternBasis(grid, np.kron(f, f).reshape(grid.pixel_count, n, n),
                        HADAMARD, f)


def modify_basis(basis: PatternBasis, kernel: Kernel) -> PatternBasis:
    """Cyclically convolve every pattern with ``kernel``.

    An integer stack filtered by integral taps stays integer, in the
    stack's dtype widened only where the sum could overflow it (int8 for
    the edge stencil on either parent); the values equal the float64
    sum's.  Any other stack or kernel gives float64.  Pattern order is
    preserved and the label records parentage, so a modified basis can
    always be traced back to the set used for reconstruction.  A parent's
    factor is kept and ``kernel`` recorded beside it; a set that already
    has a kernel, or no factor, gives a set with neither.
    """
    out = _stencil(basis.stack, kernel, 1)
    label = f"modified({basis.label},{kernel.name or 'custom'})"
    if basis.factor is None or basis.kernel is not None:
        return PatternBasis(basis.grid, out, label)
    return PatternBasis(basis.grid, out, label, basis.factor, kernel)


@dataclass(frozen=True)
class SubPatternSet:
    """Binary split of one multi-level pattern, as its levels.

    ``weights`` lists the pattern's distinct nonzero values, descending, or
    ``(0.0,)`` for an all-zero pattern.  Part ``k`` is the binary frame
    ``pattern == weights[k]`` (all dark for weight 0), so the weighted sum of
    the parts reproduces the pattern exactly, one part per weight.
    """

    parent_index: int
    weights: tuple[float, ...]

    @property
    def part_count(self) -> int:
        return len(self.weights)


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct values of an array, ascending and flat: ``np.unique``
    without its ``numpy.ma`` import, which numpy 2 makes on first use."""
    v = np.sort(values, axis=None)
    keep = np.ones(v.size, dtype=bool)
    np.not_equal(v[1:], v[:-1], out=keep[1:])
    return v[keep]


def binary_decompose(pattern, parent_index: int = 0) -> SubPatternSet:
    """Split a pattern into weighted binary parts, one per distinct nonzero
    value (descending), so each part is projectable by a binary modulator.

    Values are compared in float64.  An all-zero pattern yields a single
    all-dark part with weight 0.
    """
    img = np.asarray(pattern, dtype=float)
    if img.ndim != 2:
        raise DimensionError(f"pattern must be 2-D, got shape {img.shape}")
    if not np.all(np.isfinite(img)):
        raise DimensionError("pattern values must be finite")
    levels = _sorted_unique(img)
    levels = levels[levels != 0.0][::-1]  # descending: positive parts first
    return SubPatternSet(parent_index, tuple(levels.tolist()) or (0.0,))


# Pattern entries per row block of the level scan (64 patterns at side 64):
# its ``block == level`` mask is 256 KiB.
_SCAN_ELEMENTS = 1 << 18
# Widest integer span ``[min, max]`` a row block is scanned for as a whole; a
# wider block is split pattern by pattern, as binary_decompose does.
_SCAN_LEVELS = 64


def _exact_in_float64(arr: np.ndarray) -> bool:
    """Whether ``arr`` is integer with every entry exact in float64, so that
    comparing it in its own dtype agrees with a float64 comparison."""
    if not np.issubdtype(arr.dtype, np.integer):
        return False
    return arr.dtype.itemsize <= 4 or max(-int(arr.min()), int(arr.max())) <= 2**53


def decompose_basis(basis: PatternBasis) -> list[SubPatternSet]:
    """Decompose every pattern of a basis, preserving order.

    The weights and their order are exactly those of
    :func:`binary_decompose` for each pattern, but they are found a row
    block of the stack at a time.  A block that is exact in float64 and
    spans at most ``_SCAN_LEVELS`` integers is scanned once per candidate
    level, descending: ``block == level`` tells which patterns hold it.
    Every other block is split pattern by pattern.  No part image is built;
    a frame is ``pattern == weight`` wherever it is needed.
    """
    m, shape = len(basis), (basis.grid.side, basis.grid.side)
    flat = basis.stack.reshape(m, -1)
    step = max(1, _SCAN_ELEMENTS // flat.shape[1])
    weights = [[] for _ in range(m)]
    for start in range(0, m, step):
        block = flat[start:start + step]
        exact = _exact_in_float64(block)
        lo, hi = (int(block.min()), int(block.max())) if exact else (0, 0)
        if not exact or hi - lo > _SCAN_LEVELS:
            for i, row in enumerate(block, start):
                weights[i] = binary_decompose(row.reshape(shape), i).weights
            continue
        for level in [v for v in range(hi, lo - 1, -1) if v != 0]:
            for i in (np.flatnonzero((block == level).any(axis=1)) + start).tolist():
                weights[i].append(float(level))
    return [SubPatternSet(j, tuple(w) or (0.0,)) for j, w in enumerate(weights)]


def projection_count(basis: PatternBasis, repeats_per_pattern: int) -> int:
    """Total binary frames projected to acquire the whole basis once, as
    the measurement plans project them: one per binary part (one per
    distinct nonzero level of a pattern, one for an all-zero pattern), each
    repeated ``repeats_per_pattern`` times for a canonical basis.
    """
    if repeats_per_pattern < 1:
        raise ValueError("repeats_per_pattern must be >= 1")
    frames = sum(sub.part_count for sub in decompose_basis(basis))
    return frames * repeats_per_pattern if basis.label == CANONICAL else frames
