"""Illumination-pattern sets.

Canonical (one-hot raster) and Hadamard generators, filter-modified variants
of either, and the split of a multi-level pattern into weighted binary parts
that a two-state amplitude modulator can actually project.
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
    The stack is frozen after construction, so one basis serves every cell
    of a sweep unchanged, in any order.
    """

    grid: GridSpec
    stack: np.ndarray
    label: str

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
    return PatternBasis(grid, stack, CANONICAL)


def _require_power_of_two(side: int):
    if side & (side - 1) != 0:
        raise UnsupportedSizeError(
            f"Hadamard basis needs a power-of-two grid side, got {side}"
        )


def hadamard_basis(grid: GridSpec) -> PatternBasis:
    """Rows of the Sylvester-ordered Hadamard matrix of side ``side**2``,
    reshaped row-major; entries are exactly +/-1."""
    n = grid.side
    _require_power_of_two(n)
    h = np.ones((1, 1), dtype=np.int8)
    while h.shape[0] < grid.pixel_count:  # Sylvester doubling: [[H, H], [H, -H]]
        h = np.block([[h, h], [h, -h]])
    return PatternBasis(grid, h.reshape(grid.pixel_count, n, n), HADAMARD)


def modify_basis(basis: PatternBasis, kernel: Kernel) -> PatternBasis:
    """Cyclically convolve every pattern with ``kernel``.

    An integer stack filtered by integral taps stays integer, in the
    stack's dtype widened only where the sum could overflow it (int8 for
    the edge stencil on either parent); the values equal the float64
    sum's.  Any other stack or kernel gives float64.  Pattern order is
    preserved and the label records parentage, so a modified basis can
    always be traced back to the set used for reconstruction.
    """
    out = _stencil(basis.stack, kernel, 1)
    label = f"modified({basis.label},{kernel.name or 'custom'})"
    return PatternBasis(basis.grid, out, label)


@dataclass(frozen=True, eq=False)
class SubPatternSet:
    """Binary split of one multi-level pattern.

    ``parts`` holds ``(binary image with entries in {0, 1}, weight)`` pairs;
    the weighted sum of the parts reproduces the parent pattern exactly, one
    part per distinct nonzero level.
    """

    parent_index: int
    parts: tuple[tuple[np.ndarray, float], ...]

    @property
    def part_count(self) -> int:
        return len(self.parts)

    def recombine(self) -> np.ndarray:
        total = np.zeros(self.parts[0][0].shape, dtype=float)
        for part, weight in self.parts:
            total += weight * part
        return total


def binary_decompose(pattern, parent_index: int = 0) -> SubPatternSet:
    """Split a pattern into weighted binary parts, one per distinct nonzero
    value (descending), so each part is projectable by a binary modulator.

    An all-zero pattern yields a single all-zero part with weight 0.
    """
    img = np.asarray(pattern, dtype=float)
    if img.ndim != 2:
        raise DimensionError(f"pattern must be 2-D, got shape {img.shape}")
    if not np.all(np.isfinite(img)):
        raise DimensionError("pattern values must be finite")
    levels = np.unique(img)
    levels = levels[levels != 0.0]
    if levels.size == 0:
        part = np.zeros(img.shape, dtype=np.uint8)
        part.setflags(write=False)
        parts = ((part, 0.0),)
    else:
        built = []
        for level in levels[::-1]:  # descending: positive parts first
            part = (img == level).astype(np.uint8)
            part.setflags(write=False)
            built.append((part, float(level)))
        parts = tuple(built)
    return SubPatternSet(parent_index, parts)


# Pattern entries per row block of the level scan (64 patterns at side 64):
# its ``block == level`` mask is 256 KiB.
_SCAN_ELEMENTS = 1 << 18
# Widest integer span ``[min, max]`` a row block is scanned for as a whole; a
# wider block is split pattern by pattern, as binary_decompose does.
_SCAN_LEVELS = 64


def _level_blocks(stack: np.ndarray):
    """Yield ``(start, block, levels)`` over row blocks of a pattern stack.

    ``block`` holds patterns ``start, start + 1, ...`` flattened to rows.
    ``levels`` lists the integers of the block's ``[min, max]`` but zero,
    descending, when the block is integer, exact in float64 (so that ``==``
    agrees with :func:`binary_decompose`'s float64 comparison) and spans at
    most ``_SCAN_LEVELS``; a level no pattern holds matches no row.
    ``levels`` is None for every other block.
    """
    m = stack.shape[0]
    flat = stack.reshape(m, -1)
    step = max(1, _SCAN_ELEMENTS // flat.shape[1])
    for start in range(0, m, step):
        block = flat[start:start + step]
        levels = None
        if np.issubdtype(block.dtype, np.integer):
            lo, hi = int(block.min()), int(block.max())
            if max(-lo, hi) <= 2**53 and hi - lo <= _SCAN_LEVELS:
                levels = [v for v in range(hi, lo - 1, -1) if v != 0]
        yield start, block, levels


def decompose_basis(basis: PatternBasis) -> list[SubPatternSet]:
    """Decompose every pattern of a basis, preserving order.

    The parts, their weights and their order are exactly those of
    :func:`binary_decompose` for each pattern, but they are found a row
    block and a level at a time: one ``block == level`` mask per level, the
    rows that hold the level kept in one read-only ``uint8`` array, of which
    each part is a view.  All-zero patterns share one all-zero part.
    """
    shape = (basis.grid.side, basis.grid.side)
    parts = [[] for _ in range(len(basis))]
    for start, block, levels in _level_blocks(basis.stack):
        if levels is None:
            for i, row in enumerate(block, start):
                parts[i] = list(binary_decompose(row.reshape(shape), i).parts)
            continue
        for level in levels:
            mask = block == level
            has = mask.any(axis=1)
            rows = np.flatnonzero(has)
            found = mask[has].view(np.uint8).reshape(rows.size, *shape)
            found.setflags(write=False)
            weight = float(level)
            for i, part in zip((rows + start).tolist(), found):
                parts[i].append((part, weight))
    zero = np.zeros(shape, dtype=np.uint8)
    zero.setflags(write=False)
    return [SubPatternSet(j, tuple(p) if p else ((zero, 0.0),))
            for j, p in enumerate(parts)]


def projection_count(basis: PatternBasis, repeats_per_pattern: int) -> int:
    """Total binary frames projected to acquire the whole basis once, as
    the measurement plans project them.

    A canonical basis is binary, so each pattern is repeated
    ``repeats_per_pattern`` times; any other basis is projected through its
    binary parts, one frame per distinct nonzero level of a pattern (one for
    an all-zero pattern), and ``repeats_per_pattern`` is not used.
    """
    if repeats_per_pattern < 1:
        raise ValueError("repeats_per_pattern must be >= 1")
    if basis.label == CANONICAL:
        return len(basis) * repeats_per_pattern
    return sum(sub.part_count for sub in decompose_basis(basis))
