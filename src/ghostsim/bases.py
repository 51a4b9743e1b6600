"""Illumination-pattern sets.

Canonical (one-hot raster) and Hadamard generators, their filter-modified
sets, and the split of a multi-level pattern into weighted binary parts that
a two-state amplitude modulator can actually project.  Every set is a
parent's ``side x side`` factor and at most one kernel, so no set built here
holds a ``side**4`` stack.

A pattern's value at a pixel depends only on two short windows of the
factor, one in its row and one in its column.  A set has few distinct
windows, and its window form (:class:`_WindowForm`), made once with the
set, holds the level of each pair of them: the one definition of its
patterns.  A pattern is read off the form where one is asked for.  The
form's census, by classes of factor rows, is taken once per set, when it
is first read, and gives the levels of every pattern, and so every frame
count.  Each frame's overlap with an object comes from the form and a few
``side x side`` products.  Neither scans the patterns.  A split is
described by its levels alone: part ``k`` of pattern ``P`` is the frame
``P == level_k``, so no part image is stored.  The split of a whole set is
two flat arrays, the owner and the level of each part
(:class:`Decomposition`); no object is made per pattern unless one is asked
for.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import GridSpec, Kernel, _require_fits
from .errors import DimensionError, ProtocolError, UnsupportedSizeError

__all__ = [
    "CANONICAL",
    "HADAMARD",
    "PatternBasis",
    "SubPatternSet",
    "Decomposition",
    "canonical_basis",
    "hadamard_basis",
    "modify_basis",
    "decompose_basis",
    "projection_count",
]

CANONICAL = "canonical"
HADAMARD = "hadamard"


class PatternBasis:
    """Ordered, complete set of ``side**2`` patterns sharing one grid, held
    as a factor and at most one kernel.

    ``factor`` is the ``side x side`` matrix ``F``: pattern ``j = r * side
    + c`` is ``kernel * outer(F[r], F[c])``, the cyclic convolution of that
    outer product with ``kernel``, or the outer product itself when
    ``kernel`` is None.  The parents have ``F = I`` (canonical) or ``F =
    H_side`` (Hadamard) and no kernel; their filter-modified sets keep ``F``
    and record the kernel.  ``F`` must be integer with entries in ``{-1, 0,
    1}``.  The patterns of every set are float64.  ``label`` is a name, for
    messages and file names; no rule reads it.  A set with no kernel
    records ``d`` where ``F F^T = d I`` (1 for ``I``, ``side`` for
    ``H_side``), computed once and exactly, or None for any other factor:
    only such a parent can rebuild an image.

    The set makes its window form (:class:`_WindowForm`) when it is built
    and holds no pattern.  ``pattern(j)`` reads one off the form, and
    ``stack`` all of them, shape ``(pixel_count, side, side)``, anew on
    each read: a test oracle of ``side**4`` entries that no run path reads.
    The set is read-only, so it serves every cell of a sweep, in any order.
    """

    __slots__ = ("grid", "label", "factor", "kernel", "_form", "_norm")

    def __init__(self, grid: GridSpec, label: str, factor, kernel: Kernel | None = None):
        n = grid.side
        factor = np.asarray(factor)
        if factor.shape != (n, n):
            raise DimensionError(
                f"basis factor must have shape {(n, n)}, got {factor.shape}")
        if not np.issubdtype(factor.dtype, np.integer) or np.abs(factor).max() > 1:
            raise DimensionError("a basis needs an integer factor with entries "
                                 "in {-1, 0, 1}")
        factor.setflags(write=False)
        if kernel is not None:
            _require_fits(kernel, n)
            # each entry sums at most every tap once
            if not np.isfinite(np.abs(kernel.taps).sum()):
                raise DimensionError("basis patterns must be finite")
        norm = None
        if kernel is None:
            # integer sums of at most n entries of -1, 0 or 1: exact in float64
            f = factor.astype(float)
            gram = f @ f.T
            d = gram[0, 0]
            if np.count_nonzero(gram) == n and np.all(gram.diagonal() == d):
                norm = int(d)
        for name, value in (("grid", grid), ("label", label), ("factor", factor),
                            ("kernel", kernel), ("_form", _window_form(factor, kernel)),
                            ("_norm", norm)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"PatternBasis is read-only: cannot set {name!r}")

    def __len__(self) -> int:
        return self.grid.pixel_count

    def _rows(self, start: int, stop: int) -> np.ndarray:
        """Patterns ``start:stop``, float64: each pattern's levels
        across its column windows, copied into its pixel rows by their row
        windows."""
        form = self._form
        r, c = np.divmod(np.arange(start, stop), self.grid.side)
        across = form.level[:, form.cols[c]]
        return across[form.rows[r], np.arange(r.size)[:, None]]

    @property
    def stack(self) -> np.ndarray:
        stack = self._rows(0, len(self))
        stack.setflags(write=False)
        return stack

    def pattern(self, index: int) -> np.ndarray:
        j = range(len(self))[index]
        return self._rows(j, j + 1)[0]


def canonical_basis(grid: GridSpec) -> PatternBasis:
    """One-hot pattern per pixel, ordered by flattened index: factor ``I``."""
    return PatternBasis(grid, CANONICAL, np.eye(grid.side, dtype=np.int8))


def _require_power_of_two(side: int):
    if side & (side - 1) != 0:
        raise UnsupportedSizeError(
            f"Hadamard basis needs a power-of-two grid side, got {side}"
        )


def hadamard_basis(grid: GridSpec) -> PatternBasis:
    """Rows of the Sylvester-ordered Hadamard matrix of side ``side**2``,
    reshaped row-major; entries are exactly +/-1.  That matrix is
    ``H_side (x) H_side``, so the set is held as the factor ``H_side``
    (which needs a power-of-two side)."""
    _require_power_of_two(grid.side)
    f = np.ones((1, 1), dtype=np.int8)
    while f.shape[0] < grid.side:  # Sylvester doubling: [[H, H], [H, -H]]
        f = np.block([[f, f], [f, -f]])
    return PatternBasis(grid, HADAMARD, f)


def modify_basis(basis: PatternBasis, kernel: Kernel) -> PatternBasis:
    """Cyclically convolve every pattern of a parent with ``kernel``.

    The parent's factor is kept and ``kernel`` recorded beside it; no
    pattern is made.  The patterns are float64, with the values of a
    float64 roll sum over the parent's patterns.  Pattern order is
    preserved and the label records parentage, so a modified basis can
    always be traced back to the set used for reconstruction.  Only a
    parent can be modified: a set modified twice is its parent modified
    once, by the convolution of the two kernels.
    """
    if basis.kernel is not None:
        raise ProtocolError(f"{basis.label} is already filter-modified; modify "
                            f"its parent instead")
    label = f"modified({basis.label},{kernel.name or 'custom'})"
    return PatternBasis(basis.grid, label, basis.factor, kernel)


def _fold(columns, base: int, shape):
    """``(ids, first)``: ``ids`` numbers the distinct sequences that
    ``columns`` (arrays of ``shape``, entries in ``range(base)``) hold at
    each position, and ``first[k]`` is a flat position of sequence ``k``;
    by sorting, not by ``np.unique``, which loads ``numpy.ma``."""
    ids = np.zeros(shape, dtype=np.intp)
    for column in columns:
        code = base * ids + column
        ids = np.searchsorted(_sorted_unique(code), code)
    first = np.zeros(int(ids.max()) + 1, dtype=np.intp)
    first[ids.ravel()] = np.arange(ids.size)
    return ids, first


def _windows(f: np.ndarray, offsets: list[int]):
    """``(ids, windows)``: ``ids[r, i]`` numbers the window ``f[r, i -
    offsets]`` (indices wrap; entries -1, 0 or 1) among the distinct ones,
    which are the rows of ``windows``."""
    ids, first = _fold((np.roll(f, d, axis=1) + 1 for d in offsets), 3, f.shape)
    r, i = np.divmod(first, len(f))
    return ids, f[r[:, None], (i[:, None] - np.array(offsets, dtype=int)) % len(f)]


def _classes(ids: np.ndarray, count: int):
    """``(cls, sets)``: ``cls[r]`` numbers the set of windows that row ``r``
    of ``ids`` holds, and ``sets[k, a]`` is 1.0 where set ``k`` holds
    window ``a`` (of ``count``)."""
    held = np.zeros((count, len(ids)), dtype=bool)
    held[ids, np.arange(len(ids))[:, None]] = True
    cls, first = _fold(held, 2, len(ids))
    return cls, held[:, first].T.astype(float)


@dataclass(frozen=True, eq=False)
class _WindowForm:
    """Every pattern of a set as the levels of pairs of factor windows.

    With the kernel's taps ``v_t`` at ``(dr_t, dc_t)`` (one unit tap for a
    parent), pattern ``(r, c)`` at pixel ``(i, j)`` is ``sum_t v_t F[r, i -
    dr_t] F[c, j - dc_t]`` (indices wrap).  That is a function of the row
    window ``F[r, i - D_r]`` and the column window ``F[c, j - D_c]`` alone,
    where ``D_r`` and ``D_c`` are the kernel's distinct row and column
    offsets.  ``rows[r, i]`` numbers the row window at ``(r, i)`` and
    ``cols[c, j]`` the column window at ``(c, j)``.  ``level[a, b]`` is the
    level of the window pair ``(a, b)``, in float64, so pattern
    ``(r, c)`` is ``level[rows[r], :][:, cols[c]]``.  ``pairs[a, b]`` is the
    index in ``values`` (the distinct nonzero levels, ascending) of that
    level, or ``len(values)`` for level 0.

    Let ``U_a[r, i] = [rows[r, i] = a]`` and let ``M_al[c, j]`` be 1 where
    ``pairs[a, cols[c, j]] = l``.  The frame of level ``l`` in pattern ``(r,
    c)`` is then ``sum_a outer(U_a[r], M_al[c])``, and it overlaps an object
    ``O`` by ``sum_a (U_a O M_al^T)[r, c]`` (:meth:`overlaps`).  Every entry
    of ``U_a`` and ``M_al`` is 0 or 1, and the frames of one pattern light
    distinct pixels, so each partial sum of an overlap is a sum of distinct
    object values.
    """

    rows: np.ndarray
    cols: np.ndarray
    level: np.ndarray
    pairs: np.ndarray
    values: np.ndarray

    def _levels(self) -> np.ndarray:
        """``E[l, a, b] = [pairs[a, b] = l]``, in float64."""
        return (self.pairs == np.arange(len(self.values))[:, None, None]).astype(float)

    @cached_property
    def census(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, cols, parts)``.  Pattern ``(r, c)`` holds the level of
        each pair of a window in row ``r`` of ``self.rows`` and one in row
        ``c`` of ``self.cols``, so rows holding the same windows form a
        class, ``rows[r]``, as do columns, ``cols[c]``.  ``parts[k, m, l]``
        is True where the patterns of classes ``(k, m)`` project part ``l``:
        the nonzero levels, descending, then an all-zero pattern's dark part."""
        rows, row_sets = _classes(self.rows, self.pairs.shape[0])
        cols, col_sets = _classes(self.cols, self.pairs.shape[1])
        # exact: each sum counts at most every window pair once
        lit = np.moveaxis(row_sets @ self._levels()[::-1] @ col_sets.T > 0, 0, -1)
        return rows, cols, np.concatenate([lit, ~lit.any(axis=2, keepdims=True)], axis=2)

    def overlaps(self, o: np.ndarray) -> np.ndarray:
        """Overlap of each level's frame (a row) in each pattern (a
        column) with the object ``o``: for each row window, one product
        ``U_a O``, and one with the ``M_al`` of each level it reaches."""
        n, levels = len(o), self._levels()
        acc = np.zeros((len(self.values), n, n))
        for a, reach in enumerate(levels.any(axis=2).T):
            if reach.any():
                x = (self.rows == a).astype(float) @ o
                for level in np.flatnonzero(reach):
                    acc[level] += x @ levels[level, a][self.cols].T
        return acc.reshape(len(self.values), n * n)


def _window_form(f: np.ndarray, kernel: Kernel | None) -> _WindowForm:
    """The window form of the set of factor ``f`` and ``kernel``.  The level
    of each window pair is the stencil sum of the pair's outer product, one
    float64 term per tap in tap order, so it has the bits of a float64 roll
    sum of the patterns.  Integral taps give integer levels, exact in
    float64 below 2**53."""
    taps = [(0, 0, 1.0)] if kernel is None else list(kernel.offsets())
    row_offsets = sorted({dr for dr, _, _ in taps})
    col_offsets = sorted({dc for _, dc, _ in taps})
    rows, row_windows = _windows(f, row_offsets)
    cols, col_windows = _windows(f, col_offsets)
    level = np.zeros((len(row_windows), len(col_windows)))
    for dr, dc, v in taps:
        term = np.multiply.outer(row_windows[:, row_offsets.index(dr)],
                                 col_windows[:, col_offsets.index(dc)])
        level += term.astype(float) * v
    values = _sorted_unique(level)
    values = values[values != 0.0]
    pairs = np.searchsorted(values, level)
    pairs[level == 0.0] = len(values)
    return _WindowForm(rows, cols, level, pairs, values)


@dataclass(frozen=True)
class SubPatternSet:
    """Binary split of one multi-level pattern, as its levels.

    ``weights`` lists the pattern's distinct nonzero values, descending, or
    ``(0.0,)`` for an all-zero pattern.  Part ``k`` is the binary frame
    ``pattern == weights[k]`` (all dark for weight 0), so the weighted sum of
    the parts reproduces the pattern exactly, one part per weight.  An item
    of a :class:`Decomposition` is made into one when it is read.
    """

    parent_index: int
    weights: tuple[float, ...]

    @property
    def part_count(self) -> int:
        return len(self.weights)


@dataclass(frozen=True, eq=False)
class Decomposition(Sequence):
    """The binary split of every pattern of a set, as two flat arrays.

    Part ``p`` belongs to pattern ``owner[p]`` and has level ``level[p]``.
    ``owner`` is ascending and names every pattern at least once; the
    levels of one pattern are its distinct nonzero values, descending, or
    the one level 0.0 of an all-zero pattern's dark part.  Read as a
    sequence, item ``j`` is the :class:`SubPatternSet` of pattern ``j``,
    made when it is read.  The arrays are read-only.
    """

    owner: np.ndarray
    level: np.ndarray

    def __post_init__(self):
        owner = np.asarray(self.owner, dtype=np.intp)
        level = np.asarray(self.level, dtype=float)
        if owner.ndim != 1 or level.shape != owner.shape:
            raise DimensionError("split arrays must be 1-D and of equal length")
        step = np.diff(owner)
        if owner.size and (owner[0] != 0 or step.min(initial=0) < 0 or step.max(initial=0) > 1):
            raise DimensionError("split owners must count up from 0 in steps of 0 or 1")
        for name, arr in (("owner", owner), ("level", level)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        # parts bounds[j]:bounds[j + 1] are pattern j's
        count = int(owner[-1]) + 1 if owner.size else 0
        object.__setattr__(self, "_bounds", np.searchsorted(owner, np.arange(count + 1)))

    def __len__(self) -> int:
        return len(self._bounds) - 1

    def __getitem__(self, index: int) -> SubPatternSet:
        j = range(len(self))[operator.index(index)]
        start, stop = self._bounds[j:j + 2].tolist()
        return SubPatternSet(j, tuple(self.level[start:stop].tolist()))


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct values of an array, ascending and flat: ``np.unique``
    without its ``numpy.ma`` import, which numpy 2 makes on first use."""
    v = np.sort(values, axis=None)
    keep = np.ones(v.size, dtype=bool)
    np.not_equal(v[1:], v[:-1], out=keep[1:])
    return v[keep]


def decompose_basis(basis: PatternBasis) -> Decomposition:
    """Decompose every pattern of a basis, preserving order.

    Each pattern's weights are its distinct nonzero values, descending (one
    dark part for an all-zero pattern), held as flat arrays
    (:class:`Decomposition`) and read off the census of the set's window
    form (:attr:`_WindowForm.census`), with no object per pattern and no
    scan over patterns.  No part image is built; a frame is ``pattern ==
    weight`` wherever it is needed.
    """
    form = basis._form
    rows, cols, parts = form.census
    owner, k = np.divmod(np.flatnonzero(parts[rows[:, None], cols]), parts.shape[2])
    return Decomposition(owner, np.append(form.values[::-1], 0.0)[k])


def _repeats(basis: PatternBasis, repeats_per_pattern: int) -> int:
    """How many times each part of ``basis`` is read, the one budget rule:
    ``repeats_per_pattern`` for a parent of 0/1 patterns (no kernel, and no
    level but 1), whose binary frames a repeat averages, and 1 for any
    other set, whose parts are read at their levels."""
    if repeats_per_pattern < 1:
        raise ValueError("repeats_per_pattern must be >= 1")
    binary = basis.kernel is None and np.all(basis._form.values == 1.0)
    return repeats_per_pattern if binary else 1


def projection_count(basis: PatternBasis, repeats_per_pattern: int) -> int:
    """Total binary frames projected to acquire the whole basis once, as
    the measurement plans project them: each binary part (one per distinct
    nonzero level of a pattern, one for an all-zero pattern) read
    :func:`_repeats` times.  The parts are counted off the census
    (:attr:`_WindowForm.census`), unsplit.
    """
    r = _repeats(basis, repeats_per_pattern)
    rows, cols, parts = basis._form.census
    return int(np.bincount(rows) @ parts.sum(axis=2) @ np.bincount(cols)) * r
