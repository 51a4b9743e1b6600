"""Illumination-pattern sets.

Canonical (one-hot raster) and Hadamard generators, filter-modified variants
of either, and the split of a multi-level pattern into weighted binary parts
that a two-state amplitude modulator can actually project.  A parent, and a
parent modified once, holds only its ``side x side`` factor and the kernel:
its patterns are made a row block at a time (:meth:`PatternBasis._rows`)
where a scan needs them, and its levels come from the factor with no scan,
so no set built here holds a ``side**4`` stack.  A split is described by its
levels alone: part ``k`` of pattern ``P`` is the frame ``P == level_k``, so
no part image is stored.  The split of a whole set is two flat arrays, the
owner and the level of each part (:class:`Decomposition`), made from the
factor or a row block at a time; no object is made per pattern unless one
is asked for.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import GridSpec, Kernel, _require_fits, _stencil, _stencil_dtype
from .errors import DimensionError, UnsupportedSizeError

__all__ = [
    "CANONICAL",
    "HADAMARD",
    "PatternBasis",
    "SubPatternSet",
    "Decomposition",
    "canonical_basis",
    "hadamard_basis",
    "modify_basis",
    "binary_decompose",
    "decompose_basis",
    "projection_count",
]

CANONICAL = "canonical"
HADAMARD = "hadamard"

# Pattern entries per row block of a scan (64 patterns at side 64): an int8
# block is 256 KiB, and its ``block == level`` mask as much again.
_SCAN_ELEMENTS = 1 << 18


class PatternBasis:
    """Ordered, complete set of ``side**2`` patterns sharing one grid.

    ``factor`` is the ``side x side`` matrix ``F`` of a separable set:
    pattern ``j = r * side + c`` is ``kernel * outer(F[r], F[c])``, the
    cyclic convolution of that outer product with ``kernel``, or the outer
    product itself when ``kernel`` is None.  The parents have ``F = I``
    (canonical) or ``F = H_side`` (Hadamard) and no kernel; their
    filter-modified sets keep ``F`` and record the kernel.  Such a set is
    built with ``stack=None`` and holds no patterns: it needs an integer
    factor with entries in ``{-1, 0, 1}``, so that every row block it makes
    has the dtype of the whole set.  A custom set holds its ``stack``, of
    shape ``(pixel_count, side, side)``, with or without a factor; its dtype
    may be integer or float, and a float stack must be finite.

    ``stack`` is that array for a custom set, and for a separable set a
    new one made on each read (a test oracle: ``side**4`` entries).  The
    integer parents and their exact filter-modified sets are integer (int8
    for the edge stencil); any other kernel gives float64.  The arrays are
    read-only, so one basis serves every cell of a sweep, in any order.
    """

    __slots__ = ("grid", "label", "factor", "kernel", "_held")

    def __init__(self, grid: GridSpec, stack, label: str, factor=None,
                 kernel: Kernel | None = None):
        n = grid.side
        if stack is not None:
            stack = np.asarray(stack)
            expected = (grid.pixel_count, n, n)
            if stack.shape != expected:
                raise DimensionError(
                    f"basis stack must have shape {expected}, got {stack.shape}")
            # an integer stack is finite by construction; skip the scan
            if (not np.issubdtype(stack.dtype, np.integer)
                    and not np.all(np.isfinite(stack))):
                raise DimensionError("basis patterns must be finite")
            stack.setflags(write=False)
        if factor is not None:
            factor = np.asarray(factor)
            if factor.shape != (n, n):
                raise DimensionError(
                    f"basis factor must have shape {(n, n)}, got {factor.shape}")
            factor.setflags(write=False)
        if kernel is not None:
            _require_fits(kernel, n)
        if stack is None:
            if (factor is None or not np.issubdtype(factor.dtype, np.integer)
                    or np.abs(factor).max() > 1):
                raise DimensionError("a basis without a stack needs an integer "
                                     "factor with entries in {-1, 0, 1}")
            # each entry sums at most every tap once
            if kernel is not None and not np.isfinite(np.abs(kernel.taps).sum()):
                raise DimensionError("basis patterns must be finite")
        for name, value in (("grid", grid), ("label", label), ("factor", factor),
                            ("kernel", kernel), ("_held", stack)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"PatternBasis is read-only: cannot set {name!r}")

    def __len__(self) -> int:
        return self.grid.pixel_count

    def _rows(self, start: int, stop: int) -> np.ndarray:
        """Patterns ``start:stop``, each flattened to a row of ``side**2``
        entries: a read-only view of a held stack, or else made from the
        factor as ``outer(F[r], F[c])`` and filtered by
        :func:`~ghostsim.core._stencil`.  Either way the rows have the
        values and dtype of the same rows of the whole stack."""
        if self._held is not None:
            return self._held.reshape(len(self), -1)[start:stop]
        n, f = self.grid.side, self.factor
        j = np.arange(start, min(stop, len(self)))
        block = f[j // n, :, None] * f[j % n, None, :]
        if self.kernel is not None:
            block = _stencil(block, self.kernel, 1)
        return block.reshape(j.size, -1)

    @property
    def stack(self) -> np.ndarray:
        if self._held is not None:
            return self._held
        n = self.grid.side
        stack = self._rows(0, len(self)).reshape(len(self), n, n)
        stack.setflags(write=False)
        return stack

    def __iter__(self):
        return iter(self.stack)

    def pattern(self, index: int) -> np.ndarray:
        j = range(len(self))[index]
        return self._rows(j, j + 1).reshape(self.grid.side, self.grid.side)


def _row_blocks(basis: PatternBasis):
    """Yield ``(start, rows)`` over the whole basis, where ``rows`` are
    patterns ``start:start + len(rows)`` as made by ``_rows``: about
    ``_SCAN_ELEMENTS`` entries, or one pattern, a block."""
    m = len(basis)
    step = max(1, _SCAN_ELEMENTS // basis.grid.pixel_count)
    for start in range(0, m, step):
        yield start, basis._rows(start, start + step)


def canonical_basis(grid: GridSpec) -> PatternBasis:
    """One-hot pattern per pixel, ordered by flattened index."""
    return PatternBasis(grid, None, CANONICAL, _parent_factor(CANONICAL, grid.side))


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
    ``H_side (x) H_side``, so the set is held as the factor ``H_side``."""
    return PatternBasis(grid, None, HADAMARD, _parent_factor(HADAMARD, grid.side))


def modify_basis(basis: PatternBasis, kernel: Kernel) -> PatternBasis:
    """Cyclically convolve every pattern with ``kernel``.

    An integer stack filtered by integral taps stays integer, in the
    stack's dtype widened only where the sum could overflow it (int8 for
    the edge stencil on either parent); the values equal the float64
    sum's.  Any other stack or kernel gives float64.  Pattern order is
    preserved and the label records parentage, so a modified basis can
    always be traced back to the set used for reconstruction.  A parent's
    factor is kept and ``kernel`` recorded beside it, and no stack is
    built unless the parent holds one; a set that already has a kernel,
    or no factor, gives a custom set holding its filtered stack.
    """
    label = f"modified({basis.label},{kernel.name or 'custom'})"
    if basis.factor is None or basis.kernel is not None:
        return PatternBasis(basis.grid, _stencil(basis.stack, kernel, 1), label)
    held = None if basis._held is None else _stencil(basis._held, kernel, 1)
    return PatternBasis(basis.grid, held, label, basis.factor, kernel)


# Most kernel taps a +/-1 factor form takes: it sums over ``2**taps``
# subsets of taps.
_SIGN_TAPS = 6


@dataclass(frozen=True, eq=False)
class _FactorForm:
    """Every frame of a separable set as a sum over a few ``side x side``
    matrices of its factor.

    Pattern ``(r, c)`` is ``sum_t v_t x_t`` with ``x_t = outer(a_t, b_t)``,
    ``a_t = roll(F[r], dr_t)`` and ``b_t = roll(F[c], dc_t)`` for the ``T``
    taps ``v_t`` at ``(dr_t, dc_t)`` (one unit tap for a parent).  The
    frame of level ``values[l]`` is ``2**-shift * sum_S coef[l, S] *
    outer(A_S[r], B_S[c])``, where ``A_S`` (``B_S``) is the entrywise
    product of the rolled factors over the taps in subset ``S`` (row ``S``
    of ``member``):

    * ``F = I``: ``S`` runs over single taps, ``coef[l, t] = [v_t = l]``
      and ``shift = 0``.  A kernel fits its grid, so its taps light
      distinct pixels.
    * ``F`` is +/-1, the taps integral with an integer stencil sum and
      ``T <= _SIGN_TAPS``: each ``x_t`` is +/-1, so the frame of level
      ``l`` is the sum over sign vectors ``s`` with ``v . s = l`` of
      ``prod_t (1 + s_t x_t) / 2``.  ``S`` runs over the subsets of taps,
      ``coef[l, S] = sum_{v . s = l} prod_{t in S} s_t`` and ``shift = T``.

    ``values`` lists the levels ascending, 0 included.
    """

    factor: np.ndarray
    offsets: list[tuple[int, int]]
    member: np.ndarray
    coef: np.ndarray
    values: np.ndarray
    shift: int

    def total(self, pair, dtype) -> np.ndarray:
        """``sum_S outer(coef[:, S], pair(A_S, B_S).ravel())``: one row per
        level and one column per pattern, in ``dtype``.  ``A_S`` and
        ``B_S`` are exact, in the factor's dtype."""
        f = self.factor
        rows = [np.roll(f, dr, axis=1) for dr, _ in self.offsets]
        cols = [np.roll(f, dc, axis=1) for _, dc in self.offsets]
        acc = np.zeros((len(self.values), f.size), dtype)
        for k, subset in enumerate(self.member):
            if not self.coef[:, k].any():
                continue
            a, b = np.ones_like(f), np.ones_like(f)
            for i in np.flatnonzero(subset):
                a *= rows[i]
                b *= cols[i]
            acc += np.multiply.outer(self.coef[:, k], pair(a, b).ravel())
        return acc


def _factor_form(basis: PatternBasis) -> _FactorForm | None:
    """The factor form of a separable set, or None when it has none (no
    factor, a +/-1 factor with non-integral taps or more than
    ``_SIGN_TAPS`` taps, or any other factor)."""
    f = basis.factor
    if f is None:
        return None
    taps = [(0, 0, 1.0)] if basis.kernel is None else list(basis.kernel.offsets())
    t, tap_values = len(taps), [v for _, _, v in taps]
    if np.array_equal(f, np.eye(len(f))):
        member, shift = np.eye(t, dtype=np.int64), 0
        values = sorted(set(tap_values) | {0.0})
        coef = (np.array(values)[:, None] == tap_values).astype(np.int64)
    elif (np.all(np.abs(f) == 1) and t <= _SIGN_TAPS
          and _stencil_dtype(f, tap_values).kind == "i"):
        # bit k of a subset index is tap k; a set bit of a sign index is s_k = -1
        member, shift = (np.arange(1 << t)[:, None] >> np.arange(t)) & 1, t
        sums = (1 - 2 * member) @ np.array([int(v) for v in tap_values], dtype=np.int64)
        values = sorted(set(sums.tolist()) | {0})
        coef = (sums == np.array(values)[:, None]) @ (1 - 2 * ((member @ member.T) & 1))
    else:
        return None
    return _FactorForm(f, [(dr, dc) for dr, dc, _ in taps], member, coef,
                       np.array(values, dtype=float), shift)


@dataclass(frozen=True)
class SubPatternSet:
    """Binary split of one multi-level pattern, as its levels.

    ``weights`` lists the pattern's distinct nonzero values, descending, or
    ``(0.0,)`` for an all-zero pattern.  Part ``k`` is the binary frame
    ``pattern == weights[k]`` (all dark for weight 0), so the weighted sum of
    the parts reproduces the pattern exactly, one part per weight.  It is
    what :func:`binary_decompose` returns and what an item of a
    :class:`Decomposition` is made into when it is read.
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


# Pattern entries sorted at a time (8 patterns at side 64): a float64 copy
# of 256 KiB.
_SORT_ELEMENTS = 1 << 15


def _split(held: np.ndarray, levels: np.ndarray, start: int = 0):
    """``(owner, level)`` of the parts of patterns ``start, start + 1, ...``:
    row ``i`` of the boolean ``held`` flags which of ``levels`` pattern
    ``start + i`` holds, and ``levels`` (one row for all patterns, or one
    per pattern) lists them in the order they are projected.  A pattern
    that holds none gets one dark part, of level 0.0."""
    full = np.column_stack([held, ~held.any(axis=1)])
    owner, k = np.divmod(np.flatnonzero(full), full.shape[1])
    lit = k < held.shape[1]
    level = np.zeros(owner.size)
    level[lit] = np.broadcast_to(levels, held.shape)[owner[lit], k[lit]]
    return owner + start, level


def _split_rows(rows: np.ndarray, start: int):
    """``(owner, level)`` of the parts of patterns ``start:start +
    len(rows)``, given flattened as ``rows``: each pattern's distinct
    nonzero values, descending, compared in float64 as
    :func:`binary_decompose` compares.  The rows are cast to float64 and
    sorted one by one, ``_SORT_ELEMENTS`` entries at a time; each run of
    equal nonzero values is one level."""
    step = max(1, _SORT_ELEMENTS // rows.shape[1])
    owners, levels = [], []
    for i in range(0, len(rows), step):
        values = rows[i:i + step].astype(float)
        values.sort(axis=1)
        held = values != 0.0
        held[:, :-1] &= values[:, :-1] != values[:, 1:]  # the last of each run
        owner, level = _split(held[:, ::-1], values[:, ::-1], start + i)  # descending
        owners.append(owner)
        levels.append(level)
    return np.concatenate(owners), np.concatenate(levels)


def decompose_basis(basis: PatternBasis) -> Decomposition:
    """Decompose every pattern of a basis, preserving order.

    The weights and their order are exactly those of
    :func:`binary_decompose` for each pattern, and they are held as flat
    arrays (:class:`Decomposition`), with no object per pattern.  A set
    with a factor form (see :class:`_FactorForm`) takes them from its
    factor, with no scan: the count of pixels at level ``l`` in pattern
    ``(r, c)`` is ``2**-shift * sum_S coef[l, S] * rowsum(A_S)[r] *
    rowsum(B_S)[c]``, exact in integers, and the pattern holds every
    nonzero level it counts.  Any other set is split a row block at a time
    (``_row_blocks``) by :func:`_split_rows`.  No part image is built; a
    frame is ``pattern == weight`` wherever it is needed.
    """
    form = _factor_form(basis)
    if form is not None:
        return _factor_decompose(form)
    owners, levels = zip(*(_split_rows(rows, start) for start, rows in _row_blocks(basis)))
    return Decomposition(np.concatenate(owners), np.concatenate(levels))


def _factor_decompose(form: _FactorForm) -> Decomposition:
    """The split of every pattern of a set, from its factor form."""
    counts = form.total(lambda a, b: np.multiply.outer(a.sum(axis=1, dtype=np.int64),
                                                       b.sum(axis=1, dtype=np.int64)),
                        np.int64) >> form.shift
    nonzero = form.values != 0.0
    held = counts[nonzero][::-1].T > 0  # nonzero levels descending
    return Decomposition(*_split(held, form.values[nonzero][::-1]))


def projection_count(basis: PatternBasis, repeats_per_pattern: int) -> int:
    """Total binary frames projected to acquire the whole basis once, as
    the measurement plans project them: one per binary part (one per
    distinct nonzero level of a pattern, one for an all-zero pattern), each
    repeated ``repeats_per_pattern`` times for a canonical basis.  The
    parts are counted off the flat arrays of :func:`decompose_basis`.
    """
    if repeats_per_pattern < 1:
        raise ValueError("repeats_per_pattern must be >= 1")
    frames = decompose_basis(basis).owner.size
    return frames * repeats_per_pattern if basis.label == CANONICAL else frames
