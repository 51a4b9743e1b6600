"""Virtual optical bench.

Simulates a lamp with slow deterministic drift, a binary spatial modulator,
a transmissive object, a bucket photodiode, and a normalization photodiode
that monitors the lamp.  Every detector sample picks up additive Gaussian
read noise plus a constant background, and the bucket signal is divided by
the normalization sample to cancel lamp fluctuations.

There is one acquisition protocol, the weighted one.  Each pattern ``j`` is
projected as a list of binary parts, each part is read once by the bucket
detector, and the reads are combined with the part weights and divided by
one normalization read:

    coef_j = sum_p w_p * (a_j * S_p + bg + sigma * z_p) / (a_j + bg_n + sigma_n * z_j)

with ``S_p = <part_p, object>`` and ``a_j`` the lamp power at step ``j``.
Repeating a binary pattern ``R`` times is the same formula with ``R``
identical parts of weight ``1/R``; a multi-level pattern has one part per
distinct level.

The overlaps do not depend on the integration time, the repeat or the
seed, so :func:`plan_acquisition` computes them once per sweep and basis
into a :class:`MeasurementPlan`, and checks the object there.  Each overlap
equals a bucket read's ``float(np.dot(frame, object))`` bit for bit, by one
of two paths.  Every set is a parent or its modification by one kernel, so
its split and its overlaps come from its window form (see
:class:`~ghostsim.bases._WindowForm`): a few products of ``side x side``
matrices, used when their sums come out the same in any order, that is
when every frame lights at most two pixels or the object makes every
partial sum exact (dyadic values of small enough total, see
:func:`_order_free`).  Otherwise (a Hadamard set with a file object, say)
each frame is made dense, a row block of the basis at a time, and dotted
with the object.

A cell is then ``run_basis_protocol(plan, noise, integration_time_ms)``:
the plan fixes the frames, the noise model the noise levels and the seed,
and the integration time the signal scale.  It draws all of its noise from
one counter-based Philox stream keyed by the cell seed, and
:func:`coefficients_from_draws` turns the draws into coefficients.  Signal
scales linearly with the integration time while per-read noise stays fixed
(a read-noise-dominated detector).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bases import (CANONICAL, Decomposition, PatternBasis, _row_blocks, _window_form,
                    _WindowForm, decompose_basis)
from .core import GridSpec
from .errors import ConfigError, DimensionError, ProtocolError
from .pgmio import read_pgm

__all__ = [
    "POST_PROCESSED",
    "BASIS_PROCESSED",
    "METHODS",
    "NoiseModel",
    "MeasurementPlan",
    "synth_bar_target",
    "load_object",
    "lamp_intensity",
    "plan_acquisition",
    "coefficients_from_draws",
    "run_basis_protocol",
]

POST_PROCESSED = "post-processed"
BASIS_PROCESSED = "basis-processed"
METHODS = (POST_PROCESSED, BASIS_PROCESSED)

_MAX_SEED = 2**64


@dataclass(frozen=True)
class NoiseModel:
    """Lamp and detector noise parameters.

    ``lamp_base`` is the lamp power per unit integration time;
    ``detector_sigma`` is the std of each bucket read, ``normalization_sigma``
    the std of each normalization read, and the two backgrounds are constant
    offsets added to every read of the respective photodiode (stray light).
    ``seed`` keys the one Philox stream that an acquisition draws from.
    """

    lamp_base: float = 1.0
    lamp_drift_amplitude: float = 0.0
    lamp_drift_period: float = 40960.0
    detector_sigma: float = 0.0
    normalization_sigma: float = 0.0
    background_measure: float = 0.0
    background_norm: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not self.lamp_base > 0:
            raise ConfigError(f"lamp_base must be positive, got {self.lamp_base}")
        if self.lamp_drift_amplitude < 0:
            raise ConfigError(
                f"lamp_drift_amplitude must be >= 0, got {self.lamp_drift_amplitude}")
        if not self.lamp_drift_period > 0:
            raise ConfigError(
                f"lamp_drift_period must be positive, got {self.lamp_drift_period}")
        for field in ("detector_sigma", "normalization_sigma",
                      "background_measure", "background_norm"):
            if getattr(self, field) < 0:
                raise ConfigError(f"{field} must be >= 0, got {getattr(self, field)}")
        if not (0 <= int(self.seed) < _MAX_SEED):
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        object.__setattr__(self, "seed", int(self.seed))


def synth_bar_target(grid: GridSpec, bar_groups: int = 3) -> np.ndarray:
    """Deterministic binary bar target: three-bar groups of halving pitch
    stacked below each other, inside a clear border margin.

    Raises if the grid is too small to hold the requested number of groups.
    """
    n = grid.side
    if n < 16:
        raise DimensionError(f"bar target needs a grid side of at least 16, got {n}")
    if bar_groups < 1:
        raise ValueError("bar_groups must be >= 1")
    margin = max(2, n // 8)
    usable = n - 2 * margin
    img = np.zeros((n, n))
    thickness = max(1, usable // 12)
    bar_len = max(4, (2 * usable) // 3)
    y = margin
    for g in range(bar_groups):
        t = max(1, thickness >> g)
        for b in range(3):
            y0 = y + 2 * b * t
            if y0 + t > n - margin:
                raise DimensionError(
                    f"{n}x{n} grid is too small for {bar_groups} bar groups"
                )
            img[y0:y0 + t, margin:margin + bar_len] = 1.0
        y += 7 * t  # group height 5t plus a 2t gap
    return img


def load_object(path) -> np.ndarray:
    """Load a transmissive object from a square portable graymap file.

    The transmission is ``gray / maxval``.  :func:`~ghostsim.pgmio.read_pgm`
    already guarantees a finite 2-D array with every value in ``[0, maxval]``,
    so the result lies in ``[0, 1]`` with no clip.
    """
    gray, maxval = read_pgm(path)
    if gray.shape[0] != gray.shape[1]:
        raise DimensionError(f"{path}: object image must be square, got {gray.shape}")
    return gray / maxval


def lamp_intensity(step, noise: NoiseModel, integration_time_ms: float):
    """Integrated lamp power at a measurement step, or at an array of steps.

    ``A(step) = integration_time * lamp_base * (1 + amplitude *
    sin(2*pi*step/period))``; the drift is a deterministic slow sinusoid so
    runs stay reproducible.  A scalar step gives a float, an array of steps
    an array.  The integration time (ms) must be positive.
    """
    if not integration_time_ms > 0:
        raise ConfigError(
            f"integration_time_ms must be positive, got {integration_time_ms}")
    steps = np.asarray(step)
    if np.any(steps < 0):
        raise ValueError(f"step must be >= 0, got {step}")
    phase = 2.0 * math.pi * steps / noise.lamp_drift_period
    a = (integration_time_ms * noise.lamp_base
         * (1.0 + noise.lamp_drift_amplitude * np.sin(phase)))
    if np.any(a <= 0):
        raise ConfigError(
            "lamp intensity is non-positive at some step; "
            "lamp_drift_amplitude must stay below 1"
        )
    return float(a) if steps.ndim == 0 else a


@dataclass(frozen=True, eq=False)
class MeasurementPlan:
    """The noiseless part of one route's acquisition, as flat arrays.

    Part ``p`` belongs to pattern ``owner[p]``, enters its coefficient with
    weight ``weight[p]`` and overlaps the object by ``overlap[p]``.  Parts
    of one pattern are listed in projection order.  Every pattern of the
    grid owns at least one part.  The arrays are read-only, so one plan
    serves every cell of a sweep, in any order.
    """

    grid: GridSpec
    owner: np.ndarray
    weight: np.ndarray
    overlap: np.ndarray

    def __post_init__(self):
        owner = np.asarray(self.owner, dtype=np.intp)
        weight = np.asarray(self.weight, dtype=float)
        overlap = np.asarray(self.overlap, dtype=float)
        if owner.ndim != 1 or weight.shape != owner.shape or overlap.shape != owner.shape:
            raise DimensionError("plan arrays must be 1-D and of equal length")
        m = self.pattern_count
        if (owner.size == 0 or owner.min() < 0 or owner.max() >= m
                or not np.all(np.bincount(owner, minlength=m))):
            raise DimensionError(f"plan parts must cover each of the {m} patterns")
        for name, arr in (("owner", owner), ("weight", weight), ("overlap", overlap)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def pattern_count(self) -> int:
        """Patterns, and so normalization reads, per acquisition."""
        return self.grid.pixel_count

    @property
    def bucket_reads(self) -> int:
        """Binary frames, and so bucket reads, per acquisition."""
        return int(self.owner.size)


def _check_object(obj) -> np.ndarray:
    o = np.asarray(obj, dtype=float)
    if o.ndim != 2 or o.shape[0] != o.shape[1]:
        raise DimensionError(f"object must be a square 2-D image, got {o.shape}")
    if not np.all(np.isfinite(o)):
        raise DimensionError("object values must be finite")
    if o.size and (o.min() < 0 or o.max() > 1):
        raise ProtocolError("object transmission values must lie in [0, 1]")
    return o


def _order_free(o: np.ndarray) -> bool:
    """Whether every sum of distinct object values is exact in any order.

    Let every ``|o|`` be a multiple of ``2**-b``.  Every partial sum of
    distinct values is then a multiple of ``2**-b`` of magnitude at most
    ``sum|o|``, so it is exact when ``2**b * sum|o| <= 2**53``.  The test is
    made in exponents and integers: ``2**b`` itself can overflow.
    """
    a = np.abs(o[o != 0.0])
    if a.size == 0:
        return True
    mantissa, exponent = np.frexp(a)  # a = mantissa * 2**exponent
    digits = np.ldexp(mantissa, 53).astype(np.int64)
    # a = digits * 2**(exponent - 53), and the lowest set bit of digits
    # sets the finest power of two a is a multiple of
    low = np.frexp((digits & -digits).astype(float))[1] - 1
    b = int((53 - exponent - low).max())
    if int(exponent.max()) + b > 53:
        return False
    units = np.ldexp(a, b).astype(np.int64)  # each below 2**53
    # summed in halves of 27 and 26 bits, so that int64 holds any total
    return (int((units >> 26).sum()) << 26) + int((units & (2**26 - 1)).sum()) <= 2**53


def _window_overlaps(o: np.ndarray, form: _WindowForm,
                     split: Decomposition) -> np.ndarray | None:
    """Overlaps of the frames of ``split`` from the set's window form
    ``form`` (see :meth:`~ghostsim.bases._WindowForm.overlaps`), which
    ``split`` was taken from, or None when they might not be exact.

    The result equals the bucket read's dot, whatever order either sums
    in, when every frame lights at most two pixels (the sums add only
    exact zeros besides, and ``fl(a + b)`` is the same in either order), or
    when :func:`_order_free` holds: each partial sum of either is a sum of
    distinct object values.
    """
    if not (_order_free(o) or form.counts().max(initial=0) <= 2):
        return None
    acc = form.overlaps(o)
    lit = split.level != 0.0  # an all-zero pattern's part is dark
    overlap = np.zeros(split.level.size)
    overlap[lit] = acc[np.searchsorted(form.values, split.level[lit]), split.owner[lit]]
    return overlap


# Pattern entries per block of the dense overlap loop: a float block is
# 512 KiB, which is 16 frames at side 64.
_PLAN_ELEMENTS = 1 << 16


def _dense_overlaps(basis: PatternBasis, flat: np.ndarray,
                    split: Decomposition) -> np.ndarray:
    """The overlap of each frame of ``split``, made dense in float64 from a
    row block of the basis and dotted with the object the way one bucket
    read is.  The basis is walked once, and each row block takes the run
    of parts it owns (``owner`` is ascending)."""
    step = max(1, _PLAN_ELEMENTS // flat.size)
    buf = np.empty((step, flat.size))
    overlaps = []
    for start, rows in _row_blocks(basis):
        first, last = np.searchsorted(split.owner, [start, start + len(rows)]).tolist()
        owner, level = split.owner[first:last], split.level[first:last]
        # a level is a value of the rows, and an integer one is exact in
        # float64, so comparing in the rows' dtype agrees with float64; for
        # int8 rows it is also about 3x faster
        key = level.astype(rows.dtype)
        overlap = np.empty(owner.size)
        for s in range(0, owner.size, step):
            e = min(s + step, owner.size)
            block = buf[:e - s]
            np.equal(rows[owner[s:e] - start], key[s:e, None], out=block)
            block[level[s:e] == 0.0] = 0.0  # an all-zero pattern's part is dark
            np.matmul(block[:, None, :], flat[:, None], out=overlap[s:e, None, None])
        overlaps.append(overlap)
    return np.concatenate(overlaps)


def plan_acquisition(obj, basis: PatternBasis,
                     repeats_per_pattern: int) -> MeasurementPlan:
    """Plan for acquiring every pattern of ``basis`` with a binary modulator.

    The basis is split by :func:`~ghostsim.bases.decompose_basis` into the
    flat ``owner`` and ``level`` arrays of a
    :class:`~ghostsim.bases.Decomposition`, from its window form.  A
    canonical basis must split into weight-1 parts (an all-zero pattern's
    dark part allowed): each part is projected ``repeats_per_pattern``
    times and the reads averaged (that many identical parts of weight
    ``1/repeats_per_pattern``).  Any other basis projects each part once,
    weighted by its level; ``repeats_per_pattern`` is not used.
    :func:`~ghostsim.bases.projection_count` counts frames by the same rule.

    Frame ``p`` is ``pattern[owner[p]] == level[p]``, and its overlap is
    what one bucket read's ``float(np.dot(frame, object))`` gives, bit for
    bit, by one of two paths chosen per basis and object:

    * **window**, when the sums come out the same in any order: every
      frame lights at most two pixels (a canonical set with the edge
      stencil, say), or :func:`_order_free` holds for the object (the bar
      target, say).  :func:`_window_overlaps` then forms the overlaps from
      a few products of ``side x side`` matrices.
    * **dense** otherwise.  The basis makes its patterns a row block at a
      time from the factor, once, and each frame of the block is compared
      in the rows' own dtype, which agrees with binary_decompose's float64
      comparison.  The frames are written into one reused float64 buffer,
      and each then meets the object as a ``(1, n) @ (n, 1)`` product,
      which numpy evaluates with the same dot kernel as the bucket read,
      bit for bit.  A matrix-vector product sums in another order and can
      differ in the last bits.  The working memory is a few blocks, never
      a ``side**4`` stack.
    """
    o = _check_object(obj)
    side = basis.grid.side
    if o.shape != (side, side):
        raise DimensionError("object grid does not match basis grid")
    if repeats_per_pattern < 1:
        raise ValueError("repeats_per_pattern must be >= 1")
    split = decompose_basis(basis)
    owner, level = split.owner, split.level
    canonical = basis.label == CANONICAL
    if canonical and not np.all((level == 1.0) | (level == 0.0)):
        raise ProtocolError("a canonical basis must be binary; a multi-level "
                            "basis is split into binary parts under another label")
    overlap = _window_overlaps(o, _window_form(basis), split)
    if overlap is None:
        overlap = _dense_overlaps(basis, o.ravel(), split)
    if canonical:
        r = repeats_per_pattern
        return MeasurementPlan(basis.grid, np.repeat(owner, r),
                               np.full(owner.size * r, 1.0 / r), np.repeat(overlap, r))
    return MeasurementPlan(basis.grid, owner, level, overlap)


def coefficients_from_draws(plan: MeasurementPlan, lamp: np.ndarray,
                            noise: NoiseModel, bucket_draws: np.ndarray,
                            norm_draws: np.ndarray) -> np.ndarray:
    """Coefficient vector of one acquisition, given its standard-normal
    draws: ``bucket_draws[p]`` for the read of part ``p`` and
    ``norm_draws[j]`` for the normalization read of pattern ``j``;
    ``lamp[j]`` is the lamp power while pattern ``j`` is projected.

    Reads may go negative when the noise is large, by design of the
    additive model.
    """
    reads = lamp[plan.owner] * plan.overlap + noise.background_measure
    reads += noise.detector_sigma * bucket_draws
    norm = lamp + noise.background_norm
    norm += noise.normalization_sigma * norm_draws
    combined = np.bincount(plan.owner, plan.weight * reads, plan.pattern_count)
    return combined / norm


def run_basis_protocol(plan: MeasurementPlan, noise: NoiseModel,
                       integration_time_ms: float) -> np.ndarray:
    """Acquire one cell: the coefficient of every pattern of the plan, each
    read integrated for ``integration_time_ms``.

    All draws come from one Philox stream keyed by ``noise.seed``: one per
    bucket read in plan order, then one per normalization read in pattern
    order.  The cell is therefore reproducible on its own, in any order.
    """
    lamp = lamp_intensity(np.arange(plan.pattern_count), noise, integration_time_ms)
    rng = np.random.Generator(np.random.Philox(noise.seed))
    bucket_draws = rng.standard_normal(plan.bucket_reads)
    norm_draws = rng.standard_normal(plan.pattern_count)
    return coefficients_from_draws(plan, lamp, noise, bucket_draws, norm_draws)
