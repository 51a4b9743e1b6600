"""Virtual optical bench.

Simulates a lamp with slow deterministic drift, a binary spatial modulator,
a transmissive object, a bucket photodiode, and a normalization photodiode
that monitors the lamp.  Every detector sample picks up additive Gaussian
read noise plus a constant background, and the bucket signal is divided by
the normalization sample to cancel lamp fluctuations.

There is one acquisition protocol, the weighted one.  Each pattern ``j`` is
projected as a list of binary frames, each frame ``p`` is read by the bucket
detector, and the reads are combined with the frame weights ``w_p`` and
divided by one normalization read:

    coef_j = sum_p w_p * (a_j * S_p + bg + sigma * z_p) / (a_j + bg_n + sigma_n * z_j)

with ``S_p = <frame_p, object>`` and ``a_j`` the lamp power at step ``j``.
Every read of pattern ``j`` shares ``a_j``, and the read noises ``z_p``
are independent standard normals, so the numerator is, exactly in
distribution,

    a_j * s_j + bg * u_j + sigma * q_j * zeta_j

with ``s_j = sum_p w_p S_p``, ``u_j = sum_p w_p``, ``q_j = sqrt(sum_p
w_p**2)`` and one standard normal ``zeta_j``: the sufficient statistic of a
linear Gaussian model (Kay, *Fundamentals of Statistical Signal
Processing: Estimation Theory*, 1993, ch. 5).  A plan holds these three
sums a pattern, so a cell draws two normals a pattern, however many frames
the bench projects.  Every set is planned by one frame formula: a pattern
has one part per distinct level, and each part is read ``R`` times at
weight ``level / R``.  The set sets ``R``
(:func:`~ghostsim.bases._repeats`, the one budget rule): a parent of 0/1
patterns averages ``repeats_per_pattern`` reads of each frame, and any
other set reads each part once.

The overlaps do not depend on the integration time, the repeat or the
seed, so :func:`plan_acquisition` computes them once per sweep and basis,
checks the object there and sums them into a :class:`MeasurementPlan`.
Each overlap is the correctly rounded sum of the object values its frame
lights, what ``math.fsum`` gives, on every CPU and BLAS kernel.  Every set is a parent
or its modification by one kernel, so its split and its overlaps come from
its window form (see :class:`~ghostsim.bases._WindowForm`): the object is
cut into integer limbs whose sums over any frame are exact in float64, a
few products of ``side x side`` matrices sum each limb, and one rounding
to odd followed by one to nearest gives each overlap.

A cell is then ``run_basis_protocol(plan, noise, integration_time_ms)``:
the plan fixes the sums, the noise model the noise levels and the seed,
and the integration time the signal scale.  It draws all of its noise from
one counter-based Philox stream keyed by the cell seed, and
:func:`coefficients_from_draws` turns the draws into coefficients.  Signal
scales linearly with the integration time while per-read noise stays fixed
(a read-noise-dominated detector).  The lamp drift depends on a cell only
through that scale, so its profile over the patterns is computed once per
sweep and each cell multiplies it by its integration time and lamp base.
:class:`NoiseModel` keeps the drift amplitude below 1, and one check,
:func:`_lamp_scale`, keeps that product finite and positive at every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bases import Decomposition, PatternBasis, _WindowForm, _repeats, decompose_basis
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
        for field in ("lamp_base", "lamp_drift_amplitude", "lamp_drift_period",
                      "detector_sigma", "normalization_sigma", "background_measure",
                      "background_norm"):
            value, positive = getattr(self, field), field in ("lamp_base", "lamp_drift_period")
            if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
                raise ConfigError(f"{field} must be finite and "
                                  f"{'positive' if positive else '>= 0'}, got {value}")
        if self.lamp_drift_amplitude >= 1:
            raise ConfigError("lamp_drift_amplitude must be < 1 so the lamp intensity "
                              f"stays positive, got {self.lamp_drift_amplitude}")
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


def _lamp_scale(noise: NoiseModel, integration_time_ms: float) -> float:
    """``integration_time_ms * lamp_base``, once the time is finite and
    positive and the scale times ``1 - a`` and ``1 + a``, the ends of the
    drift profile, are too: rounding is monotone, so every step's lamp is."""
    if not (math.isfinite(integration_time_ms) and integration_time_ms > 0):
        raise ConfigError(
            f"integration_time_ms must be finite and positive, got {integration_time_ms}")
    scale = integration_time_ms * noise.lamp_base
    a = noise.lamp_drift_amplitude
    if not (scale * (1.0 - a) > 0 and scale * (1.0 + a) < math.inf):
        raise ConfigError("lamp intensity is non-positive or infinite at some step; "
                          f"integration_time_ms * lamp_base = {scale!r} under- or "
                          "overflows float64")
    return scale


def lamp_intensity(step, noise: NoiseModel, integration_time_ms: float):
    """Integrated lamp power at a measurement step, or at an array of steps.

    ``A(step) = integration_time * lamp_base * (1 + amplitude *
    sin(2*pi*step/period))``; the drift is a deterministic slow sinusoid so
    runs stay reproducible.  A scalar step gives a float, an array of steps
    an array.  :func:`_lamp_scale` checks the time and the scale, once.
    """
    steps = np.asarray(step)
    if not np.all(steps >= 0):  # NaN fails too
        raise ValueError(f"step must be >= 0, got {step}")
    phase = 2.0 * math.pi * steps / noise.lamp_drift_period
    a = _lamp_scale(noise, integration_time_ms) * (
        1.0 + noise.lamp_drift_amplitude * np.sin(phase))
    return float(a) if steps.ndim == 0 else a


@dataclass(frozen=True, eq=False)
class MeasurementPlan:
    """The noiseless part of one route's acquisition: three sums a pattern.

    With frame ``p`` of pattern ``j`` read at weight ``w_p`` and
    overlapping the object by ``S_p``, ``s[j] = sum_p w_p S_p``, ``u[j] =
    sum_p w_p`` and ``q[j] = sqrt(sum_p w_p**2)``: all that a coefficient
    needs of its frames (see the module formula).  ``bucket_reads`` counts
    the frames, and so the bucket reads, of one acquisition; every pattern
    projects at least one.  The arrays are read-only, so one plan serves
    every cell of a sweep, in any order.
    """

    grid: GridSpec
    s: np.ndarray
    u: np.ndarray
    q: np.ndarray
    bucket_reads: int

    def __post_init__(self):
        m = self.pattern_count
        for name in ("s", "u", "q"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (m,):
                raise DimensionError(
                    f"plan sums must be 1-D, one for each of the {m} patterns")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if int(self.bucket_reads) < m:
            raise DimensionError(f"plan frames must cover each of the {m} patterns")
        object.__setattr__(self, "bucket_reads", int(self.bucket_reads))

    @property
    def pattern_count(self) -> int:
        """Patterns, and so normalization reads, per acquisition."""
        return self.grid.pixel_count


def _check_object(obj) -> np.ndarray:
    o = np.asarray(obj, dtype=float)
    if o.ndim != 2 or o.shape[0] != o.shape[1]:
        raise DimensionError(f"object must be a square 2-D image, got {o.shape}")
    if not np.all(np.isfinite(o)):
        raise DimensionError("object values must be finite")
    if o.size and (o.min() < 0 or o.max() > 1):
        raise ProtocolError("object transmission values must lie in [0, 1]")
    return o


def _limb_layout(o: np.ndarray) -> tuple[int, int, int]:
    """``(width, count, top)``: the object in [0, 1] is ``count`` integer
    limbs below ``2**width``, ``o = sum_k limb_k * 2**(top - width * (k +
    1))``.  A frame lights at most ``o.size`` pixels, so ``width = 53 -
    ceil(log2(o.size))`` keeps every partial sum of one limb an integer
    below ``2**53``: exact in float64, in any order."""
    width = 53 - (o.size - 1).bit_length()
    a = o[o != 0.0]
    if a.size == 0:
        return width, 1, 0
    mantissa, exponent = np.frexp(a)  # a = mantissa * 2**exponent, below 2**top
    digits = np.ldexp(mantissa, 53).astype(np.int64)
    # a = digits * 2**(exponent - 53): a multiple of 2**-fine, which the
    # lowest set bit of digits sets
    low = np.frexp((digits & -digits).astype(float))[1] - 1
    top, fine = int(exponent.max()), int((53 - exponent - low).max())
    return width, -(-(top + fine) // width), top


def _rounded_sum(sums: np.ndarray, width: int, top: int) -> np.ndarray:
    """The float64 nearest ``sum_k sums[k] * 2**(top - width * (k + 1))``,
    ties to even, for exact non-negative int64 limb sums below ``2**53``.

    The sums are carry-normalised in place, then shifted into an
    accumulator, top limb first, while it stays below ``2**61``; the bits
    left over set a sticky bit 0 (rounding to odd).  Rounding to odd at 55
    bits or more, then to nearest at 53, is correct rounding (Boldo and
    Melquiond, IEEE TC 57(4), 2008).  A result below ``2**-1022`` sums only
    multiples of ``2**-1074`` below it, so it is exact and ``ldexp`` does
    not round it a second time."""
    for k in range(len(sums) - 1, 0, -1):
        sums[k - 1] += sums[k] >> width
        sums[k] &= (1 << width) - 1
    acc = sums[0]
    exp = np.full(acc.shape, top - width, dtype=np.int32)  # ldexp is fastest on int32
    sticky = np.zeros(acc.shape, dtype=bool)
    for limb in sums[1:]:
        # frexp reads the bit length of acc, or one more where the
        # conversion rounds up to a power of two: acc then stops at 60 bits
        take = np.clip(61 - np.frexp(acc.astype(float))[1], 0, width)
        rest = width - take
        acc = (acc << take) | (limb >> rest)
        sticky |= (limb & ((np.int64(1) << rest) - 1)) != 0
        exp -= take
    return np.ldexp((acc | sticky).astype(float), exp)


def _window_overlaps(o: np.ndarray, form: _WindowForm,
                     split: Decomposition) -> np.ndarray:
    """The overlap of each frame of ``split`` with ``o``, correctly rounded
    (``math.fsum`` of the values it lights).  Each limb is peeled off the
    top, exactly: the integer part of the scaled object, whose fraction
    times ``2**width`` is the rest.  The set's window form ``form``, which
    ``split`` was taken from, sums a limb over every frame exactly and in
    any order (:meth:`~ghostsim.bases._WindowForm.overlaps`), so no BLAS
    kernel changes a bit, and :func:`_rounded_sum` rounds once.  A dyadic
    object such as the bar target is one limb: its sums are exact."""
    width, count, top = _limb_layout(o)
    lit = split.level != 0.0  # an all-zero pattern's part is dark
    frame = np.searchsorted(form.values, split.level[lit]) * o.size + split.owner[lit]
    sums = np.empty((count, frame.size), dtype=np.int64)
    x = np.ldexp(o, width - top)
    for k in range(count):
        limb = np.floor(x)
        sums[k] = form.overlaps(limb).ravel()[frame]
        x -= limb
        x *= 2.0**width
    overlap = np.zeros(split.level.size)
    overlap[lit] = _rounded_sum(sums, width, top)
    return overlap


def plan_acquisition(obj, basis: PatternBasis,
                     repeats_per_pattern: int) -> MeasurementPlan:
    """Plan for acquiring every pattern of ``basis`` with a binary modulator.

    The basis is split by :func:`~ghostsim.bases.decompose_basis` into the
    flat ``owner`` and ``level`` arrays of a
    :class:`~ghostsim.bases.Decomposition`, from its window form.  Each
    part is projected ``R`` times and weighted ``level / R``, with ``R``
    from :func:`~ghostsim.bases._repeats`: ``repeats_per_pattern`` for a
    parent of 0/1 patterns, 1 for any other set.
    :func:`~ghostsim.bases.projection_count` counts frames by the same rule.

    Frame ``p`` is ``pattern[owner[p]] == level[p]``, and its overlap is
    the correctly rounded sum of the object values it lights
    (:func:`_window_overlaps`).  The split and the overlaps come from the
    set's one window form, and no frame is made.  They are then summed per
    pattern, in part order, into the plan's ``s``, ``u`` and ``q``: the
    ``R`` reads of a part add up to one read at its level, so ``R`` enters
    only as ``q / sqrt(R)`` and as ``R`` frames a part, and the frame
    arrays are not kept.
    """
    o = _check_object(obj)
    side = basis.grid.side
    if o.shape != (side, side):
        raise DimensionError("object grid does not match basis grid")
    r = _repeats(basis, repeats_per_pattern)
    split = decompose_basis(basis)
    overlap = _window_overlaps(o, basis._form, split)
    m, owner, level = len(basis), split.owner, split.level
    q = np.sqrt(np.bincount(owner, level * level, m))
    q /= math.sqrt(r)
    return MeasurementPlan(basis.grid, np.bincount(owner, level * overlap, m),
                           np.bincount(owner, level, m), q, r * level.size)


def coefficients_from_draws(plan: MeasurementPlan, lamp: np.ndarray,
                            noise: NoiseModel, bucket_draws: np.ndarray,
                            norm_draws: np.ndarray) -> np.ndarray:
    """Coefficient vector of one acquisition, given its standard-normal
    draws, one of each a pattern: ``bucket_draws[j]`` is the ``zeta_j`` of
    the weighted sum of pattern ``j``'s bucket reads and ``norm_draws[j]``
    the noise of its normalization read; ``lamp[j]`` is the lamp power
    while pattern ``j`` is projected.  Each coefficient is

        (lamp * s + bg * u + sigma * q * zeta) / (lamp + bg_n + sigma_n * z)

    with the plan's sums, which has the distribution of the weighted sum
    of the reads of every frame (see the module formula).  Reads may go
    negative when the noise is large, by design of the additive model.
    """
    coef = lamp * plan.s
    term = noise.background_measure * plan.u
    coef += term
    np.multiply(noise.detector_sigma, plan.q, out=term)
    term *= bucket_draws
    coef += term
    norm = lamp + noise.background_norm
    np.multiply(noise.normalization_sigma, norm_draws, out=term)
    norm += term
    coef /= norm
    return coef


@lru_cache(maxsize=1)
def _drift_profile(pattern_count: int, amplitude: float, period: float) -> np.ndarray:
    """``1 + amplitude * sin(2*pi*j/period)`` at every step ``j`` of an
    acquisition: :func:`lamp_intensity` at unit time and lamp base.  It is
    the same for every cell of a sweep, so the last one is kept, read-only."""
    unit = NoiseModel(lamp_drift_amplitude=amplitude, lamp_drift_period=period)
    profile = lamp_intensity(np.arange(pattern_count), unit, 1.0)
    profile.setflags(write=False)
    return profile


def run_basis_protocol(plan: MeasurementPlan, noise: NoiseModel,
                       integration_time_ms: float) -> np.ndarray:
    """Acquire one cell: the coefficient of every pattern of the plan, each
    read integrated for ``integration_time_ms``.

    The lamp power is ``lamp_intensity`` at every pattern, the same bits:
    the cell's :func:`_lamp_scale`, its one check, times the sweep's one
    drift profile (computed for its first cell, then reused).  All draws
    come from one Philox stream keyed by ``noise.seed``: ``2N`` standard
    normals for the ``N`` patterns, the first ``N`` for the weighted sums
    of the bucket reads and the next ``N`` for the normalization reads,
    both in pattern order (:func:`coefficients_from_draws`).  The cell is
    therefore reproducible on its own, in any order, and its cost does not
    grow with the frame count.
    """
    lamp = _lamp_scale(noise, integration_time_ms) * _drift_profile(
        plan.pattern_count, noise.lamp_drift_amplitude, noise.lamp_drift_period)
    rng = np.random.Generator(np.random.Philox(noise.seed))
    m = plan.pattern_count
    draws = rng.standard_normal(2 * m)
    return coefficients_from_draws(plan, lamp, noise, draws[:m], draws[m:])
