"""Image-quality metrics and the SNR-versus-integration-time comparison.

SNR is the peak-to-background contrast divided by the background spread,
``(peak_mean - background_mean) / background_std`` with the population
standard deviation.  The peak region is picked from the largest absolute
values of a noiseless reference (filtered images are signed, and edges of
both polarities are signal), so the sweep scores the magnitude of each
reconstruction against masks fixed once per sweep.

``sweep_cells`` hands each cell's image to a caller's sink as soon as the
cell is scored and keeps only the score, so a sweep holds one image at a
time however many cells it has.

``noise_autocorrelation`` measures whether reconstruction noise is white or
carries the filter's correlation structure; ``predicted_amplification`` is
the matching model prediction from the kernel alone.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, replace

import numpy as np

from .bases import (PatternBasis, _sorted_unique, canonical_basis, modify_basis,
                    projection_count)
from .bench import (
    BASIS_PROCESSED,
    METHODS,
    POST_PROCESSED,
    NoiseModel,
    _limb_layout,
    plan_acquisition,
)
from .core import GridSpec, Kernel, cyclic_correlate, filter_energy
from .errors import (
    ConfigError,
    DegenerateBackgroundError,
    DimensionError,
    MaskError,
    NormalizationError,
)
from .pgmio import atomic_write_text
from .reconstruct import basis_processed_image, post_processed_image

__all__ = [
    "RegionMask",
    "SNRReport",
    "SweepCell",
    "SweepSummary",
    "select_peak_mask",
    "select_background_mask",
    "mask_from_rect",
    "compute_snr",
    "predicted_amplification",
    "noise_autocorrelation",
    "derive_seed",
    "sweep_cells",
    "summarize_sweep",
    "write_sweep_csv",
    "write_summary_csv",
]

PEAK = "peak"
BACKGROUND = "background"


@dataclass(frozen=True, eq=False)
class RegionMask:
    """A set of pixels (sorted flat indices) playing the peak or background role."""

    grid: GridSpec
    indices: np.ndarray
    role: str

    def __post_init__(self):
        idx = _sorted_unique(np.asarray(self.indices, dtype=np.int64))
        if idx.size == 0:
            raise MaskError(f"{self.role} mask is empty")
        if idx[0] < 0 or idx[-1] >= self.grid.pixel_count:
            raise MaskError(f"{self.role} mask has indices outside the grid")
        if self.role not in (PEAK, BACKGROUND):
            raise MaskError(f"mask role must be {PEAK!r} or {BACKGROUND!r}")
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return int(self.indices.size)


@dataclass(frozen=True)
class SNRReport:
    peak_mean: float
    background_mean: float
    background_std: float
    snr: float


@dataclass(frozen=True, eq=False)
class SweepCell:
    """One sweep cell's coordinates and score.  Its image went to the
    sweep's sink and is not kept."""

    method: str
    integration_time_ms: float
    repeat: int
    report: SNRReport

    @property
    def snr(self) -> float:
        return self.report.snr


@dataclass(frozen=True)
class SweepSummary:
    method: str
    integration_time_ms: float
    mean_snr: float
    std_snr: float


def _candidates(reference, fraction: float, border: int):
    """The reference as a float image, and the flat indices of its pixels at
    least ``border`` from every edge, ascending."""
    ref = np.asarray(reference, dtype=float)
    if ref.ndim != 2 or ref.shape[0] != ref.shape[1]:
        raise DimensionError(f"reference must be a square image, got {ref.shape}")
    if not 0 < fraction < 1:
        raise MaskError(f"fraction must be in (0, 1), got {fraction}")
    n = ref.shape[0]
    if border < 0:
        raise MaskError("border must be >= 0")
    if 2 * border >= n:
        raise MaskError(f"border {border} leaves no candidate pixels on side {n}")
    idx = np.arange(n * n).reshape(n, n)
    return ref, idx[border:n - border, border:n - border].ravel()


def select_peak_mask(reference, fraction: float, border: int = 0) -> RegionMask:
    """Pixels with the top ``fraction`` of absolute values, borders excluded.

    Ties break by ascending flattened index, so identical references always
    give identical masks.
    """
    ref, cand = _candidates(reference, fraction, border)
    k = int(np.ceil(fraction * cand.size))
    if k == 0:
        raise MaskError("fraction selects zero pixels")
    mag = np.abs(ref.ravel()[cand])
    order = np.argsort(-mag, kind="stable")
    return RegionMask(GridSpec(ref.shape[0]), cand[order[:k]], PEAK)


def select_background_mask(reference, fraction: float, border: int = 0,
                           exclude=None) -> RegionMask:
    """Pixels with the bottom ``fraction`` of absolute values: the flattest
    region of the reference, disjoint from ``exclude`` if given."""
    ref, cand = _candidates(reference, fraction, border)
    if exclude is not None:
        # cand is ascending and unique, so this is its set difference
        drop = _sorted_unique(np.asarray(exclude, dtype=np.int64))
        cand = cand[np.isin(cand, drop, assume_unique=True, invert=True)]
    if cand.size == 0:
        raise MaskError("no candidate pixels left for the background mask")
    k = int(np.ceil(fraction * cand.size))
    mag = np.abs(ref.ravel()[cand])
    order = np.argsort(mag, kind="stable")
    return RegionMask(GridSpec(ref.shape[0]), cand[order[:k]], BACKGROUND)


def mask_from_rect(grid: GridSpec, rect: tuple[int, int, int, int],
                   role: str = BACKGROUND) -> RegionMask:
    """Mask covering the rectangle ``(row0, col0, height, width)``."""
    r0, c0, h, w = rect
    n = grid.side
    if h < 1 or w < 1 or r0 < 0 or c0 < 0 or r0 + h > n or c0 + w > n:
        raise MaskError(f"rectangle {rect} does not fit a {n}x{n} grid")
    rows = np.arange(r0, r0 + h)
    cols = np.arange(c0, c0 + w)
    idx = (rows[:, None] * n + cols[None, :]).ravel()
    return RegionMask(grid, idx, role)


def _check_disjoint(peak: RegionMask, background: RegionMask):
    if peak.grid != background.grid:
        raise MaskError("peak and background masks live on different grids")
    # mask indices are sorted and unique by construction
    if np.intersect1d(peak.indices, background.indices, assume_unique=True).size:
        raise MaskError("peak and background masks overlap")


def compute_snr(image, peak: RegionMask, background: RegionMask) -> SNRReport:
    """Contrast-over-spread score of an image for a fixed mask pair.

    ``snr = (mean over peak - mean over background) / population std over
    background``; raises if the background has zero spread.
    """
    img = np.asarray(image, dtype=float)
    if img.shape != (peak.grid.side, peak.grid.side):
        raise DimensionError(
            f"image shape {img.shape} does not match mask grid {peak.grid.side}"
        )
    _check_disjoint(peak, background)
    vals = img.ravel()
    peak_mean = float(vals[peak.indices].mean())
    bg = vals[background.indices]
    background_mean = float(bg.mean())
    background_std = float(bg.std())
    if background_std == 0.0:
        raise DegenerateBackgroundError(
            "background region is constant; SNR is undefined"
        )
    return SNRReport(peak_mean, background_mean, background_std,
                     (peak_mean - background_mean) / background_std)


def predicted_amplification(kernel: Kernel) -> float:
    """Predicted white-noise std amplification of the filter: sqrt of the
    filter energy."""
    return float(np.sqrt(filter_energy(kernel)))


def noise_autocorrelation(image) -> np.ndarray:
    """Cyclic normalized autocorrelation of a mean-subtracted image.

    Returns an array ``R`` with ``R[dr % n, dc % n]`` the correlation at lag
    ``(dr, dc)`` (negative lags wrap, so ``R[1, -1]`` works directly) and
    ``R[0, 0] == 1``.
    """
    img = np.asarray(image, dtype=float)
    if img.ndim != 2:
        raise DimensionError(f"image must be 2-D, got shape {img.shape}")
    x = img - img.mean()
    power = float(np.sum(x * x))
    if power == 0.0:
        raise NormalizationError("autocorrelation is undefined for a constant image")
    spectrum = np.fft.fft2(x)
    corr = np.real(np.fft.ifft2(spectrum * np.conj(spectrum)))
    corr /= corr[0, 0]
    return corr


def derive_seed(base_seed: int, *components: int) -> int:
    """Stable 64-bit sub-seed from a base seed and integer coordinates."""
    ss = np.random.SeedSequence([int(base_seed), *(int(c) for c in components)])
    return int(ss.generate_state(1, np.uint64)[0])


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where sysconf cannot tell."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def _run_bytes(side: int, obj=None, sets=(), repeats_per_pattern: int = 1):
    """``(frames, held, planning, accumulator, cell)``: what a run holds.
    It holds ``held`` throughout, and at any time either ``planning``,
    while it plans a route, or ``cell``, while it runs one.  ``frames``
    counts the frames of its two plans.  ``held`` is their sums, three
    float64 a pattern each, and the scene, 48 B a pixel: the object, its
    filtered reference and the row and column window maps of both sets.
    ``planning`` is the level ``accumulator``, the window-form sums (one
    float64 per level of a set and pattern and one int64 more per limb of
    ``obj``), and 72 B a part of the larger route: its split, frame
    indices, overlaps and their rounding, which the ``R`` reads of a part
    share (tracemalloc measures 49 to 66 B).  ``cell`` is eight float64
    arrays a pattern (one cell's draws and sums, or its coefficients and
    rebuild), the lamp's drift profile and one image with its graymap
    encoder (40 B a pixel), whose stages do not overlap.  Given the scene
    ``obj``, the frames, parts and levels are the census of its two
    ``sets``; before it, a lower bound that reads no budget rule: one frame
    a pattern on each route, one level and one limb."""
    m = side ** 2
    frames, parts, levels, limbs = 2 * m, m, 1, 1
    if obj is not None:
        frames = sum(projection_count(s, repeats_per_pattern) for s in sets)
        parts = max(projection_count(s, 1) for s in sets)
        levels = max(s._form.values.size for s in sets)
        limbs = _limb_layout(obj)[1]
    accumulator = 8 * limbs * (levels + 1) * m
    cell = 8 * 8 * m + 8 * m + (8 + 40) * m
    return frames, (2 * 24 + 48) * m, accumulator + 72 * parts, accumulator, cell


def _require_memory(side: int, obj=None, sets=(), repeats_per_pattern: int = 1):
    """Fail when what a run holds at its peak (:func:`_run_bytes`), its
    plans and scene and the larger of planning a route and one cell,
    exceeds physical memory."""
    memory = _physical_memory()
    frames, held, planning, accumulator, cell = _run_bytes(side, obj, sets,
                                                           repeats_per_pattern)
    need = held + max(planning, cell)
    if memory is not None and need > memory:
        def mib(size):
            return f"{size / 2**20:,.0f} MiB"

        raise ConfigError(
            f"grid_side {side} needs {mib(need)}: {mib(held)} for its measurement "
            f"plans ({frames:,} frames) and scene, and the larger of "
            f"{mib(planning)} to plan a route, a {mib(accumulator)} level "
            f"accumulator among it, and {mib(cell)} for one cell; more than the "
            f"{mib(memory)} of physical memory"
        )


def sweep_cells(obj, kernel: Kernel, noise: NoiseModel, times_ms, repeats: int,
                *, sink, parent: PatternBasis | None = None,
                repeats_per_pattern: int = 2, peak_fraction: float = 0.1,
                background_fraction: float = 0.3, mask_border: int = 1,
                background_rect=None) -> list[SweepCell]:
    """Run both routes over every (method, integration time, repeat) cell,
    in that order, and return each cell's score.

    ``sink(cell, image)`` is called once per cell, in cell order, as soon
    as the cell is scored, with its signed reconstructed image.  The sweep
    keeps no image, so it holds one at a time: a caller that needs the
    images writes or collects them in the sink.

    The sweep does its own set-up, once: it builds the filter-modified set
    of ``parent`` (the canonical basis by default), and fixes the masks from
    the noiseless filtered object: the peak from its top absolute values,
    the background from its flattest region (or from ``background_rect``
    when configured).  Before any plan is built, plans that exceed physical
    memory by the census of both sets raise :class:`ConfigError`, and masks
    that overlap, or a background of one pixel, whose spread is 0, raise
    :class:`MaskError`.  Then the measurement plan of each route is built
    once, by :func:`~ghostsim.bench.plan_acquisition` of the modified set
    (basis route) and of ``parent`` itself (post route);
    ``repeats_per_pattern`` sets the reads of each frame of a parent of 0/1
    patterns (:func:`~ghostsim.bases._repeats`).  A plan keeps three sums a
    pattern and no frame, so a cell then only draws two normals a pattern
    (:func:`~ghostsim.bench.run_basis_protocol`) and rebuilds.  Each cell
    runs with its own sub-seed ``derive_seed(noise.seed, method index, time
    index, repeat)``, so the sweep is reproducible and order-independent;
    SNR is computed on the magnitude image because the filtered signal is
    signed.
    """
    o = np.asarray(obj, dtype=float)
    if o.ndim != 2 or o.shape[0] != o.shape[1]:
        raise DimensionError(f"object must be a square image, got {o.shape}")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    times = [float(t) for t in times_ms]
    if not times:
        raise ValueError("times_ms must not be empty")
    grid = GridSpec(o.shape[0])
    if parent is None:
        parent = canonical_basis(grid)
    # before the plans, the costly part
    modified = modify_basis(parent, kernel)
    _require_memory(grid.side, o, (parent, modified), repeats_per_pattern)
    reference = cyclic_correlate(o, kernel)
    peak = select_peak_mask(reference, peak_fraction, mask_border)
    if background_rect is not None:
        background = mask_from_rect(grid, background_rect, BACKGROUND)
    else:
        background = select_background_mask(
            reference, background_fraction, mask_border, exclude=peak.indices
        )
    _check_disjoint(peak, background)
    if len(background) == 1:
        raise MaskError("background mask is one pixel; SNR is undefined")

    # neither basis holds a pattern stack, and neither plan keeps a frame
    plans = {
        BASIS_PROCESSED: plan_acquisition(o, modified, repeats_per_pattern),
        POST_PROCESSED: plan_acquisition(o, parent, repeats_per_pattern),
    }
    specs = [
        (method, ti, rep)
        for method in METHODS
        for ti in range(len(times))
        for rep in range(repeats)
    ]

    def run_cell(spec):
        method, ti, rep = spec
        cell_noise = replace(
            noise, seed=derive_seed(noise.seed, METHODS.index(method), ti, rep)
        )
        if method == POST_PROCESSED:
            image = post_processed_image(plans[method], parent, kernel, cell_noise,
                                         times[ti])
        else:
            image = basis_processed_image(plans[method], parent, cell_noise, times[ti])
        cell = SweepCell(method, times[ti], rep,
                         compute_snr(np.abs(image), peak, background))
        sink(cell, image)
        return cell

    return [run_cell(s) for s in specs]


def summarize_sweep(cells: list[SweepCell]) -> list[SweepSummary]:
    """Mean and population std of SNR per (method, integration time) group,
    in first-appearance order."""
    groups: dict[tuple[str, float], list[float]] = {}
    for cell in cells:
        groups.setdefault((cell.method, cell.integration_time_ms), []).append(cell.snr)
    return [
        SweepSummary(method, t, float(np.mean(v)), float(np.std(v)))
        for (method, t), v in groups.items()
    ]


def write_sweep_csv(cells: list[SweepCell], path):
    buf = io.StringIO()
    buf.write("method,integration_time_ms,repeat,snr\n")
    for c in cells:
        buf.write(f"{c.method},{c.integration_time_ms!r},{c.repeat},{c.snr!r}\n")
    atomic_write_text(path, buf.getvalue())


def write_summary_csv(summaries: list[SweepSummary], path):
    buf = io.StringIO()
    buf.write("method,integration_time_ms,mean_snr,std_snr\n")
    for s in summaries:
        buf.write(
            f"{s.method},{s.integration_time_ms!r},{s.mean_snr!r},{s.std_snr!r}\n"
        )
    atomic_write_text(path, buf.getvalue())
