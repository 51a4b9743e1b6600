"""Rebuilding images from coefficient vectors, and the two filter routes.

The measured weight of each pattern multiplies that pattern in the
reconstruction sum; for both parent bases the sum is a product of
``side x side`` matrices.  Reconstruction always uses the *parent*
(unmodified) basis, also when the coefficients were acquired with a
filter-modified illumination set: that is exactly what makes the
modified-basis route return the filtered image directly.

Both routes acquire through the one weighted protocol of
:mod:`ghostsim.bench`.  A route's :class:`~ghostsim.bench.MeasurementPlan`
is built once per sweep by :func:`post_plan` or :func:`basis_plan` and
passed to every cell through ``plan=``; each cell then draws its noise from
one Philox stream keyed by its seed.  ``post_processed_image`` and
``basis_processed_image`` run the full acquire-and-rebuild pipelines and
return images that, in the noiseless limit, are equal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import (
    CANONICAL,
    HADAMARD,
    PatternBasis,
    canonical_basis,
    decompose_basis,
    modify_basis,
)
from .bench import (
    BASIS_PROCESSED,
    POST_PROCESSED,
    MeasurementPlan,
    NoiseModel,
    ProtocolConfig,
    part_plan,
    repeat_plan,
    run_basis_protocol,
)
from .core import GridSpec, Kernel, cyclic_correlate
from .errors import DimensionError

__all__ = [
    "ReconstructionResult",
    "reconstruct",
    "post_process",
    "hadamard_inverse_scale",
    "post_plan",
    "basis_plan",
    "post_processed_image",
    "basis_processed_image",
]


def reconstruct(coefficients, recon_basis: PatternBasis) -> np.ndarray:
    """Sum of ``coefficient_j * pattern_j`` over the reconstruction basis,
    for a coefficient vector ordered by pattern index.

    Both parent bases are separable: pattern ``j = r * side + c`` is the
    outer product ``f_r f_c^T`` of rows of a ``side x side`` matrix ``F``
    (the identity for canonical; ``H_side`` for Hadamard, as ``H_{side^2} =
    H_side (x) H_side``), so the sum is ``F^T C F`` with ``C`` the
    coefficients reshaped to ``side x side``.  Row ``r`` of ``F`` is column
    0 of pattern ``r * side``, because ``f_0`` is ``e_0`` or all ones.  Any
    other basis takes the full sum.
    """
    m = len(recon_basis)
    vec = np.asarray(coefficients, dtype=float)
    if vec.shape != (m,):
        raise DimensionError(f"expected {m} coefficients, got shape {vec.shape}")
    if recon_basis.label in (CANONICAL, HADAMARD):
        side = recon_basis.grid.side
        f = recon_basis.stack[::side, :, 0].astype(float)
        return f.T @ vec.reshape(side, side) @ f
    return np.tensordot(vec, recon_basis.stack, axes=(0, 0))


def post_process(image, kernel: Kernel) -> np.ndarray:
    """Apply the filter to an already-reconstructed image.

    Uses cyclic correlation because measuring with a convolution-modified
    basis makes the effective object the *correlation* of the original with
    the kernel; matching the orientation keeps the two routes comparable (for
    symmetric kernels the two orientations coincide anyway).
    """
    return cyclic_correlate(image, kernel)


def hadamard_inverse_scale(image, grid: GridSpec) -> np.ndarray:
    """Divide by ``side**2`` to undo the Hadamard completeness factor, making
    Hadamard reconstructions directly comparable to canonical ones."""
    img = np.asarray(image, dtype=float)
    if img.shape != (grid.side, grid.side):
        raise DimensionError(
            f"expected a {grid.side}x{grid.side} image, got shape {img.shape}"
        )
    return img / grid.pixel_count


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """A rebuilt image tagged with how it was produced.

    ``provenance`` is ``(basis label, kernel name, noise seed)``.
    """

    image: np.ndarray
    method: str
    provenance: tuple[str, str, int]


def _rebuild(coefficients: np.ndarray, parent: PatternBasis) -> np.ndarray:
    raw = reconstruct(coefficients, parent)
    if parent.label == HADAMARD:
        raw = hadamard_inverse_scale(raw, parent.grid)
    return raw


def post_plan(obj, parent: PatternBasis, repeats_per_pattern: int) -> MeasurementPlan:
    """Plan of the post-processed route: a canonical (binary) parent is
    repeated ``repeats_per_pattern`` times per pattern, any other parent is
    projected through its binary sub-patterns, which costs the same number
    of frames per +/-1 pattern."""
    if parent.label == CANONICAL:
        return repeat_plan(obj, parent, repeats_per_pattern)
    return part_plan(obj, decompose_basis(parent))


def basis_plan(obj, parent: PatternBasis, kernel: Kernel) -> MeasurementPlan:
    """Plan of the basis-processed route: the binary parts of the
    filter-modified parent."""
    return part_plan(obj, decompose_basis(modify_basis(parent, kernel)))


def _setup(obj, parent: PatternBasis | None) -> tuple[np.ndarray, PatternBasis]:
    """The object as floats, and the parent basis (canonical by default)."""
    o = np.asarray(obj, dtype=float)
    if o.ndim != 2 or o.shape[0] != o.shape[1]:
        raise DimensionError(f"object must be a square 2-D image, got {o.shape}")
    return o, parent if parent is not None else canonical_basis(GridSpec(o.shape[0]))


def _check_plan(plan: MeasurementPlan, parent: PatternBasis):
    if plan.grid != parent.grid:
        raise DimensionError(
            f"plan grid side {plan.grid.side} does not match basis grid side "
            f"{parent.grid.side}"
        )


def post_processed_image(obj, kernel: Kernel, noise: NoiseModel,
                         protocol: ProtocolConfig,
                         parent: PatternBasis | None = None,
                         plan: MeasurementPlan | None = None) -> ReconstructionResult:
    """Measure in the plain basis, reconstruct, then filter the image.

    ``plan`` may carry a precomputed :func:`post_plan` so sweeps build it
    once; the plan then fixes the frames and ``repeats_per_pattern`` of
    ``protocol`` is not consulted.
    """
    o, parent = _setup(obj, parent)
    if plan is None:
        plan = post_plan(o, parent, protocol.repeats_per_pattern)
    _check_plan(plan, parent)
    coefficients = run_basis_protocol(plan, noise, protocol)
    image = post_process(_rebuild(coefficients, parent), kernel)
    return ReconstructionResult(
        image, POST_PROCESSED, (parent.label, kernel.name or "custom", noise.seed)
    )


def basis_processed_image(obj, kernel: Kernel, noise: NoiseModel,
                          protocol: ProtocolConfig,
                          parent: PatternBasis | None = None,
                          plan: MeasurementPlan | None = None) -> ReconstructionResult:
    """Measure with the filter-modified basis; the reconstruction in the
    parent basis is already the filtered image.

    ``plan`` may carry a precomputed :func:`basis_plan` so sweeps do not
    rebuild the modified patterns for every run.
    """
    o, parent = _setup(obj, parent)
    if plan is None:
        plan = basis_plan(o, parent, kernel)
    _check_plan(plan, parent)
    coefficients = run_basis_protocol(plan, noise, protocol)
    image = _rebuild(coefficients, parent)
    return ReconstructionResult(
        image, BASIS_PROCESSED, (parent.label, kernel.name or "custom", noise.seed)
    )
