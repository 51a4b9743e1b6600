"""Rebuilding images from coefficient vectors, and the two filter routes.

The measured weight of each pattern multiplies that pattern in the
reconstruction sum: for a canonical parent the sum is the coefficients
reshaped to ``side x side``, for a Hadamard parent a product of ``side x
side`` matrices.  Reconstruction always uses the *parent*
(unmodified) basis, also when the coefficients were acquired with a
filter-modified illumination set: that is exactly what makes the
modified-basis route return the filtered image directly.

Both routes acquire through the one weighted protocol of
:mod:`ghostsim.bench`.  A route's :class:`~ghostsim.bench.MeasurementPlan`
is built once per sweep by :func:`~ghostsim.bench.plan_acquisition`: of
the parent for the post-processed route, of the filter-modified parent for
the basis-processed one.  A cell is then ``post_processed_image(plan,
parent, kernel, noise, time)`` or ``basis_processed_image(plan, parent,
noise, time)``: it draws its noise from one Philox stream keyed by the
noise seed, rebuilds in the parent basis and returns the image.  In the
noiseless limit the two images are equal.
"""

from __future__ import annotations

import numpy as np

from .bases import PatternBasis
from .bench import MeasurementPlan, NoiseModel, run_basis_protocol
from .core import Kernel, cyclic_correlate
from .errors import DimensionError, ProtocolError

__all__ = [
    "reconstruct",
    "post_process",
    "post_processed_image",
    "basis_processed_image",
]


def reconstruct(coefficients, recon_basis: PatternBasis) -> np.ndarray:
    """Sum of ``coefficient_j * pattern_j`` over a parent basis, for a
    coefficient vector ordered by pattern index.

    Pattern ``j = r * side + c`` of a parent is the outer product ``f_r
    f_c^T`` of rows of its ``factor`` ``F`` (the identity for canonical;
    ``H_side`` for Hadamard, as ``H_{side^2} = H_side (x) H_side``), so the
    sum is ``F^T C F`` with ``C`` the coefficients reshaped to ``side x
    side``.  Where ``F = I`` (a canonical parent) that is ``C`` itself, so
    a copy of ``C`` is returned with no product, and a ``-0.0`` keeps its
    sign; a Hadamard parent takes the two matrix products.
    Reconstruction is always in an orthogonal parent: a filter-modified
    basis, or a parent whose factor is not ``F F^T = d I``, raises
    :class:`~ghostsim.errors.ProtocolError`.
    """
    m = len(recon_basis)
    vec = np.asarray(coefficients, dtype=float)
    if vec.shape != (m,):
        raise DimensionError(f"expected {m} coefficients, got shape {vec.shape}")
    if recon_basis.kernel is not None:
        raise ProtocolError(f"reconstruct in the parent basis, not in {recon_basis.label}")
    if recon_basis._norm is None:
        raise ProtocolError(f"cannot reconstruct in {recon_basis.label}: the rows of its "
                            "factor are not orthogonal with equal norms")
    side = recon_basis.grid.side
    c = vec.reshape(side, side)
    f = recon_basis.factor
    if np.count_nonzero(f) == side and np.all(f.diagonal() == 1):  # F = I
        return c.copy()
    f = f.astype(float)
    return f.T @ c @ f


def post_process(image, kernel: Kernel) -> np.ndarray:
    """Apply the filter to an already-reconstructed image.

    Uses cyclic correlation because measuring with a convolution-modified
    basis makes the effective object the *correlation* of the original with
    the kernel; matching the orientation keeps the two routes comparable (for
    symmetric kernels the two orientations coincide anyway).
    """
    return cyclic_correlate(image, kernel)


def _rebuild(coefficients: np.ndarray, parent: PatternBasis) -> np.ndarray:
    """The image in object units: the factor's rows are orthogonal, each of
    squared norm ``d`` (``F F^T = d I``, recorded by the parent), so the sum
    is ``d**2`` times the object; ``d = 1`` keeps a ``-0.0``."""
    raw = reconstruct(coefficients, parent)
    d = parent._norm
    return raw if d == 1 else raw / d**2


def _check_plan(plan: MeasurementPlan, parent: PatternBasis):
    if plan.grid != parent.grid:
        raise DimensionError(
            f"plan grid side {plan.grid.side} does not match basis grid side "
            f"{parent.grid.side}"
        )


def post_processed_image(plan: MeasurementPlan, parent: PatternBasis,
                         kernel: Kernel, noise: NoiseModel,
                         integration_time_ms: float) -> np.ndarray:
    """Measure with a plan of ``parent`` itself, reconstruct in ``parent``,
    then filter the image."""
    _check_plan(plan, parent)
    coefficients = run_basis_protocol(plan, noise, integration_time_ms)
    return post_process(_rebuild(coefficients, parent), kernel)


def basis_processed_image(plan: MeasurementPlan, parent: PatternBasis,
                          noise: NoiseModel, integration_time_ms: float) -> np.ndarray:
    """Measure with a plan of the filter-modified ``parent``; the
    reconstruction in ``parent`` is already the filtered image."""
    _check_plan(plan, parent)
    return _rebuild(run_basis_protocol(plan, noise, integration_time_ms), parent)
