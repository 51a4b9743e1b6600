"""Measuring the filtered image directly equals filtering afterwards.

With all noise switched off, three routes to the edge-filtered image must
agree:

1. project the filter-modified basis and reconstruct (the measurement *is*
   the filtered image),
2. project the plain basis, reconstruct, then filter the reconstruction,
3. correlate the object itself with the filter (the filtered object, with
   no measurement at all).

Convolving a pattern with the kernel and correlating the object with it
are adjoint, so route 1 measures route 3 directly.  This is the identity
that lets a measurement replace a post-processing step.

Run:  python demos/02_measure_filtered_image.py
"""

import numpy as np

from ghostsim import (
    GridSpec,
    NoiseModel,
    basis_processed_image,
    canonical_basis,
    cyclic_correlate,
    edge_detect_kernel,
    modify_basis,
    plan_acquisition,
    post_processed_image,
    synth_bar_target,
)


def main():
    grid = GridSpec(16)
    obj = synth_bar_target(grid, 2)
    kernel = edge_detect_kernel()
    quiet = NoiseModel()  # no noise, no backgrounds, steady lamp
    parent = canonical_basis(grid)

    modified = modify_basis(parent, kernel)
    direct = basis_processed_image(plan_acquisition(obj, modified, 2), parent, quiet, 1.0)
    filtered_after = post_processed_image(plan_acquisition(obj, parent, 2), parent,
                                          kernel, quiet, 1.0)
    filtered_object = cyclic_correlate(obj, kernel)

    print("max |basis route - post route|   :",
          f"{np.abs(direct - filtered_after).max():.3e}")
    print("max |basis route - filtered obj| :",
          f"{np.abs(direct - filtered_object).max():.3e}")
    print("filtered image value range       :",
          f"[{direct.min():+.1f}, {direct.max():+.1f}]")
    rng = np.random.default_rng(7)
    obj2 = rng.uniform(0.0, 1.0, size=(16, 16))
    direct2 = basis_processed_image(plan_acquisition(obj2, modified, 2), parent,
                                    quiet, 1.0)
    print("same identity on a random object :",
          f"{np.abs(direct2 - cyclic_correlate(obj2, kernel)).max():.3e}")


if __name__ == "__main__":
    main()
