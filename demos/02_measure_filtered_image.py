"""Measuring the filtered image directly equals filtering afterwards.

With all noise switched off, three routes to the edge-filtered image must
agree:

1. project the filter-modified basis and reconstruct (the measurement *is*
   the filtered image),
2. project the plain basis, reconstruct, then filter the reconstruction,
3. apply the transpose of the dense basis-change operator to the object.

This is the identity that lets a measurement replace a post-processing step.

Run:  python demos/02_measure_filtered_image.py
"""

import numpy as np

from ghostsim import (
    GridSpec,
    NoiseModel,
    basis_processed_image,
    build_operator_matrix,
    canonical_basis,
    edge_detect_kernel,
    flatten,
    modify_basis,
    plan_acquisition,
    post_processed_image,
    synth_bar_target,
    unflatten,
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
    operator = build_operator_matrix(kernel, grid)
    oracle = unflatten(operator.T @ flatten(obj), grid)

    print("max |basis route - post route|   :",
          f"{np.abs(direct - filtered_after).max():.3e}")
    print("max |basis route - dense oracle| :",
          f"{np.abs(direct - oracle).max():.3e}")
    print("filtered image value range       :",
          f"[{direct.min():+.1f}, {direct.max():+.1f}]")
    rng = np.random.default_rng(7)
    obj2 = rng.uniform(0.0, 1.0, size=(16, 16))
    direct2 = basis_processed_image(plan_acquisition(obj2, modified, 2), parent,
                                    quiet, 1.0)
    oracle2 = unflatten(operator.T @ flatten(obj2), grid)
    print("same identity on a random object :",
          f"{np.abs(direct2 - oracle2).max():.3e}")


if __name__ == "__main__":
    main()
