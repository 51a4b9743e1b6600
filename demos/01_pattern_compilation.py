"""Compile an image filter into an illumination basis.

Builds the canonical and Hadamard bases at 16x16, convolves every pattern
with the edge-detection stencil, and saves a small gallery of patterns
before and after the modification.  Also counts how many binary frames a
two-state modulator needs per basis: the edge-modified canonical patterns
have exactly two levels (-1 and +1), so they cost two frames each, which is
why the comparison protocol repeats each plain raster pattern twice.

Run:  python demos/01_pattern_compilation.py [output_dir]
"""

import sys
from pathlib import Path

from ghostsim import (
    GridSpec,
    canonical_basis,
    decompose_basis,
    edge_detect_kernel,
    hadamard_basis,
    modify_basis,
    projection_count,
    write_pgm,
)


def main(out_dir="demo_out/patterns"):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = GridSpec(16)
    kernel = edge_detect_kernel()

    for parent in (canonical_basis(grid), hadamard_basis(grid)):
        modified = modify_basis(parent, kernel)
        for index in (0, 85, 170):
            write_pgm(out / f"{parent.label}_{index:03d}_original.pgm",
                      parent.pattern(index))
            write_pgm(out / f"{parent.label}_{index:03d}_modified.pgm",
                      modified.pattern(index))

        plain_frames = projection_count(parent, 2)
        modified_frames = projection_count(modified, 1)
        parts_85 = decompose_basis(modified)[85].part_count
        print(f"{parent.label:>9} basis: {len(parent)} patterns, "
              f"{plain_frames} frames on the plain route "
              f"(a 0/1 pattern is read twice, a +/-1 one split in two)")
        print(f"{'':>9} edge-modified: {modified_frames} binary frames "
              f"(pattern 85 splits into {parts_85} parts)")

    print(f"pattern gallery written to {out.resolve()}")


if __name__ == "__main__":
    main(*sys.argv[1:])
