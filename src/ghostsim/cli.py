"""Command-line front end.

Verbs:

* ``run``      -- full comparison experiment: reconstructed images per
  (method, integration time, repeat) as graymaps, the sweep and summary CSVs,
  and a re-parseable run manifest.  Each graymap is written as its cell is
  scored, into a staging directory whose files are renamed into the output
  directory only once all of them are written.
* ``gallery``  -- export selected basis patterns, original and
  filter-modified, as graymaps.
* ``validate`` -- parse and validate a config, run its sweep at one
  repeat, scoring every cell and writing nothing, and echo the resolved
  values.  Each cell is the run's repeat-0 cell, drawn from the same
  sub-seed, so it fails where a run's first repeat would.

Exit codes: 0 success, 1 config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (_require_memory, summarize_sweep, sweep_cells, write_summary_csv,
                       write_sweep_csv)
from .bases import HADAMARD, canonical_basis, hadamard_basis, modify_basis
from .bench import _lamp_scale, load_object, synth_bar_target
from .config import ExperimentConfig, load_config
from .core import GridSpec
from .errors import ConfigError, GhostSimError
from .pgmio import atomic_write_text, write_pgm

__all__ = ["main", "run_experiment", "emit_pattern_gallery", "build_scene"]


def build_scene(config: ExperimentConfig):
    """The object under test: a file-backed graymap or the synthetic target."""
    if config.object_path is not None:
        obj = load_object(config.object_path)
        if obj.shape[0] != config.grid_side:
            raise ConfigError(
                f"object_path: image side {obj.shape[0]} does not match "
                f"grid_side {config.grid_side}"
            )
        return obj
    return synth_bar_target(GridSpec(config.grid_side), config.bar_groups)


def _parent_basis(config: ExperimentConfig):
    grid = GridSpec(config.grid_side)
    if config.basis == HADAMARD:
        return hadamard_basis(grid)
    return canonical_basis(grid)


def _checked_scene(config: ExperimentConfig):
    """``(obj, parent)``: the scene and parent set of a run, built once a
    lower bound of its plans fits in physical memory and the lamp scale of
    every configured time passes :func:`~ghostsim.bench._lamp_scale`."""
    _require_memory(config.grid_side)
    noise = config.to_noise_model()
    for time_ms in config.integration_times_ms:
        _lamp_scale(noise, time_ms)
    return build_scene(config), _parent_basis(config)


def _sweep(config: ExperimentConfig, obj, parent, repeats: int, sink):
    """:func:`~ghostsim.analysis.sweep_cells` of the config's scene."""
    return sweep_cells(
        obj, config.kernel, config.to_noise_model(), config.integration_times_ms, repeats,
        sink=sink, parent=parent, repeats_per_pattern=config.repeats_per_pattern,
        peak_fraction=config.peak_fraction, background_fraction=config.background_fraction,
        mask_border=config.mask_border, background_rect=config.background_rect)


def _manifest_text(config: ExperimentConfig) -> str:
    lines = [
        "# ghostsim run manifest (re-parseable as a config file)",
        f"# ghostsim_version = {__version__}",
        f"# numpy_version = {np.__version__}",
    ]
    return "\n".join(lines) + "\n" + config.to_text()


def run_experiment(config: ExperimentConfig, out_dir=None) -> list[Path]:
    """Run the full sweep and write every output file; returns the path of
    each file written, every graymap's ``.meta`` sidecar included.

    Each cell's graymap is written as soon as the cell is scored, so the
    run holds one image at a time.  Every file is written into a staging
    directory inside the output directory; once all are written, each is
    renamed into place, the manifest last, and the staging directory is
    removed.  Then every ``recon_*.pgm`` and ``recon_*.meta`` in the output
    directory that the run did not write, such as an image of a time the
    config no longer sweeps, is deleted; other files stay.  A failure before
    the renames removes the staging directory (and any directory the run
    made), so the output directory is left as it was: older files in it
    are neither replaced nor deleted.  Only the renames, which copy nothing,
    run after the last write; one that fails leaves the files renamed
    before it in place and deletes nothing.  A given (config, seed) always
    gives byte-identical outputs: each cell draws from its own sub-seed, so
    the result does not depend on the order the cells run in.
    """
    out = Path(out_dir if out_dir is not None else config.output_dir)
    obj, parent = _checked_scene(config)
    made = [p for p in (out, *out.parents) if not p.is_dir()]  # deepest first
    out.mkdir(parents=True, exist_ok=True)
    # str paths: the sink and the renames run once a file
    stage = tempfile.mkdtemp(prefix=".ghostsim-", suffix=".tmp", dir=out)
    names: list[str] = []

    def sink(cell, image):
        name = f"recon_{cell.method}_t{cell.integration_time_ms:g}ms_rep{cell.repeat}.pgm"
        names.extend(path.name for path in write_pgm(os.path.join(stage, name), image))

    try:
        cells = _sweep(config, obj, parent, config.repeats, sink)
        write_sweep_csv(cells, os.path.join(stage, "snr_sweep.csv"))
        write_summary_csv(summarize_sweep(cells), os.path.join(stage, "snr_summary.csv"))
        atomic_write_text(os.path.join(stage, "manifest.txt"), _manifest_text(config))
        names += ["snr_sweep.csv", "snr_summary.csv", "manifest.txt"]
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        for path in made:
            path.rmdir()
        raise
    for name in names:
        os.replace(os.path.join(stage, name), os.path.join(out, name))
    os.rmdir(stage)
    written = set(names)
    for name in os.listdir(out):
        image = name.startswith("recon_") and name.endswith((".pgm", ".meta"))
        if image and name not in written:
            os.remove(os.path.join(out, name))
    return [out / name for name in names]


def _gallery_indices(config: ExperimentConfig) -> list[int]:
    if config.gallery_indices is not None:
        return sorted(set(config.gallery_indices))
    m = config.grid_side * config.grid_side
    picks = {0, m // 2 + config.grid_side // 2, m - 1}
    if m > 85:
        picks.add(85)
    return sorted(picks)


def emit_pattern_gallery(config: ExperimentConfig, out_dir=None) -> list[Path]:
    """Write selected patterns of the configured basis, before and after the
    filter modification, as graymaps; returns the path of each file
    written, sidecars included.  Like ``run`` and ``validate``, it first
    refuses a grid whose measurement plans exceed physical memory."""
    out = Path(out_dir if out_dir is not None else config.output_dir)
    _require_memory(config.grid_side)
    # neither set holds a stack: each pattern is made alone from the factor
    parent = _parent_basis(config)
    modified = modify_basis(parent, config.kernel)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for index in _gallery_indices(config):
        for tag, basis in (("original", parent), ("modified", modified)):
            written += write_pgm(out / f"pattern_{tag}_{index:05d}.pgm",
                                 basis.pattern(index))
    return written


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="config file (defaults apply when omitted)")
    parser.add_argument("--seed", metavar="U64", default=None,
                        help="override the config seed")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="override the config output directory")


def _overrides(args) -> dict[str, str]:
    over: dict[str, str] = {}
    if args.seed is not None:
        over["seed"] = args.seed
    if args.out is not None:
        over["output_dir"] = args.out
    return over


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ghostsim",
        description="Ghost-imaging simulator comparing filter-compiled "
                    "illumination against post-acquisition filtering.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, text in (
        ("run", "run the experiment and write images, CSVs, and a manifest"),
        ("gallery", "export original and filter-modified basis patterns"),
        ("validate", "check a config and its masks, echo the resolved values"),
    ):
        _add_common(sub.add_parser(verb, help=text))

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, overrides=_overrides(args))
        if args.verb == "validate":
            # a run's repeat-0 cells, so validate fails where a run's first
            # repeat does
            obj, parent = _checked_scene(cfg)
            _sweep(cfg, obj, parent, 1, lambda cell, image: None)
            sys.stdout.write(cfg.to_text())
        elif args.verb == "run":
            paths = run_experiment(cfg)
            print(f"wrote {len(paths)} files to {Path(cfg.output_dir).resolve()}")
        else:
            paths = emit_pattern_gallery(cfg)
            print(f"wrote {len(paths)} pattern files to {Path(cfg.output_dir).resolve()}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (GhostSimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
