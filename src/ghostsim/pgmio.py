"""Plain-text image files: 16-bit portable graymaps with an affine sidecar.

Graymaps are written as ASCII ``P2`` with maxval 65535.  Pixel values are
affinely mapped onto the gray range and the map is recorded next to the
image in a ``.meta`` sidecar, so the original value range can be recovered.

All writers go through a temp-file-then-rename step, so a failed write never
leaves a truncated output behind.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .errors import DimensionError, FormatError

__all__ = [
    "atomic_write_text",
    "write_pgm",
    "read_pgm",
    "read_pgm_values",
]

PGM_MAXVAL = 65535


def atomic_write_text(path, text: str):
    """Write ``text`` to ``path`` via a temp file and an atomic rename."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if tmp.exists():
            tmp.unlink()
        raise


def _sidecar_path(path) -> Path:
    return Path(path).with_suffix(".meta")


def write_pgm(path, image) -> list[Path]:
    """Write a 2-D array as an ASCII graymap plus its ``.meta`` sidecar.

    Returns the paths written, the graymap then its sidecar.  The sidecar
    records the ``vmin`` and ``vmax`` of the affine map; a pixel's value is
    recovered as ``vmin + gray * (vmax - vmin) / 65535``.
    """
    img = np.asarray(image, dtype=float)
    if img.ndim != 2:
        raise DimensionError(f"graymap image must be 2-D, got shape {img.shape}")
    if not np.all(np.isfinite(img)):
        raise DimensionError("graymap image must be finite")
    vmin = float(img.min())
    vmax = float(img.max())
    if vmax > vmin:
        gray = np.rint((img - vmin) * (PGM_MAXVAL / (vmax - vmin))).astype(np.int64)
        gray = np.clip(gray, 0, PGM_MAXVAL)
    else:
        gray = np.zeros(img.shape, dtype=np.int64)
    h, w = img.shape
    # one %-format over the flat gray list: a line of w numbers per row
    row = " ".join(["%d"] * w) + "\n"
    body = (row * h) % tuple(gray.ravel().tolist())
    atomic_write_text(path, f"P2\n{w} {h}\n{PGM_MAXVAL}\n" + body)
    sidecar = _sidecar_path(path)
    atomic_write_text(sidecar, f"vmin = {vmin!r}\n"
                               f"vmax = {vmax!r}\n"
                               f"maxval = {PGM_MAXVAL}\n")
    return [Path(path), sidecar]


def _tokens(text: str):
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        yield from body.split()


def read_pgm(path) -> tuple[np.ndarray, int]:
    """Read an ASCII graymap; returns ``(gray integer array, maxval)``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:  # raw bytes: a binary (P5) graymap, say
        text = ""
    toks = list(_tokens(text))
    if not toks or toks[0] != "P2":
        raise FormatError(f"{path}: not an ASCII (P2) portable graymap")
    try:
        w, h, maxval = int(toks[1]), int(toks[2]), int(toks[3])
        vals = np.array([int(t) for t in toks[4:]], dtype=np.int64)
    except (IndexError, ValueError) as exc:
        raise FormatError(f"{path}: malformed graymap header or pixels") from exc
    if w < 1 or h < 1 or not 0 < maxval < 65536:  # Netpbm's maxval bound
        raise FormatError(f"{path}: bad graymap dimensions {w}x{h}, maxval {maxval}")
    if vals.size != w * h:
        raise FormatError(f"{path}: expected {w * h} pixels, found {vals.size}")
    if vals.min() < 0 or vals.max() > maxval:
        raise FormatError(f"{path}: pixel values outside [0, {maxval}]")
    return vals.reshape(h, w), maxval


def read_pgm_values(path) -> np.ndarray:
    """Read a graymap back into original value units using its sidecar.

    Without a sidecar the gray levels are returned normalized to [0, 1].
    """
    gray, maxval = read_pgm(path)
    sidecar = _sidecar_path(path)
    if not sidecar.exists():
        return gray / maxval
    fields = {}
    with open(sidecar, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            fields[key.strip()] = value.strip()
    try:
        vmin = float(fields["vmin"])
        vmax = float(fields["vmax"])
        side_max = int(fields["maxval"])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{sidecar}: malformed sidecar") from exc
    return vmin + gray * ((vmax - vmin) / side_max)

