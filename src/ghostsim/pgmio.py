"""Plain-text image files: 16-bit portable graymaps with an affine sidecar.

Graymaps are written as ASCII ``P2`` with maxval 65535.  Pixel values are
affinely mapped onto the gray range and the map is recorded next to the
image in a ``.meta`` sidecar, so the original value range can be recovered.

The ``P2`` body is encoded with array operations, not a format string:
each gray value fills six bytes, its five decimal digits and a separator
(a space, or a newline after the last value of a row), and one boolean
mask drops the leading zeros, all but the units digit.  So encoding
makes no Python object per pixel, and holds about 30 B a pixel besides
the image.

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
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _sidecar_path(path) -> str:
    """The ``.meta`` sidecar of a graymap path: its suffix replaced."""
    return os.path.splitext(path)[0] + ".meta"


def _unit(vmin: float, vmax: float) -> float:
    """The power of two ``s`` that the affine map scales its ends and values
    by, so that no step of a write or a read overflows: 1/4 where an end
    exceeds a quarter of float64's largest value, ``2**1000`` where
    ``PGM_MAXVAL / (vmax - vmin)`` overflows (every value is then below
    ``2**-954``), and 1 otherwise.  The scaling is exact but for subnormal
    values, which lie far below a gray step, so it changes no gray value."""
    if max(-vmin, vmax) > np.finfo(float).max / 4:
        return 0.25
    return 2.0**1000 if vmax > vmin and PGM_MAXVAL / (vmax - vmin) == np.inf else 1.0


def _p2_body(gray: np.ndarray) -> np.ndarray:
    """The ASCII bytes of a ``P2`` body, as ``uint8``: the values of
    ``gray`` (integers in ``[0, 65535]``) in decimal, one space between
    them and a newline after each row."""
    q = gray.astype(np.uint16)
    text = np.empty((*q.shape, 6), dtype=np.uint8)
    keep = np.ones(text.shape, dtype=bool)
    for k in range(4):  # a leading zero stays only as the units digit
        np.greater_equal(q, 10 ** (4 - k), out=keep[..., k])
    tens = np.empty_like(q)
    for k in range(4, -1, -1):  # units first
        np.floor_divide(q, 10, out=tens)
        q -= tens * 10  # the digit; numpy's remainder is slower
        np.add(q, ord("0"), out=text[..., k], casting="unsafe")
        q, tens = tens, q
    text[..., 5] = ord(" ")
    text[:, -1, 5] = ord("\n")
    return text[keep]


def write_pgm(path, image) -> list[Path]:
    """Write a 2-D array as an ASCII graymap plus its ``.meta`` sidecar.

    Returns the paths written, the graymap then its sidecar.  The sidecar
    records the ``vmin`` and ``vmax`` of the affine map; a pixel's value is
    recovered as ``vmin + gray * (vmax - vmin) / 65535``.  Both directions
    compute the map on ends scaled by :func:`_unit`, so any finite image
    maps, one whose range overflows float64 or is subnormal too.
    """
    img = np.asarray(image, dtype=float)
    if img.ndim != 2:
        raise DimensionError(f"graymap image must be 2-D, got shape {img.shape}")
    if not np.all(np.isfinite(img)):
        raise DimensionError("graymap image must be finite")
    vmin = float(img.min())
    vmax = float(img.max())
    if vmax > vmin:
        s = _unit(vmin, vmax)
        x, lo = (img, vmin) if s == 1 else (img * s, vmin * s)
        gray = np.rint((x - lo) * (PGM_MAXVAL / (vmax * s - lo))).astype(np.int64)
        gray = np.clip(gray, 0, PGM_MAXVAL)
    else:
        gray = np.zeros(img.shape, dtype=np.int64)
    h, w = img.shape
    atomic_write_text(path, f"P2\n{w} {h}\n{PGM_MAXVAL}\n" + str(_p2_body(gray), "ascii"))
    sidecar = _sidecar_path(path)
    atomic_write_text(sidecar, f"vmin = {vmin!r}\n"
                               f"vmax = {vmax!r}\n"
                               f"maxval = {PGM_MAXVAL}\n")
    return [Path(path), Path(sidecar)]


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

    Without a sidecar the gray levels are returned normalized to [0, 1];
    with one, every value lies in ``[vmin, vmax]``.
    """
    gray, maxval = read_pgm(path)
    sidecar = _sidecar_path(path)
    if not os.path.exists(sidecar):
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
    s = _unit(vmin, vmax)
    lo, hi = vmin * s, vmax * s
    return np.clip(lo + gray * ((hi - lo) / side_max), lo, hi) / s

