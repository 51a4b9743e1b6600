"""Experiment configuration: parsing, validation, defaults, and echo.

Configs are flat ``key = value`` text (``#`` starts a comment).  Unknown and
duplicate keys are rejected with the offending line number; semantic failures
name the field.  Every key can also be overridden through an environment
variable named ``GHOSTSIM_<KEY>`` (e.g. ``GHOSTSIM_GRID_SIDE``), and
``ExperimentConfig.to_text`` echoes a fully resolved config that parses back
to an equal object.

Each key is one field of ``ExperimentConfig``, whose metadata hold its
default text, its parser and its echo format.  A value from a file, the
environment or an override goes through the same field.  Rules the domain
types already own (the noise bounds, the drift amplitude's bound below 1
among them, the Hadamard side, the kernel and rectangle fits) are checked
by calling them; a field's parser keeps only the rules that config alone
owns.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

from .analysis import mask_from_rect
from .bases import CANONICAL, HADAMARD, _require_power_of_two
from .bench import NoiseModel
from .core import KERNEL_PRESETS, GridSpec, Kernel, _require_fits
from .errors import ConfigError

__all__ = [
    "ExperimentConfig",
    "parse_config",
    "load_config",
]

ENV_PREFIX = "GHOSTSIM_"


# ---------------------------------------------------------------- parsers
# Each takes the value text and the already parsed grid side (None while
# grid_side itself is parsed) and raises ValueError with a message that the
# caller prefixes with the field name.

def _integer(text: str, side=None) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _count(minimum: int):
    def parse(text: str, side=None) -> int:
        value = _integer(text)
        if value < minimum:
            raise ValueError(f"must be >= {minimum}, got {value}")
        return value
    return parse


def _real(text: str, side=None) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _drift_period(text: str, side: int) -> float:
    return 10.0 * side * side if text == "auto" else _real(text)


def _fraction(text: str, side=None) -> float:
    value = _real(text)
    if not 0 < value < 1:
        raise ValueError(f"must be in (0, 1), got {value}")
    return value


def _times(text: str, side=None) -> tuple[float, ...]:
    times = tuple(_real(tok) for tok in text.replace(",", " ").split())
    if not times or any(t <= 0 for t in times):
        raise ValueError("needs at least one positive time")
    # each time names its images recon_<method>_t{time:g}ms_rep<r>.pgm
    tags = [f"{t:g}" for t in times]
    if len(set(tags)) < len(tags):
        raise ValueError("times must differ in their first 6 significant digits, "
                         f"which name the image files; got {text!r}")
    return times


def _basis(text: str, side: int) -> str:
    if text not in (CANONICAL, HADAMARD):
        raise ValueError(f"must be one of {(CANONICAL, HADAMARD)}, got {text!r}")
    if text == HADAMARD:
        _require_power_of_two(side)
    return text


def _kernel(text: str, side: int) -> Kernel:
    if text in KERNEL_PRESETS:
        kernel = KERNEL_PRESETS[text]()
    else:
        try:
            taps = [[float(tok) for tok in row.split()] for row in text.split(";")]
        except ValueError:
            known = ", ".join(sorted(KERNEL_PRESETS))
            raise ValueError(f"expected a preset ({known}) or inline taps like "
                             f"'0 -1 0; -1 0 1; 0 1 0', got {text!r}") from None
        widths = {len(row) for row in taps}
        if len(widths) != 1 or 0 in widths:
            raise ValueError("inline taps must form a rectangular grid")
        kernel = Kernel(taps)
        if not kernel.taps.any():
            # a run would filter every image to zero and find no SNR to score
            raise ValueError("taps must not all be zero")
    _require_fits(kernel, side)
    return kernel


def _kernel_text(kernel: Kernel) -> str:
    # float() first: numpy scalars repr as np.float64(...)
    return kernel.name or "; ".join(" ".join(repr(float(v)) for v in row)
                                    for row in kernel.taps)


def _rect(text: str, side: int) -> tuple[int, int, int, int] | None:
    if text == "auto":
        return None
    try:
        rect = tuple(int(tok) for tok in text.split())
    except ValueError:
        rect = ()
    if len(rect) != 4:
        raise ValueError(f"expected 'row0 col0 height width' or 'auto', got {text!r}")
    mask_from_rect(GridSpec(side), rect)
    return rect


def _gallery(text: str, side: int) -> tuple[int, ...] | None:
    if text == "auto":
        return None
    try:
        indices = tuple(int(tok) for tok in text.split())
    except ValueError:
        raise ValueError(f"expected integers or 'auto', got {text!r}") from None
    if any(not 0 <= g < side * side for g in indices):
        raise ValueError(f"indices must lie in [0, {side * side}), got {text!r}")
    return indices


def _words(values) -> str:
    return " ".join(str(v) for v in values)


def _key(default: str, parse: Callable[[str, Any], Any],
         format: Callable[[Any], str] = str):
    """A field that is a config key: the text of its default, its parser
    and its echo format."""
    return dataclasses.field(metadata={"default": default, "parse": parse,
                                       "format": format})


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved and validated experiment settings.

    One field per key, in echo order.  ``grid_side`` comes first: later
    parsers check their value against it."""

    grid_side: int = _key("64", _count(1))
    basis: str = _key(CANONICAL, _basis)
    kernel: Kernel = _key("edge-eq3", _kernel, _kernel_text)
    lamp_base: float = _key("1.0", _real)
    lamp_drift_amplitude: float = _key("0.05", _real)
    lamp_drift_period: float = _key("auto", _drift_period)
    detector_sigma: float = _key("1.5", _real)
    normalization_sigma: float = _key("1.5", _real)
    background_measure: float = _key("60.0", _real)
    background_norm: float = _key("5.0", _real)
    seed: int = _key("7321", _integer)
    integration_times_ms: tuple[float, ...] = _key("20 100 220", _times, _words)
    repeats: int = _key("3", _count(1))
    repeats_per_pattern: int = _key("2", _count(1))
    bar_groups: int = _key("3", _count(1))
    object_path: str | None = _key("synthetic",
                                   lambda text, side: None if text == "synthetic" else text)
    peak_fraction: float = _key("0.1", _fraction)
    background_fraction: float = _key("0.3", _fraction)
    mask_border: int = _key("1", _count(0))
    background_rect: tuple[int, int, int, int] | None = _key("auto", _rect, _words)
    gallery_indices: tuple[int, ...] | None = _key("auto", _gallery, _words)
    output_dir: str = _key("runs", lambda text, side: text)

    def to_noise_model(self) -> NoiseModel:
        return NoiseModel(**{f.name: getattr(self, f.name)
                             for f in dataclasses.fields(NoiseModel)})

    def to_text(self) -> str:
        """Canonical config echo; parsing it reproduces this object.

        A value of ``None`` echoes as its field's default text (``auto`` or
        ``synthetic``)."""
        lines = []
        for field in dataclasses.fields(self):
            value, key = getattr(self, field.name), field.metadata
            text = key["default"] if value is None else key["format"](value)
            lines.append(f"{field.name} = {text}\n")
        return "".join(lines)


# fields whose bounds NoiseModel owns; each is checked there as it is parsed
_NOISE_KEYS = frozenset(f.name for f in dataclasses.fields(NoiseModel))


def _known(key: str, what: str, line: int | None = None) -> str:
    if key not in {field.name for field in dataclasses.fields(ExperimentConfig)}:
        raise ConfigError(f"unknown {what}", line=line)
    return key


def _parse_items(text: str) -> dict[str, tuple[str, int]]:
    items: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}",
                              line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        _known(key, f"key {key!r}", lineno)
        if key in items:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        items[key] = (value, lineno)
    return items


def _build(items: dict[str, tuple[str, int | None]]) -> ExperimentConfig:
    """Parse every field from ``items`` (key -> (text, line)), defaults
    filling the gaps; a failure names the field and, for a file value, its
    line.  A defaulted field that fails is charged to ``grid_side``."""
    values: dict[str, Any] = {}
    for field in dataclasses.fields(ExperimentConfig):
        name, key = field.name, field.metadata
        text, line = items.get(name, (key["default"], None))
        text = text.strip()
        try:
            if not text:
                raise ValueError("empty value")
            value = key["parse"](text, values.get("grid_side"))
            if name in _NOISE_KEYS:
                NoiseModel(**{name: value})
        except ValueError as exc:  # the domain errors are ValueErrors too
            message = str(exc)
            if not message.startswith(name):
                message = f"{name}: {message}"
            if name not in items:
                # every default is valid on its own, so grid_side made it fail
                message = (f"grid_side: {message} "
                           f"(with the default {name} = {key['default']})")
                line = items["grid_side"][1]
            raise ConfigError(message, line=line) from None
        values[name] = value
    return ExperimentConfig(**values)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate config text; defaults fill every missing key."""
    return _build(_parse_items(text))


def load_config(path=None, environ=None, overrides=None) -> ExperimentConfig:
    """Resolve a config from file, environment, and explicit overrides.

    Precedence (lowest to highest): built-in defaults, config file,
    ``GHOSTSIM_*`` environment variables, ``overrides`` (a plain
    ``{key: value_string}`` mapping, e.g. from command-line flags).
    """
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        items = _parse_items(text)
    else:
        items = {}
    if environ is None:
        environ = os.environ
    for name, value in environ.items():
        if name.startswith(ENV_PREFIX):
            key = name[len(ENV_PREFIX):].lower()
            items[_known(key, f"environment override {name}")] = (value, None)
    for key, value in (overrides or {}).items():
        items[_known(key, f"override {key!r}")] = (str(value), None)
    return _build(items)
