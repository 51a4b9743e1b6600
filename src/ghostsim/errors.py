"""Exception types shared across the package."""

__all__ = [
    "GhostSimError",
    "DimensionError",
    "UnsupportedSizeError",
    "NormalizationError",
    "ProtocolError",
    "DegenerateBackgroundError",
    "MaskError",
    "FormatError",
    "ConfigError",
]


class GhostSimError(Exception):
    """Base class for all package-specific failures."""


class DimensionError(GhostSimError, ValueError):
    """Shapes, sizes, or index ranges do not line up."""


class UnsupportedSizeError(GhostSimError, ValueError):
    """The requested construction only exists for particular grid sizes."""


class NormalizationError(GhostSimError, ArithmeticError):
    """A normalizing quantity vanished (all-zero kernel, zero-variance image)."""


class ProtocolError(GhostSimError, ValueError):
    """Measurement inputs violate an acquisition-protocol precondition."""


class DegenerateBackgroundError(GhostSimError, ArithmeticError):
    """The background region has zero spread, so SNR is undefined."""


class MaskError(GhostSimError, ValueError):
    """Region selection produced an empty or inconsistent mask."""


class FormatError(GhostSimError, ValueError):
    """A file does not follow the expected on-disk format."""


class ConfigError(GhostSimError, ValueError):
    """Bad experiment configuration.

    ``line`` is set when the failure points at a specific line of a config
    file; semantic failures carry the offending field name in the message.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
