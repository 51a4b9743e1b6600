"""Computational ghost-imaging simulator.

Builds illumination bases, compiles linear image filters into them, runs a
noisy virtual bench with a binary spatial modulator, reconstructs images from
the measured coefficients, and compares the SNR of measuring the filtered
image directly against filtering after reconstruction.

Each public name is listed once, in its submodule's ``__all__``; the package
re-exports those lists, and its ``__all__`` is their union.  The
command-line front end, :mod:`ghostsim.cli`, is not re-exported.
"""

__version__ = "0.1.0"

# the modules first: after the star imports ``reconstruct`` names the function
from . import analysis, bases, bench, config, core, errors, pgmio
from . import reconstruct as _reconstruct
from .analysis import *  # noqa: F401,F403
from .bases import *  # noqa: F401,F403
from .bench import *  # noqa: F401,F403
from .config import *  # noqa: F401,F403
from .core import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .pgmio import *  # noqa: F401,F403
from .reconstruct import *  # noqa: F401,F403

__all__ = sorted({name for module in (analysis, bases, bench, config, core, errors,
                                      pgmio, _reconstruct)
                  for name in module.__all__})
