"""Computational ghost-imaging simulator.

Builds illumination bases, compiles linear image filters into them, runs a
noisy virtual bench with a binary spatial modulator, reconstructs images from
the measured coefficients, and compares the SNR of measuring the filtered
image directly against filtering after reconstruction.
"""

__version__ = "0.1.0"

from .analysis import (
    RegionMask,
    SNRReport,
    SweepCell,
    SweepSummary,
    compute_snr,
    derive_seed,
    mask_from_rect,
    noise_autocorrelation,
    predicted_amplification,
    select_background_mask,
    select_peak_mask,
    summarize_sweep,
    sweep_cells,
    write_summary_csv,
    write_sweep_csv,
)
from .bases import (
    CANONICAL,
    HADAMARD,
    PatternBasis,
    SubPatternSet,
    binary_decompose,
    canonical_basis,
    decompose_basis,
    hadamard_basis,
    modify_basis,
    projection_count,
)
from .bench import (
    BASIS_PROCESSED,
    METHODS,
    POST_PROCESSED,
    MeasurementPlan,
    NoiseModel,
    as_transmission,
    coefficients_from_draws,
    lamp_intensity,
    load_object,
    plan_acquisition,
    run_basis_protocol,
    synth_bar_target,
)
from .config import ENV_PREFIX, ExperimentConfig, default_config, load_config, parse_config
from .core import (
    GridSpec,
    Kernel,
    KERNEL_PRESETS,
    build_operator_matrix,
    cyclic_convolve,
    cyclic_correlate,
    edge_detect_kernel,
    filter_energy,
    flatten,
    identity_kernel,
    kernel_autocorrelation,
    kernel_preset,
    unflatten,
)
from .errors import (
    ConfigError,
    DegenerateBackgroundError,
    DimensionError,
    FormatError,
    GhostSimError,
    MaskError,
    NormalizationError,
    ProtocolError,
    UnsupportedSizeError,
)
from .pgmio import (
    PGM_MAXVAL,
    read_pgm,
    read_pgm_values,
    write_pgm,
)
from .reconstruct import (
    basis_processed_image,
    hadamard_inverse_scale,
    post_process,
    post_processed_image,
    reconstruct,
)

from types import ModuleType as _ModuleType

# the public names imported above; the submodules they came from are not
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
