"""Quadrature noise of squeezed light behind random amplifying media.

Closed-form disorder averages for the output quadrature variances of a
diffusive amplifying slab fed with squeezed light, with and without
wavefront shaping, an independent Monte Carlo disorder oracle, and a
scanner for the parameter region where the shaped output stays below
the shot-noise level.
"""

__version__ = "0.1.0"

from .analytic import (
    VarianceReport,
    coherent_baseline,
    full_report,
    linear_coefficients,
    mean_coefficients,
    rescaled_fluctuation,
    variance_p_nowfs,
    variance_p_wfs,
    variance_x_nowfs,
    variance_x_wfs,
    wfs_gain,
)
from .core import (
    LASER_THRESHOLD,
    BadChannels,
    DomainError,
    EnsembleCoefficients,
    GainAboveThreshold,
    InputState,
    MediumSpec,
    ParameterError,
    ThinMedium,
)
from .ensemble import (
    DisorderRealization,
    McEstimate,
    SamplerConfig,
    SamplerMode,
    mc_average,
    mean_amplitude_check,
    realization_values,
    sample_realization,
    variance_p_single,
    variance_x_nowfs_single,
    variance_x_wfs_single,
)
from .snl import (
    LARGE_SQUEEZING_R,
    RegionScan,
    SnlThreshold,
    region_scan,
    snl_condition,
    threshold_closed_form,
)

__all__ = [
    "__version__",
    "LASER_THRESHOLD",
    "LARGE_SQUEEZING_R",
    "BadChannels",
    "DisorderRealization",
    "DomainError",
    "EnsembleCoefficients",
    "GainAboveThreshold",
    "InputState",
    "McEstimate",
    "MediumSpec",
    "ParameterError",
    "RegionScan",
    "SamplerConfig",
    "SamplerMode",
    "SnlThreshold",
    "ThinMedium",
    "VarianceReport",
    "coherent_baseline",
    "full_report",
    "linear_coefficients",
    "mc_average",
    "mean_amplitude_check",
    "mean_coefficients",
    "realization_values",
    "region_scan",
    "rescaled_fluctuation",
    "sample_realization",
    "snl_condition",
    "threshold_closed_form",
    "variance_p_nowfs",
    "variance_p_single",
    "variance_p_wfs",
    "variance_x_nowfs",
    "variance_x_nowfs_single",
    "variance_x_wfs",
    "variance_x_wfs_single",
    "wfs_gain",
]
