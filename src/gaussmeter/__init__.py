"""Entropy reduction and entanglement-assisted classical capacity of
multimode bosonic Gaussian measurement channels, with an independent
truncated-Fock-space verification engine."""

from .capacity import (
    CapacityReport,
    EnergyConstraint,
    SweepPoint,
    c_unassisted_one_mode,
    cea_multimode,
    cea_one_mode,
    excess_limit,
    gain,
    sweep_one_mode,
)
from .gauge import (
    DualChannelParams,
    GaugeMeasurement,
    GaugePosterior,
    GaugeState,
    cp_certificate,
    dual_channel_params,
    entropy_reduction_gauge,
    output_density_params,
    posterior_params,
    sqrt_gaussian_params,
)
from .matfun import (
    LogBase,
    SymplecticForm,
    g_scalar,
    g_trace,
    psd_sqrt,
    symplectic_form,
    symplectic_spectrum,
)
from .symplectic import (
    GeneralMeasurement,
    RealCovariance,
    embed_gauge_invariant,
    entropy_reduction_general,
    gaussian_entropy,
    posterior_covariance,
    validate_covariance,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityReport",
    "DualChannelParams",
    "EnergyConstraint",
    "GaugeMeasurement",
    "GaugePosterior",
    "GaugeState",
    "GeneralMeasurement",
    "LogBase",
    "RealCovariance",
    "SweepPoint",
    "SymplecticForm",
    "c_unassisted_one_mode",
    "cea_multimode",
    "cea_one_mode",
    "cp_certificate",
    "dual_channel_params",
    "embed_gauge_invariant",
    "entropy_reduction_gauge",
    "entropy_reduction_general",
    "excess_limit",
    "g_scalar",
    "g_trace",
    "gain",
    "gaussian_entropy",
    "output_density_params",
    "posterior_covariance",
    "posterior_params",
    "psd_sqrt",
    "sqrt_gaussian_params",
    "sweep_one_mode",
    "symplectic_form",
    "symplectic_spectrum",
    "validate_covariance",
]
