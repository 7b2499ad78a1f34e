"""Phaseless far-field scattering synthesis and reference-based reconstruction.

The package covers the forward side (grids, transforms, outgoing-wave
solver, reduced measurement geometry), intensity-only data synthesis with
known reference scatterers, and the explicit reconstruction that recovers
the target's transform from those intensities.
"""

from .bounds import (
    BoundsReport,
    bounds_report,
    contraction_onset,
    error_coefficient,
    fit_decay,
    sup_weight_on_support,
    weight_norm_constant,
)
from .config import ExperimentConfig, config_to_dict, load_config
from .fourier import forward_transform, inverse_transform
from .geometry import (
    ChannelTable,
    EnergySet,
    channel,
    channel_table,
    channels_on_grid,
)
from .grids import GridSpec, ScalarField, SpectralField
from .potentials import (
    BallPrimitive,
    GaussianPrimitive,
    PotentialSpec,
    analytic_hat,
    rasterize,
)
from .reconstruct import (
    ReconstructionOptions,
    ReconstructionResult,
    SingularMask,
    recover_modulus_sq,
    recover_phase_one_ref,
    recover_phase_two_refs,
    reconstruct,
)
from .solver import (
    SolverConfig,
    SolverReport,
    WaveVector,
    born_amplitude,
    scattering_amplitude,
    solve_lippmann_schwinger,
)
from .synthesis import (
    BackgroundReport,
    BackgroundSet,
    PhaselessDataset,
    read_dataset,
    synthesize,
    translation_twin_demo,
    validate_backgrounds,
    write_dataset,
)

__all__ = [
    "GridSpec",
    "ScalarField",
    "SpectralField",
    "BallPrimitive",
    "GaussianPrimitive",
    "PotentialSpec",
    "analytic_hat",
    "rasterize",
    "forward_transform",
    "inverse_transform",
    "ChannelTable",
    "channel",
    "channel_table",
    "channels_on_grid",
    "EnergySet",
    "WaveVector",
    "SolverConfig",
    "SolverReport",
    "solve_lippmann_schwinger",
    "scattering_amplitude",
    "born_amplitude",
    "BackgroundSet",
    "BackgroundReport",
    "PhaselessDataset",
    "synthesize",
    "translation_twin_demo",
    "validate_backgrounds",
    "write_dataset",
    "read_dataset",
    "ReconstructionOptions",
    "ReconstructionResult",
    "SingularMask",
    "recover_modulus_sq",
    "recover_phase_one_ref",
    "recover_phase_two_refs",
    "reconstruct",
    "weight_norm_constant",
    "sup_weight_on_support",
    "contraction_onset",
    "error_coefficient",
    "fit_decay",
    "BoundsReport",
    "bounds_report",
    "ExperimentConfig",
    "load_config",
    "config_to_dict",
]

__version__ = "0.1.0"
