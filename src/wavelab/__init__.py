"""wavelab: a 1-D spectral laboratory for wave-equation dispersion relations.

Four linear wave equations (classical wave, massless electromagnetic, massive
Klein-Gordon, Schrodinger with optional potential) share one periodic grid,
one unitary transform convention, and one plane-wave bookkeeping, so their
dispersion relations, exact spectral propagators, the reduction of the massive
second-order equation to Schrodinger dynamics, and the uncertainty-bound
oscillator ground energy can all be verified quantitatively.
"""

from .core import (
    NATURAL_UNITS,
    GaussianPacketSpec,
    Grid1D,
    PhysicalConstants,
    SpectralField,
    TimeSpec,
    WaveField,
    dft,
    idft,
    l2_norm,
)
from .dispersion import (
    ClassicalWave,
    Electromagnetic,
    EquationKind,
    KinematicPair,
    KleinGordon,
    NrExpansionError,
    PlaneWaveMode,
    SchrodingerFree,
    SchrodingerPotential,
    group_velocity,
    is_second_order,
    kinematic_map,
    nr_expansion_error,
    omega_of_k,
    planewave_residual,
    planewave_sample,
)
from .nrlimit import (
    DominanceTerms,
    NrLimitReport,
    dominance_terms_mode,
    kg_vs_schrodinger,
    nr_limit_report,
)
from .oscillator import (
    GroundState,
    OscillatorProblem,
    UncertaintyPoint,
    energy_bound,
    imaginary_time_ground_state,
    minimize_bound_analytic,
    minimize_bound_numeric,
)
from .propagate import (
    SecondOrderState,
    centroid,
    energy_expectation,
    evolve_schrodinger_spectral,
    evolve_second_order_spectral,
    gaussian_packet,
    harmonic_potential,
    packet_moments,
    packet_width,
    positive_branch_init,
    split_step_evolve,
)

__version__ = "0.1.0"

__all__ = [
    "NATURAL_UNITS",
    "ClassicalWave",
    "DominanceTerms",
    "Electromagnetic",
    "EquationKind",
    "GaussianPacketSpec",
    "Grid1D",
    "GroundState",
    "KinematicPair",
    "KleinGordon",
    "NrExpansionError",
    "NrLimitReport",
    "OscillatorProblem",
    "PhysicalConstants",
    "PlaneWaveMode",
    "SchrodingerFree",
    "SchrodingerPotential",
    "SecondOrderState",
    "SpectralField",
    "TimeSpec",
    "UncertaintyPoint",
    "WaveField",
    "centroid",
    "dft",
    "dominance_terms_mode",
    "energy_bound",
    "energy_expectation",
    "evolve_schrodinger_spectral",
    "evolve_second_order_spectral",
    "gaussian_packet",
    "group_velocity",
    "harmonic_potential",
    "idft",
    "imaginary_time_ground_state",
    "is_second_order",
    "kg_vs_schrodinger",
    "kinematic_map",
    "l2_norm",
    "minimize_bound_analytic",
    "minimize_bound_numeric",
    "nr_expansion_error",
    "nr_limit_report",
    "omega_of_k",
    "packet_moments",
    "packet_width",
    "planewave_residual",
    "planewave_sample",
    "positive_branch_init",
    "split_step_evolve",
]
