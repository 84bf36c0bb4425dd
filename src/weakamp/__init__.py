"""Weak-measurement amplification under noise.

Conditional pointer shifts and readings for a Gaussian position meter and a
qubit meter, with the preselection state optionally degraded by
depolarizing, phase-damping, or amplitude-damping channels.  Closed-form
maxima over preselection/postselection pairs are cross-checked against an
independent brute-force joint evolution and a deterministic derivative-free
optimizer.
"""

from .channels import (
    KrausChannel,
    amplitude_damping,
    depolarizing,
    phase_damping,
)
from .common import (
    PROB_FLOOR,
    GaussianMeter,
    GridTooSmallError,
    MaxResult,
    QubitMeterReading,
    ShiftResult,
    SingularLimitError,
    VanishingPostselectionError,
)
from .gaussian import gaussian_max_shifts, gaussian_shifts
from .optimize import (
    OptimizationError,
    OptimizationResult,
    PPSPoint,
    amplitude_damping_max,
    damped_reading_objective,
    damped_shift_objective,
    kappa_reading_objective,
    kappa_shift_objective,
    maximize,
)
from .oracle import gaussian_grid_evolve, qubit_joint_evolve
from .qubit import (
    BlochVector,
    PureQubit,
    QubitDensity,
    bloch_from_density,
    density_from_bloch,
    pure_state,
)
from .qubitmeter import ordinary_reading, postselected_reading, qubit_max_reading
from .verification import AdjudicationReport, VerifyReport, adjudicate_variants, run_verify

__version__ = "0.1.0"

__all__ = [
    "AdjudicationReport",
    "BlochVector",
    "GaussianMeter",
    "GridTooSmallError",
    "KrausChannel",
    "MaxResult",
    "OptimizationError",
    "OptimizationResult",
    "PPSPoint",
    "PROB_FLOOR",
    "PureQubit",
    "QubitDensity",
    "QubitMeterReading",
    "ShiftResult",
    "SingularLimitError",
    "VanishingPostselectionError",
    "VerifyReport",
    "adjudicate_variants",
    "amplitude_damping",
    "amplitude_damping_max",
    "bloch_from_density",
    "damped_reading_objective",
    "damped_shift_objective",
    "density_from_bloch",
    "depolarizing",
    "gaussian_grid_evolve",
    "gaussian_max_shifts",
    "gaussian_shifts",
    "kappa_reading_objective",
    "kappa_shift_objective",
    "maximize",
    "ordinary_reading",
    "phase_damping",
    "postselected_reading",
    "pure_state",
    "qubit_joint_evolve",
    "qubit_max_reading",
    "run_verify",
]
