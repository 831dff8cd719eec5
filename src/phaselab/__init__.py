"""phaselab: a deterministic numerical laboratory for geometric phases.

Computes and cross-checks total, dynamical and geometric phases of pure and
mixed quantum states: time-ordered propagators on uniform grids, the
holonomies of the member paths and their hidden local gauge invariance,
mixed-state interference observables, purification/partial trace, and the
exactly solvable spin-1/2 rotating-field model that serves as the analytic
oracle throughout.  The paper's other reference constructions (the
phase-stripped frame, rebuilt amplitudes, the effective Hamiltonian, the
Bloch-path solid angle, the superposition basis) are test oracles, in
`tests/oracles.py`, and no command runs them.
"""

from . import cli, evolution, gauge, linalg, mixed, numerics, phases, spin_model
from .evolution import HamiltonianTrajectory, PropagatorPath, TimeGrid, propagate
from .exceptions import (
    CapacityError,
    ContractError,
    DegeneracyError,
    DimensionError,
    NumericError,
    PhaseLabError,
    UndefinedPhaseError,
)
from .gauge import GaugeFunction
from .mixed import DensityMatrix, Ensemble, PurifiedState
from .phases import PathStack
from .spin_model import SpinParams

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ContractError",
    "DegeneracyError",
    "DensityMatrix",
    "DimensionError",
    "Ensemble",
    "GaugeFunction",
    "HamiltonianTrajectory",
    "NumericError",
    "PathStack",
    "PhaseLabError",
    "PropagatorPath",
    "PurifiedState",
    "SpinParams",
    "TimeGrid",
    "UndefinedPhaseError",
    "cli",
    "evolution",
    "gauge",
    "linalg",
    "mixed",
    "numerics",
    "phases",
    "propagate",
    "spin_model",
]
