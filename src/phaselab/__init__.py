"""phaselab: a deterministic numerical laboratory for geometric phases.

Computes and cross-checks total, dynamical and geometric phases of pure and
mixed quantum states: time-ordered propagators on uniform grids, basis-frame
holonomies and their hidden local gauge invariance, mixed-state interference
observables, purification/partial trace, and the exactly solvable spin-1/2
rotating-field model that serves as the analytic oracle throughout.
"""

from . import cli, evolution, gauge, linalg, mixed, numerics, phases, spin_model
from .evolution import HamiltonianTrajectory, PropagatorPath, TimeGrid, propagate
from .exceptions import (
    CapacityError,
    ContractError,
    DegeneracyError,
    DimensionError,
    NumericError,
    OrthogonalityCrossingError,
    PhaseLabError,
    UndefinedPhaseError,
)
from .gauge import BasisFrame, GaugeFunction
from .mixed import DensityMatrix, Ensemble, PurifiedState
from .phases import PathStack
from .spin_model import SpinParams

__version__ = "0.1.0"

__all__ = [
    "BasisFrame",
    "CapacityError",
    "ContractError",
    "DegeneracyError",
    "DensityMatrix",
    "DimensionError",
    "Ensemble",
    "GaugeFunction",
    "HamiltonianTrajectory",
    "NumericError",
    "OrthogonalityCrossingError",
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
