"""Shared discretization helpers: angle wrapping and quadrature.

All trajectory-valued quantities in this package live on a uniform time grid.
Every dynamical phase of a path is a plain sum of its step energies
(`phases.PathStack.curve_phases`); the trapezoidal rule integrates only an
instantaneous level's energy over H's node samples (`phases.adiabatic_phase`).
Nothing in the package differentiates states: connections are step phases,
step energies or step-overlap matrices, exact functionals of the grid states.
"""
from __future__ import annotations

import numpy as np


def wrap_angle(x):
    """Wrap an angle (or array of angles) to (-pi, pi]."""
    return np.angle(np.exp(1j * np.asarray(x, dtype=float)))


def trapezoid(y: np.ndarray, dt: float) -> float | complex:
    """Trapezoidal integral of uniformly sampled y over its full span."""
    y = np.asarray(y)
    return (0.5 * (y[0] + y[-1]) + y[1:-1].sum(axis=0)) * dt
