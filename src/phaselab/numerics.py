"""Shared discretization helpers: angle wrapping and quadrature.

All trajectory-valued quantities in this package live on a uniform time grid.
Energy integrals over H's node samples (the library's dynamical phases) use
the trapezoidal rule on that grid; the propagated curve's own dynamical phase
is a plain sum of its step energies (`phases.PathStack.curve_phases`).
Nothing in the package differentiates states: connections are step phases
(`phases.PathStack.step_phases`), step energies or step-overlap matrices,
exact functionals of the grid states.
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


def cum_trapezoid(y: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative trapezoidal integral; output[j] = integral over [t_0, t_j]."""
    y = np.asarray(y)
    out = np.empty(y.shape, dtype=np.result_type(y.dtype, float))
    out[0] = 0.0
    np.cumsum(0.5 * dt * (y[1:] + y[:-1]), axis=0, out=out[1:])
    return out
