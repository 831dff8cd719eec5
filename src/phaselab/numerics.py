"""Shared discretization helpers: angle wrapping, finite differences, quadrature.

All trajectory-valued quantities in this package live on a uniform time grid.
Energy integrals (dynamical phases) use the trapezoidal rule on that grid.
No phase functional differentiates states: connections are step phases
(`phases.PathStack.step_phases`), exact functionals of the grid states.
`central_diff` (central differences at interior nodes, one-sided second-order
stencils at the endpoints) serves `gauge.effective_hamiltonian` and the tests.
"""
from __future__ import annotations

import numpy as np


def wrap_angle(x):
    """Wrap an angle (or array of angles) to (-pi, pi]."""
    return np.angle(np.exp(1j * np.asarray(x, dtype=float)))


def central_diff(y: np.ndarray, dt: float) -> np.ndarray:
    """Differentiate samples y[j] = y(t_j) along axis 0.

    Interior nodes use (y[j+1] - y[j-1]) / (2 dt); the endpoints use the
    one-sided three-point second-order stencils.
    """
    y = np.asarray(y)
    if y.shape[0] < 3:
        raise ValueError("need at least 3 samples for second-order differences")
    out = np.empty_like(y, dtype=np.result_type(y.dtype, float))
    out[1:-1] = (y[2:] - y[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * dt)
    out[-1] = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * dt)
    return out


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
