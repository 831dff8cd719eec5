"""Closed forms for a spin-1/2 in a uniformly rotating magnetic field.

The field direction traces a cone of opening angle theta at frequency omega;
the coupling strength is mu_B (angular-frequency units, hbar = 1).  The
mixing angle alpha = atan2(omega sin(theta), 2 mu_B + omega cos(theta))
diagonalizes the effective Hamiltonian, after which the amplitudes, phases,
solid angle and interference values are all elementary expressions.  Every
numerical module in the package is tested against these formulas; the
Bloch-path solid angle and the superposition basis, which only the tests
read, are in `tests/oracles.py`.  The sampled H is stored
component-major, each entry one contiguous row over the times, behind the
usual (n, 2, 2) shape.  Its rows are written in place, from
cos(omega t) and sin(omega t) taken into the output itself, or read from a
`RotatingField`: one table on a grid's midpoints, the one set of times the
propagator and the phase functionals sample, that the points of a sweep
share while omega and the grid stay fixed.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .evolution import HamiltonianTrajectory, TimeGrid
from .exceptions import DimensionError
from .numerics import wrap_angle

BRANCHES = ("+", "-")


def _branch_sign(branch: str) -> float:
    if branch not in BRANCHES:
        raise ValueError(f"branch must be '+' or '-', got {branch!r}")
    return 1.0 if branch == "+" else -1.0


@dataclass(frozen=True)
class SpinParams:
    """Rotating-field parameters; big_theta is the superposition mixing angle."""

    mu_b: float
    omega: float
    theta: float
    big_theta: float = 0.0

    @cached_property
    def alpha(self) -> float:
        return alpha_of(self)

    @property
    def period(self) -> float:
        if self.omega == 0.0:
            raise DimensionError("period undefined at omega = 0")
        return 2.0 * np.pi / self.omega

    @property
    def beta_rate(self) -> float:
        """Phase rate separating the two exact amplitudes: 2 mu_B cos(alpha) + omega cos(theta - alpha)."""
        return 2.0 * self.mu_b * np.cos(self.alpha) + self.omega * np.cos(self.theta - self.alpha)


def alpha_of(p: SpinParams) -> float:
    """Principal mixing angle; the vanishing-denominator branch gives pi/2."""
    return float(np.arctan2(p.omega * np.sin(p.theta), 2.0 * p.mu_b + p.omega * np.cos(p.theta)))


def field_rows(omega: float, times: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> None:
    """cos(omega t) and sin(omega t) at the given times, into `cos` and `sin`
    (rows of the times' shape, or views): the rotating field's one use of
    np.cos and np.sin, with the phase omega t its one temporary."""
    phase = omega * times
    np.cos(phase, out=cos)
    np.sin(phase, out=sin)


class RotatingField:
    """cos(omega t) and sin(omega t) on a grid's midpoints, taken once for
    every scenario that shares omega and the grid, as the points of a sweep
    over theta, mu_B or big_theta do.

    `rows` finds the table by the identity of the midpoint array it was
    computed for, which the grid holds, so no other array (the grid's are
    read-only) can hit it.
    """

    def __init__(self, omega: float, grid: TimeGrid):
        self.omega, self.grid = omega, grid
        self._table = np.empty((2, grid.steps))
        field_rows(omega, grid.midpoints, self._table[0], self._table[1])

    def rows(self, omega: float, times: np.ndarray):
        """The (cos, sin) rows of exactly the grid's midpoints at this omega, or None."""
        if omega == self.omega and times is self.grid.midpoints:
            return self._table
        return None


def hamiltonian(p: SpinParams, field: RotatingField | None = None) -> HamiltonianTrajectory:
    """H(t) = -mu_B B_hat(t) . sigma with B_hat on the theta-cone.

    The four entries are written directly: -/+ mu_B cos(theta) on the
    diagonal, -mu_B sin(theta) e^{i omega t} below it and its conjugate above,
    so every sample is exactly Hermitian.  A scalar t gives one 2x2 matrix.
    cos(omega t) and sin(omega t) come from `field`'s table when it holds the
    times sampled, and are otherwise taken into the output row itself; the
    entries are then scaled in place, by the same operations either way.
    """
    sin_t, cos_t = np.sin(p.theta), np.cos(p.theta)

    def batch(times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        out = np.moveaxis(np.empty((2, 2) + times.shape, dtype=complex), (0, 1), (-2, -1))
        out[..., 0, 0] = -p.mu_b * cos_t
        out[..., 1, 1] = p.mu_b * cos_t
        lower, upper = out[..., 1, 0], out[..., 0, 1]
        re, im = lower.real, lower.imag
        table = None if field is None else field.rows(p.omega, times)
        if table is None:
            field_rows(p.omega, times, re, im)
            table = re, im
        # -mu_B (sin(theta) cos(omega t)) and -mu_B (sin(theta) sin(omega t))
        np.multiply(table[0], sin_t, out=re)
        np.multiply(re, -p.mu_b, out=re)
        np.multiply(table[1], sin_t, out=im)
        np.multiply(im, -p.mu_b, out=im)
        upper.real = re
        np.negative(im, out=upper.imag)
        return out

    return HamiltonianTrajectory(dim=2, evaluate=batch)


def w_basis(p: SpinParams, t):
    """Rotated eigenbasis w_+/- of the diagonalized effective Hamiltonian.

    Accepts a scalar or array of times; vectors are returned on the last axis.
    """
    t = np.asarray(t, dtype=float)
    half = 0.5 * (p.theta - p.alpha)
    rot = np.exp(-1j * p.omega * t)
    w_plus = np.stack(
        [np.cos(half) * rot, np.sin(half) * np.ones_like(rot)], axis=-1
    )
    w_minus = np.stack(
        [np.sin(half) * rot, -np.cos(half) * np.ones_like(rot)], axis=-1
    )
    return w_plus, w_minus


def energy_expectation(p: SpinParams, branch: str) -> float:
    """<w_branch | H | w_branch> = -/+ mu_B cos(alpha), constant in t."""
    return -_branch_sign(branch) * p.mu_b * np.cos(p.alpha)


def connection_value(p: SpinParams, branch: str) -> float:
    """<w_branch | i d/dt w_branch> = (omega/2)(1 +/- cos(theta - alpha))."""
    s = _branch_sign(branch)
    return 0.5 * p.omega * (1.0 + s * np.cos(p.theta - p.alpha))


def exact_amplitudes(p: SpinParams, t):
    """Exact Schroedinger amplitudes psi_+/- with psi(0) = w(0)."""
    t = np.asarray(t, dtype=float)
    w_plus, w_minus = w_basis(p, t)
    phase_plus = np.exp(
        -1j * (energy_expectation(p, "+") - connection_value(p, "+")) * t
    )
    phase_minus = np.exp(
        -1j * (energy_expectation(p, "-") - connection_value(p, "-")) * t
    )
    return w_plus * phase_plus[..., None], w_minus * phase_minus[..., None]


def geometric_phase(p: SpinParams, branch: str) -> float:
    """One-period geometric phase -pi (1 -/+ cos(theta - alpha)), wrapped."""
    s = _branch_sign(branch)
    return float(wrap_angle(-np.pi * (1.0 - s * np.cos(p.theta - p.alpha))))


def solid_angle(p: SpinParams) -> float:
    """Solid angle 2 pi (1 - cos(theta - alpha)) swept by the w_+ Bloch vector."""
    return 2.0 * np.pi * (1.0 - np.cos(p.theta - p.alpha))


def interference_value(p: SpinParams) -> float:
    """One-period interference 1 + cos[(mu_B cos alpha) T - Omega_+/2]."""
    T = p.period
    return 1.0 + np.cos(p.mu_b * np.cos(p.alpha) * T - 0.5 * solid_angle(p))


def branch_traces(p: SpinParams) -> tuple[complex, complex]:
    """<psi_+(0)|psi_+(T)> and <psi_-(0)|psi_-(T)> over one period, closed form.

    With h = (theta - alpha)/2, <w_+(0)|w_+(T)> = cos^2 h e^{-i omega T} + sin^2 h
    (the minus branch swaps cos^2 and sin^2), and psi_+/- carry the phases
    e^{-i (E - A) T} of `exact_amplitudes`; every factor is a scalar.
    """
    T = p.period
    half = 0.5 * (p.theta - p.alpha)
    cos2, sin2 = math.cos(half) ** 2, math.sin(half) ** 2
    rot = cmath.exp(-1j * p.omega * T)
    energy = p.mu_b * math.cos(p.alpha)  # E_+/- = -/+ energy
    tilt = math.cos(p.theta - p.alpha)  # A_+/- = (omega/2)(1 +/- tilt)
    plus = (cos2 * rot + sin2) * cmath.exp(1j * (energy + 0.5 * p.omega * (1.0 + tilt)) * T)
    minus = (sin2 * rot + cos2) * cmath.exp(-1j * (energy - 0.5 * p.omega * (1.0 - tilt)) * T)
    return plus, minus


def mixed_trace(p: SpinParams) -> complex:
    """Tr[U(T) rho_mix(0)] for the big_theta mixture of psi_+/-, closed form:
    the `branch_traces` weighted by cos^2 and sin^2 of big_theta / 2."""
    plus, minus = branch_traces(p)
    return math.cos(0.5 * p.big_theta) ** 2 * plus + math.sin(0.5 * p.big_theta) ** 2 * minus
