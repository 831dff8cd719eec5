"""Hidden local gauge symmetry machinery.

A frame is a time-indexed orthonormal set {v_k(t_j)}, held as a
`phases.PathStack` whose members are named by their position.  Multiplying
each member by an arbitrary time-dependent phase e^{i alpha_k(t)} is an exact
symmetry of the physics: the trace formula (prefactor times exponential of
connection-minus-energy integral) is invariant.  The geometric phase is the
frame's holonomy, the Bargmann invariant `PathStack.holonomies`, so no
member's phase is ever fixed.  On the grid a gauge is its angles
alpha_k(t_j): the transform is `mixed.transform_evolution(paths, angles)`, the
one rephasing of any PathStack, smooth or not; it keeps every Gram entry to
rounding, so its output is not checked again.  A `GaugeFunction` draws smooth
gauges and gives their angles, and `frame_trace` takes the members'
dynamical phases.  `mixed.gauge_campaign` reads the member paths
psi_k = U|k> themselves as the frame; nothing here differentiates states or
builds a phase-stripped frame.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError
from .phases import PathStack

GAUGE_DEGREE = 6  # harmonics of each `GaugeFunction.random` draw


@dataclass(frozen=True)
class GaugeFunction:
    """Per-member smooth real gauge functions alpha_k(t), one row per member,
    drawn by `random`.

    Each row carries a trigonometric polynomial of the stated period plus an
    optional linear ramp:  alpha(t) = c0 + slope * t
    + sum_m a_m cos(2 pi m t / T) + b_m sin(2 pi m t / T).
    Slope zero keeps the gauge periodic, which preserves frame closure
    v(T) = v(0); nonzero slopes produce the endpoint offsets that the
    equivalence-class (non-)invariance laws predict.

    `value(t)` and `derivative(t)` evaluate every row from one cos/sin table
    of the times and return shape (L, *t.shape), rows in member order.
    """

    period: float
    const: np.ndarray  # (L,)
    cos_coeffs: np.ndarray  # (L, degree)
    sin_coeffs: np.ndarray  # (L, degree)
    slope: np.ndarray  # (L,)

    def __post_init__(self):
        L = (np.size(self.const),)
        cos, sin = self.cos_coeffs.shape, self.sin_coeffs.shape
        if self.const.shape != L or self.slope.shape != L or cos[:1] != L or sin != cos:
            raise DimensionError("gauge coefficient shapes do not match")

    @property
    def degree(self) -> int:
        return self.cos_coeffs.shape[1]

    def _table(self, t):
        """t as an array, the harmonic frequencies and cos, sin of (*t.shape, degree):
        harmonic m is e^{i w_1 t} times harmonic m - 1, one complex product per
        harmonic in place of a cos and a sin (about an ulp of rounding each)."""
        t = np.asarray(t, dtype=float)
        w = 2.0 * np.pi * np.arange(1, self.degree + 1) / self.period
        table = np.empty((*t.shape, self.degree), dtype=complex)
        if self.degree:
            first = table[..., 0]
            np.cos(w[0] * t, out=first.real)
            np.sin(w[0] * t, out=first.imag)
            for m in range(1, self.degree):
                np.multiply(table[..., m - 1], first, out=table[..., m])
        return t, w, table.real, table.imag

    def value(self, t):
        t, _, cos, sin = self._table(t)
        out = self.const + np.multiply.outer(t, self.slope)
        out = out + cos @ self.cos_coeffs.T + sin @ self.sin_coeffs.T
        return np.moveaxis(out, -1, 0)

    def derivative(self, t):
        t, w, cos, sin = self._table(t)
        out = self.slope - sin @ (w * self.cos_coeffs).T + cos @ (w * self.sin_coeffs).T
        return np.moveaxis(out, -1, 0)

    @classmethod
    def random(
        cls,
        size: int,
        period: float,
        rng: np.random.Generator,
        scale: float = 0.1,
        slope_scale: float = 0.0,
    ) -> "GaugeFunction":
        """Draw smooth gauges for `size` members, GAUGE_DEGREE harmonics each;
        harmonic m coefficients are damped by 1/m^2."""
        damp = 1.0 / np.arange(1, GAUGE_DEGREE + 1) ** 2
        return cls(
            period=period,
            const=rng.uniform(-np.pi, np.pi, size=size),
            cos_coeffs=rng.uniform(-scale, scale, size=(size, GAUGE_DEGREE)) * damp,
            sin_coeffs=rng.uniform(-scale, scale, size=(size, GAUGE_DEGREE)) * damp,
            slope=rng.uniform(-slope_scale, slope_scale, size) if slope_scale else np.zeros(size),
        )


def frame_trace(frame: PathStack, dynamical: np.ndarray, weights) -> complex:
    """Gauge-invariant form of Tr U(T) rho(0) built purely from frame data:
    `frame` is any path stack, such as the member paths or those rephased by
    `mixed.transform_evolution`, and `dynamical` its members' dynamical
    phases phi_d,k = -int <v_k|H|v_k> dt, read off the step energies
    (`PathStack.curve_phases`).

    sum_k w_k <v_k(0), v_k(T)> exp{ i int (<v_k|i d/dt v_k> - <v_k|H|v_k>) dt },
    i.e. each member's holonomy factor times its dynamical phase factor.
    """
    return complex(frame.average(weights, frame.holonomies * np.exp(1j * np.asarray(dynamical))))
