"""Hidden local gauge symmetry machinery.

A BasisFrame is a time-indexed orthonormal set {v_k(t_j)}.  Multiplying each
member by an arbitrary time-dependent phase e^{i alpha_k(t)} is an exact
symmetry of the physics: amplitudes rebuilt from a transformed frame change
only by the constant e^{i alpha_k(0)}, and the trace formula (prefactor times
exponential of connection-minus-energy integral) is invariant.  The geometric
phase is the holonomy left over after parallel transporting the frame; the
holonomy and parallel-transport kernels are `phases.holonomy_factor` and
`phases.parallel_transport`, applied here to each frame member.  A
`GaugeFunction` evaluates the phases of every label at once.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .evolution import AmplitudePath, HamiltonianTrajectory, TimeGrid
from .exceptions import (
    ContractError,
    DimensionError,
    OrthogonalityCrossingError,
)
from .numerics import central_diff, cum_trapezoid, trapezoid
from .phases import holonomy_factor, parallel_transport, state_connection, state_energies

FRAME_ORTHO_TOL = 1e-8
OVERLAP_FLOOR = 1e-10


@dataclass(frozen=True)
class GaugeFunction:
    """Per-label smooth real gauge functions alpha_k(t).

    Each label carries a trigonometric polynomial of the stated period plus an
    optional linear ramp:  alpha(t) = c0 + slope * t
    + sum_m a_m cos(2 pi m t / T) + b_m sin(2 pi m t / T).
    Slope zero keeps the gauge periodic, which preserves frame closure
    v(T) = v(0); nonzero slopes produce the endpoint offsets that the
    equivalence-class (non-)invariance laws predict.

    `value(t)` and `derivative(t)` evaluate every label from one cos/sin table
    of the times and return shape (L, *t.shape), rows in label order.
    """

    labels: tuple
    period: float
    const: np.ndarray  # (L,)
    cos_coeffs: np.ndarray  # (L, degree)
    sin_coeffs: np.ndarray  # (L, degree)
    slope: np.ndarray  # (L,)

    def __post_init__(self):
        L = len(self.labels)
        if self.const.shape != (L,) or self.slope.shape != (L,):
            raise DimensionError("gauge coefficient shapes do not match labels")
        if self.cos_coeffs.shape != self.sin_coeffs.shape or self.cos_coeffs.shape[0] != L:
            raise DimensionError("gauge coefficient shapes do not match labels")

    @property
    def degree(self) -> int:
        return self.cos_coeffs.shape[1]

    def _table(self, t):
        """t as an array, the harmonic frequencies and cos, sin of (*t.shape, degree)."""
        t = np.asarray(t, dtype=float)
        w = 2.0 * np.pi * np.arange(1, self.degree + 1) / self.period
        arg = np.multiply.outer(t, w)
        return t, w, np.cos(arg), np.sin(arg)

    def value(self, t):
        t, _, cos, sin = self._table(t)
        out = self.const + np.multiply.outer(t, self.slope)
        out = out + cos @ self.cos_coeffs.T + sin @ self.sin_coeffs.T
        return np.moveaxis(out, -1, 0)

    def derivative(self, t):
        t, w, cos, sin = self._table(t)
        out = self.slope - sin @ (w * self.cos_coeffs).T + cos @ (w * self.sin_coeffs).T
        return np.moveaxis(out, -1, 0)

    def negated(self) -> "GaugeFunction":
        return GaugeFunction(
            labels=self.labels,
            period=self.period,
            const=-self.const,
            cos_coeffs=-self.cos_coeffs,
            sin_coeffs=-self.sin_coeffs,
            slope=-self.slope,
        )

    @classmethod
    def zero(cls, labels: Sequence, period: float, degree: int = 6) -> "GaugeFunction":
        L = len(tuple(labels))
        return cls(
            labels=tuple(labels),
            period=period,
            const=np.zeros(L),
            cos_coeffs=np.zeros((L, degree)),
            sin_coeffs=np.zeros((L, degree)),
            slope=np.zeros(L),
        )

    @classmethod
    def constants(cls, labels: Sequence, period: float, values, degree: int = 6) -> "GaugeFunction":
        g = cls.zero(labels, period, degree)
        const = np.asarray(values, dtype=float)
        if const.shape != (len(g.labels),):
            raise DimensionError("one constant per label required")
        return cls(g.labels, period, const, g.cos_coeffs, g.sin_coeffs, g.slope)

    @classmethod
    def random(
        cls,
        labels: Sequence,
        period: float,
        rng: np.random.Generator,
        degree: int = 6,
        scale: float = 0.1,
        slope_scale: float = 0.0,
    ) -> "GaugeFunction":
        """Draw smooth gauges; harmonic m coefficients are damped by 1/m^2."""
        labels = tuple(labels)
        L = len(labels)
        damp = 1.0 / np.arange(1, degree + 1) ** 2
        return cls(
            labels=labels,
            period=period,
            const=rng.uniform(-np.pi, np.pi, size=L),
            cos_coeffs=rng.uniform(-scale, scale, size=(L, degree)) * damp,
            sin_coeffs=rng.uniform(-scale, scale, size=(L, degree)) * damp,
            slope=rng.uniform(-slope_scale, slope_scale, size=L) if slope_scale else np.zeros(L),
        )


@dataclass(frozen=True)
class BasisFrame:
    """Orthonormal vectors v_k(t_j) indexed by label k and grid node j."""

    grid: TimeGrid
    labels: tuple
    vectors: np.ndarray  # (L, steps + 1, dim)

    def __post_init__(self):
        v = np.asarray(self.vectors)
        if v.ndim != 3 or v.shape[0] != len(self.labels) or v.shape[1] != self.grid.steps + 1:
            raise DimensionError(f"frame stack has shape {v.shape}")
        gram = np.einsum("kja,lja->jkl", np.conj(v), v)
        eye = np.eye(len(self.labels))
        worst = float(np.max(np.abs(gram - eye)))
        if worst > FRAME_ORTHO_TOL:
            raise ContractError(f"frame not orthonormal: deviation {worst:.3e}")

    @property
    def dim(self) -> int:
        return self.vectors.shape[-1]

    def _index(self, label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise DimensionError(f"unknown frame label {label!r}") from None

    def component(self, label) -> np.ndarray:
        return self.vectors[self._index(label)]


@dataclass(frozen=True)
class EffectiveHamiltonianPath:
    """Matrices <v_n|H|v_m> - <v_n| i d/dt |v_m> along the grid."""

    grid: TimeGrid
    labels: tuple
    matrices: np.ndarray  # (steps + 1, L, L)

    def hermiticity_defect(self) -> float:
        M = self.matrices
        return float(np.max(np.abs(M - np.conj(np.swapaxes(M, -2, -1)))))


def frame_from_amplitudes(paths: Sequence[AmplitudePath], labels=None) -> BasisFrame:
    """Strip each amplitude's accumulated total phase: v_k = e^{-i phi_k(t)} psi_k(t).

    phi_k(t_j) = arg<psi_k(0), psi_k(t_j)>, so <v_k(0), v_k(t_j)> is real and
    positive at every node.  Raises OrthogonalityCrossingError when an overlap
    magnitude falls below 1e-10, where that phase stops being meaningful.
    """
    paths = list(paths)
    if not paths:
        raise DimensionError("need at least one amplitude path")
    grid = paths[0].grid
    if labels is None:
        labels = tuple(range(len(paths)))
    labels = tuple(labels)
    if len(labels) != len(paths):
        raise DimensionError("one label per path required")
    gram0 = np.array([[np.vdot(a.initial, b.initial) for b in paths] for a in paths])
    if np.max(np.abs(gram0 - np.eye(len(paths)))) > 1e-10:
        raise ContractError("amplitude paths must be orthonormal at t = 0")
    stacked = []
    for path in paths:
        if path.grid != grid:
            raise DimensionError("amplitude paths live on different grids")
        overlaps = np.einsum("a,ja->j", np.conj(path.initial), path.states)
        mags = np.abs(overlaps)
        if np.min(mags) < OVERLAP_FLOOR:
            j = int(np.argmin(mags))
            raise OrthogonalityCrossingError(
                f"|<psi(0), psi(t_j)>| = {mags[j]:.2e} at node {j}: "
                "phase-stripping is undefined across an orthogonality crossing"
            )
        stacked.append(path.states * np.conj(overlaps / mags)[:, None])
    return BasisFrame(grid, labels, np.stack(stacked))


def apply_gauge(frame: BasisFrame, g: GaugeFunction) -> BasisFrame:
    """v_k(t_j) -> e^{i alpha_k(t_j)} v_k(t_j); orthonormality is exact."""
    if tuple(g.labels) != tuple(frame.labels):
        raise DimensionError(
            f"gauge labels {g.labels} do not match frame labels {frame.labels}"
        )
    phases = np.exp(1j * g.value(frame.grid.nodes))
    return BasisFrame(frame.grid, frame.labels, frame.vectors * phases[:, :, None])


def connection(frame: BasisFrame, label) -> np.ndarray:
    """<v_k(t_j), i d/dt v_k(t_j)>, real by normalization."""
    return state_connection(frame.component(label), frame.grid.dt)


def parallel_transport_frame(frame: BasisFrame) -> BasisFrame:
    """Rephase every member so its connection vanishes at interior nodes."""
    dt = frame.grid.dt
    rows = np.stack([parallel_transport(v, dt) for v in frame.vectors])
    return BasisFrame(frame.grid, frame.labels, rows)


def holonomy(frame: BasisFrame, label) -> complex:
    """<v_bar_k(0), v_bar_k(T)> of the parallel-transported member."""
    return holonomy_factor(frame.component(label), frame.grid.dt)


def frame_trace(frame: BasisFrame, H: HamiltonianTrajectory, weights) -> complex:
    """Gauge-invariant form of Tr U(T) rho(0) built purely from frame data.

    sum_k w_k <v_k(0), v_k(T)> exp{ i int (<v_k|i d/dt v_k> - <v_k|H|v_k>) dt },
    i.e. each member's holonomy factor times its dynamical phase factor.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(frame.labels),):
        raise DimensionError("one weight per frame label required")
    samples = H.sample(frame.grid.nodes)
    dt = frame.grid.dt
    return complex(sum(
        w * holonomy_factor(v, dt) * np.exp(-1j * trapezoid(state_energies(v, samples), dt))
        for w, v in zip(weights, frame.vectors)
    ))


def amplitudes_from_frame(frame: BasisFrame, H: HamiltonianTrajectory) -> list[AmplitudePath]:
    """Rebuild Schroedinger amplitudes from a frame whose effective Hamiltonian
    is diagonal: psi_k(t) = v_k(t) exp{-i int (<v_k|H|v_k> - <v_k|i d/dt v_k>) dt}.

    Under a frame gauge transform the output changes only by the constant
    phase e^{i alpha_k(0)} per member.
    """
    samples = H.sample(frame.grid.nodes)
    dt = frame.grid.dt
    out = []
    for v in frame.vectors:
        energy = state_energies(v, samples) - state_connection(v, dt)
        out.append(AmplitudePath(frame.grid, v * np.exp(-1j * cum_trapezoid(energy, dt))[:, None]))
    return out


def effective_hamiltonian(frame: BasisFrame, H: HamiltonianTrajectory) -> EffectiveHamiltonianPath:
    """Matrix elements <v_n|H|v_m> - <v_n| i d/dt v_m> at every node."""
    if H.dim != frame.dim:
        raise DimensionError(f"Hamiltonian dim {H.dim} != frame dim {frame.dim}")
    samples = H.sample(frame.grid.nodes)
    v = frame.vectors
    dv = central_diff(np.swapaxes(v, 0, 1), frame.grid.dt)  # (steps+1, L, dim)
    vt = np.swapaxes(v, 0, 1)
    ham_part = np.einsum("jna,jab,jmb->jnm", np.conj(vt), samples, vt)
    conn_part = np.einsum("jna,jma->jnm", np.conj(vt), 1j * dv)
    return EffectiveHamiltonianPath(frame.grid, frame.labels, ham_part - conn_part)


def check_universal_hamiltonian_constraint(
    g: GaugeFunction, grid: TimeGrid | None = None, tol: float = 1e-10
) -> bool:
    """True iff all labels share one derivative function at every grid node.

    Equal derivatives are exactly the gauges under which the per-path phase
    transforms can be absorbed into a single modified Hamiltonian.
    """
    if grid is not None:
        times = grid.nodes
    else:
        times = np.linspace(0.0, g.period, 1025)
    derivs = g.derivative(times)
    spread = np.max(np.abs(derivs - derivs[0:1]), initial=0.0)
    return bool(spread <= tol)
