"""Hidden local gauge symmetry machinery.

A BasisFrame is a time-indexed orthonormal set {v_k(t_j)}.  Multiplying each
member by an arbitrary time-dependent phase e^{i alpha_k(t)} is an exact
symmetry of the physics: amplitudes rebuilt from a transformed frame change
only by the constant e^{i alpha_k(0)}, and the trace formula (prefactor times
exponential of connection-minus-energy integral) is invariant.  The geometric
phase is the frame's holonomy, the Bargmann invariant `PathStack.holonomies`,
so no member's phase is ever fixed.  A BasisFrame is a `phases.PathStack`
checked orthonormal at every node, whose members are named by their position,
so the connection, holonomies, trace formula and rebuilt amplitudes read its
own step phases arg<v_j, v_{j+1}>.  On the grid a gauge is its angles
alpha_k(t_j): the transform is `mixed.transform_evolution(paths, angles)`, the
one rephasing of any PathStack, smooth or not; it keeps every Gram entry to
rounding, so its output is not checked again.  `effective_hamiltonian`, whose
off-diagonal <v_n| i d/dt v_m> is no step phase, reads the step-overlap
matrices V_j^dagger V_{j+1} instead; nothing here differentiates states.  A
`GaugeFunction` draws smooth gauges and gives their angles.  H comes in as its
samples on the frame's grid nodes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    ContractError,
    DimensionError,
    OrthogonalityCrossingError,
)
from .numerics import cum_trapezoid
from .phases import PathStack, check_node_samples, state_energies

FRAME_ORTHO_TOL = 1e-8
OVERLAP_FLOOR = 1e-10


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
        degree: int = 6,
        scale: float = 0.1,
        slope_scale: float = 0.0,
    ) -> "GaugeFunction":
        """Draw smooth gauges for `size` members; harmonic m coefficients are
        damped by 1/m^2."""
        damp = 1.0 / np.arange(1, degree + 1) ** 2
        return cls(
            period=period,
            const=rng.uniform(-np.pi, np.pi, size=size),
            cos_coeffs=rng.uniform(-scale, scale, size=(size, degree)) * damp,
            sin_coeffs=rng.uniform(-scale, scale, size=(size, degree)) * damp,
            slope=rng.uniform(-slope_scale, slope_scale, size) if slope_scale else np.zeros(size),
        )


@dataclass(frozen=True)
class BasisFrame(PathStack):
    """Orthonormal vectors v_k(t_j) as a path stack (steps + 1, dim, L)."""

    def __post_init__(self):
        super().__post_init__()
        v = self.states
        conj = np.conj(v)  # one einsum per Gram entry k <= l: twice as fast as the whole stack
        deviations = [np.max(np.abs(np.einsum("ja,ja->j", conj[:, :, k], v[:, :, l]) - (k == l)))
                      for k in range(self.size) for l in range(k, self.size)]
        worst = float(np.max(deviations))
        if not worst <= FRAME_ORTHO_TOL:
            raise ContractError(f"frame not orthonormal: deviation {worst:.3e}")


def frame_from_amplitudes(stack: PathStack) -> BasisFrame:
    """Strip each amplitude's accumulated total phase: v_k = e^{-i phi_k(t)} psi_k(t).

    phi_k(t_j) = arg<psi_k(0), psi_k(t_j)>, so <v_k(0), v_k(t_j)> is real and
    positive at every node.  Raises OrthogonalityCrossingError when an overlap
    magnitude falls below 1e-10, where that phase stops being meaningful.
    """
    stack.require_orthonormal_start()
    psi = stack.states
    overlaps = np.einsum("ak,jak->jk", np.conj(psi[0]), psi)  # <psi_k(0), psi_k(t_j)>
    mags = np.abs(overlaps)
    j, k = np.unravel_index(np.argmin(mags), mags.shape)
    if mags[j, k] < OVERLAP_FLOOR:
        raise OrthogonalityCrossingError(
            f"|<psi(0), psi(t_j)>| = {mags[j, k]:.2e} at node {j}: "
            "phase-stripping is undefined across an orthogonality crossing"
        )
    stripped = psi * np.conj(overlaps / mags)[:, None]  # (nodes, dim, L)
    return BasisFrame(stack.grid, stripped)


def frame_trace(frame: PathStack, samples: np.ndarray, weights) -> complex:
    """Gauge-invariant form of Tr U(T) rho(0) built purely from frame data and
    `samples`, the Hamiltonian on the frame's grid nodes: `frame` is any path
    stack, a BasisFrame or one rephased by `mixed.transform_evolution`.

    sum_k w_k <v_k(0), v_k(T)> exp{ i int (<v_k|i d/dt v_k> - <v_k|H|v_k>) dt },
    i.e. each member's holonomy factor times its dynamical phase factor.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (frame.size,):
        raise DimensionError("one weight per frame member required")
    return complex(np.sum(weights * frame.holonomies * np.exp(1j * frame.dynamical(samples))))


def amplitudes_from_frame(frame: PathStack, samples: np.ndarray) -> PathStack:
    """Rebuild Schroedinger amplitudes, one stack in member order, from a frame
    whose effective Hamiltonian is diagonal:
    psi_k(t) = v_k(t) exp{-i int (<v_k|H|v_k> - <v_k|i d/dt v_k>) dt}, with
    `samples` the Hamiltonian on the frame's grid nodes: the energies by the
    cumulative trapezoid, the connection integral as minus the cumulative step
    phases.

    Under a frame gauge transform the output changes only by the constant
    phase e^{i alpha_k(0)} per member.
    """
    check_node_samples(samples, frame.grid, frame.dim)
    accumulated = cum_trapezoid(state_energies(frame.states, samples), frame.grid.dt)
    accumulated[1:] += np.cumsum(frame.step_phases.T, axis=0)  # (nodes, L)
    return PathStack(frame.grid, frame.states * np.exp(-1j * accumulated)[:, None])


def effective_hamiltonian(frame: PathStack, samples: np.ndarray) -> np.ndarray:
    """Matrix elements <v_n|H|v_m> - <v_n| i d/dt v_m> at every step midpoint,
    shape (steps, L, L), with `samples` the Hamiltonian on the frame's grid nodes.

    With M_j = V_j^dagger V_{j+1} the step-overlap matrix of the frame, the
    connection block is (i / 2 dt)(M_j - M_j^dagger), Hermitian by construction,
    and <H> the mean of V^dagger H V at the two ends of the step.
    """
    check_node_samples(samples, frame.grid, frame.dim)
    v = frame.states
    ham_nodes = np.einsum("jan,jab,jbm->jnm", np.conj(v), samples, v)
    M = np.einsum("jan,jam->jnm", np.conj(v[:-1]), v[1:])
    conn_part = (0.5j / frame.grid.dt) * (M - np.conj(np.swapaxes(M, -2, -1)))
    ham_part = 0.5 * (ham_nodes[:-1] + ham_nodes[1:])
    return ham_part - conn_part


def check_universal_hamiltonian_constraint(g: GaugeFunction) -> bool:
    """True iff all members share one derivative function, to 1e-10 at 1025
    uniform times over one period.

    Equal derivatives are exactly the gauges under which the per-path phase
    transforms can be absorbed into a single modified Hamiltonian.
    """
    derivs = g.derivative(np.linspace(0.0, g.period, 1025))
    return bool(np.max(np.abs(derivs - derivs[0:1]), initial=0.0) <= 1e-10)
