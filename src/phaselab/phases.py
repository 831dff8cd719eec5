"""Phase functionals for pure-state trajectories.

Conventions (shared package-wide): the total phase is arg<psi(0), psi(T)>,
the dynamical phase is phi_D = -int <psi|H|psi> dt, and the geometric phase
is their difference, equivalently the argument of the holonomy
<psi(0), psi(T)> exp[i int <psi| i d/dt psi> dt].  Reported angles are
wrapped to (-pi, pi]; accumulated integrals (the dynamical phase) are not.
Except in `adiabatic_phase`, H comes in as its node samples `H.sample(grid.nodes)`,
whose shape `check_node_samples` checks.

The kernels on raw state stacks (derivative overlaps <v|dv/dt>, connection,
energy expectation, holonomy factor, parallel transport) serve the pure-state
functionals here, the frame holonomies of `gauge` and every time-dependent
mixed-state functional of `mixed`; `derivative_overlaps` is the one
central-difference estimator, so another estimator changes it only.
`holonomy_from_overlaps` and `report_from_overlaps` are the kernels behind
`holonomy_factor` and `phase_report`, taking the overlaps as computed, so one
`derivative_overlaps` call on a (nodes, dim, k) stack serves k paths.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolution import AmplitudePath, HamiltonianTrajectory, TimeGrid
from .exceptions import DegeneracyError, DimensionError, UndefinedPhaseError
from .linalg import fix_eigenvector_phases
from .numerics import central_diff, cum_trapezoid, trapezoid, wrap_angle

OVERLAP_FLOOR = 1e-12


@dataclass(frozen=True)
class PhaseReport:
    """Phase summary for one scenario constituent.

    `geometric` is wrap(total - dynamical) by construction; the transport
    residual is the largest interior |<psi, d psi/dt>|, i.e. how far the raw
    evolution is from satisfying the parallel transport condition.
    """

    total: float
    dynamical: float
    geometric: float
    overlap_magnitude: float
    transport_residual: float


def total_phase(psi: AmplitudePath):
    """arg and magnitude of <psi(0), psi(T)>; valid for non-cyclic paths too."""
    overlap = complex(np.vdot(psi.initial, psi.final))
    magnitude = abs(overlap)
    if magnitude < OVERLAP_FLOOR:
        raise UndefinedPhaseError(
            f"endpoint overlap magnitude {magnitude:.2e} leaves the total phase undefined"
        )
    return float(np.angle(overlap)), float(magnitude)


def derivative_overlaps(states: np.ndarray, dt: float) -> np.ndarray:
    """<v_j, d/dt v_j> by central differences on a (nodes, dim, ...) stack: the
    vector is axis 1, so k paths stacked as (nodes, dim, k) give (nodes, k)."""
    dv = central_diff(states, dt)  # first, so its temporaries are freed before the conj copy
    return np.einsum("ja...,ja...->j...", np.conj(states), dv)


def state_connection(states: np.ndarray, dt: float) -> np.ndarray:
    """<v(t_j), i d/dt v(t_j)>, real part, for a state stack v of shape (nodes, dim)."""
    return -derivative_overlaps(states, dt).imag


def check_node_samples(samples: np.ndarray, grid: TimeGrid, dim: int) -> None:
    """Raise DimensionError unless `samples` has the shape of H on the grid nodes."""
    expected = (grid.steps + 1, dim, dim)
    if np.shape(samples) != expected:
        raise DimensionError(f"H samples have shape {np.shape(samples)}, expected {expected}")


def state_energies(states: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """<v(t_j)| H(t_j) |v(t_j)>, real part, for states (nodes, dim) and H samples."""
    return np.einsum("ja,jab,jb->j", np.conj(states), samples, states).real


def holonomy_factor(states: np.ndarray, dt: float) -> complex:
    """<v(0), v(T)> exp[i int <v| i d/dt v> dt] for a state stack (nodes, dim).

    Its argument is the geometric phase of the path; it is unchanged by any
    time-dependent rephasing v -> e^{i alpha(t)} v.
    """
    return holonomy_from_overlaps(states, derivative_overlaps(states, dt), dt)


def holonomy_from_overlaps(states: np.ndarray, overlaps: np.ndarray, dt: float) -> complex:
    """`holonomy_factor` of a state stack (nodes, dim) from its derivative
    overlaps (nodes,), as `derivative_overlaps` gives them."""
    phase = trapezoid(-overlaps.imag, dt)  # the integrated connection
    return complex(np.vdot(states[0], states[-1]) * np.exp(1j * phase))


def parallel_transport(states: np.ndarray, dt: float) -> np.ndarray:
    """Rephase a state stack so its connection vanishes; the endpoints then
    carry the holonomy."""
    accumulated = cum_trapezoid(state_connection(states, dt), dt)
    return states * np.exp(1j * accumulated)[:, None]


def path_connection(psi: AmplitudePath) -> np.ndarray:
    """<psi(t_j), i d/dt psi(t_j)> (= energy expectation on solutions), real part."""
    return state_connection(psi.states, psi.grid.dt)


def dynamical_phase(psi: AmplitudePath, samples: np.ndarray) -> float:
    """phi_D = -int <psi|H|psi> dt by the trapezoidal rule (unwrapped), from
    `samples`, H on psi's grid nodes (shape (steps + 1, dim, dim))."""
    check_node_samples(samples, psi.grid, psi.dim)
    return float(-trapezoid(state_energies(psi.states, samples), psi.grid.dt))


def geometric_phase_pure(psi: AmplitudePath) -> float:
    """arg{ <psi(0), psi(T)> exp[i int <psi| i d/dt psi> dt] }, gauge invariant."""
    total_phase(psi)  # an undefined endpoint overlap raises
    return float(np.angle(holonomy_factor(psi.states, psi.grid.dt)))


def parallel_transport_amplitude(psi: AmplitudePath) -> AmplitudePath:
    """Rephase the path so its connection vanishes; endpoints carry the holonomy."""
    return AmplitudePath(psi.grid, parallel_transport(psi.states, psi.grid.dt))


def transport_residual(psi: AmplitudePath) -> float:
    """max over interior nodes of |<psi, d psi/dt>| (zero iff parallel transported)."""
    return _interior_max(derivative_overlaps(psi.states, psi.grid.dt))


def _interior_max(overlaps: np.ndarray) -> float:
    return float(np.max(np.abs(overlaps[1:-1])))


def phase_report(psi: AmplitudePath, samples: np.ndarray) -> PhaseReport:
    """Total, dynamical and geometric phase of one path; `samples` as in
    `dynamical_phase`."""
    return report_from_overlaps(psi, derivative_overlaps(psi.states, psi.grid.dt), samples)


def report_from_overlaps(psi: AmplitudePath, overlaps: np.ndarray, samples: np.ndarray) -> PhaseReport:
    """`phase_report` of psi from its derivative overlaps (nodes,), as
    `derivative_overlaps` gives them."""
    angle, magnitude = total_phase(psi)
    dyn = dynamical_phase(psi, samples)
    return PhaseReport(
        total=angle,
        dynamical=dyn,
        geometric=float(wrap_angle(angle - dyn)),
        overlap_magnitude=magnitude,
        transport_residual=_interior_max(overlaps),
    )


def adiabatic_phase(H: HamiltonianTrajectory, grid: TimeGrid, level: int):
    """Adiabatic geometric and dynamical phases of one instantaneous level.

    The instantaneous eigenbasis is made continuous along the grid (nearest
    overlap real positive), closed by spreading the residual endpoint phase
    uniformly, and integrated: geometric = int <v| i d/dt v> dt and
    dynamical = -int E(t) dt.  Requires the level to stay separated from its
    neighbors by at least 1e-6 at every node.
    """
    samples = H.sample(grid.nodes)
    vals, vecs = np.linalg.eigh(samples)  # batched, ascending eigenvalues
    if not 0 <= level < H.dim:
        raise DimensionError(f"level {level} outside 0..{H.dim - 1}")
    gaps = np.diff(vals, axis=1)
    if level > 0 and np.min(gaps[:, level - 1]) < 1e-6:
        raise DegeneracyError(f"level {level} closes on level {level - 1}")
    if level < H.dim - 1 and np.min(gaps[:, level]) < 1e-6:
        raise DegeneracyError(f"level {level} closes on level {level + 1}")

    v = np.stack([fix_eigenvector_phases(vecs[j])[:, level] for j in range(len(vals))])
    for j in range(1, v.shape[0]):
        overlap = np.vdot(v[j - 1], v[j])
        if abs(overlap) < 1e-8:
            raise DegeneracyError("eigenvector continuity lost between grid nodes")
        v[j] *= np.conj(overlap) / abs(overlap)
    # Close the frame: the leftover phase is the discrete holonomy.
    mismatch = np.vdot(v[0], v[-1])
    delta = float(np.angle(mismatch))
    j_frac = np.arange(v.shape[0]) / (v.shape[0] - 1)
    v = v * np.exp(-1j * delta * j_frac)[:, None]
    v[-1] = v[0]

    geometric = float(trapezoid(state_connection(v, grid.dt), grid.dt))
    dyn = float(-trapezoid(vals[:, level], grid.dt))
    return geometric, dyn
