"""The paper's reference constructions, which the tests hold the package against
and no command runs.

From the rotating-field spin-1/2: the Pauli matrices and the Bloch vector, the
signed solid angle of a closed Bloch path (criterion 2), the exact amplitudes
as one path stack, and the mixing-angle superposition basis with its energy
and connection.  From the hidden-gauge picture: the phase-stripped
`BasisFrame` of a set of amplitudes and the only raiser of
`OrthogonalityCrossingError`, the amplitudes rebuilt from a frame, the
effective Hamiltonian on a frame (criteria 4 and 7), and the
universal-Hamiltonian check on a gauge.  The package reads every geometric
phase off the member paths themselves (`phases.PathStack`, `gauge.frame_trace`,
`mixed.gauge_campaign`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from phaselab.evolution import TimeGrid
from phaselab.exceptions import ContractError, DimensionError, UndefinedPhaseError
from phaselab.gauge import GaugeFunction
from phaselab.phases import PathStack, check_node_samples
from phaselab.spin_model import SpinParams, _branch_sign, exact_amplitudes, w_basis

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

FRAME_ORTHO_TOL = 1e-8
OVERLAP_FLOOR = 1e-10


class OrthogonalityCrossingError(UndefinedPhaseError):
    """An amplitude became orthogonal to its initial state, so its phase is undefined."""


def amplitude_paths(p: SpinParams, grid: TimeGrid) -> PathStack:
    """Exact amplitudes sampled on a grid as one stack, "+" then "-"."""
    return PathStack(grid, np.stack(exact_amplitudes(p, grid.nodes), axis=-1))


def bloch_vector(v) -> np.ndarray:
    """Expectation values of the Pauli vector for a normalized 2-component state."""
    v = np.asarray(v, dtype=complex)
    if v.shape[-1] != 2:
        raise DimensionError("bloch_vector requires 2-component states")
    conj = np.conj(v)
    return np.stack(
        [
            np.real(np.einsum("...a,ab,...b->...", conj, sigma, v))
            for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z)
        ],
        axis=-1,
    )


def spherical_polygon_area(points: np.ndarray) -> float:
    """Signed solid angle enclosed by a closed path of unit vectors.

    The path is fanned into triangles from the north pole; each triangle
    contributes its signed solid angle via the van Oosterom-Strackee formula.
    Counterclockwise circulation around +z (viewed from outside) is positive.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise DimensionError("expected an (M, 3) array of unit vectors")
    if not np.allclose(pts[0], pts[-1], atol=1e-9):
        pts = np.vstack([pts, pts[0]])
    apex = np.array([0.0, 0.0, 1.0])
    a, b = pts[:-1], pts[1:]
    triple = np.einsum("ij,ij->i", a, np.cross(b, apex))
    denom = 1.0 + a @ apex + b @ apex + np.einsum("ij,ij->i", a, b)
    return float(np.sum(2.0 * np.arctan2(triple, denom)))


def tilde_basis(p: SpinParams, t):
    """Mixing-angle superposition basis; periodic only at commensurate rates."""
    t = np.asarray(t, dtype=float)
    w_plus, w_minus = w_basis(p, t)
    c, s = np.cos(0.5 * p.big_theta), np.sin(0.5 * p.big_theta)
    beta_phase = np.exp(-1j * p.beta_rate * t)[..., None]
    tilde_plus = c * w_plus + s * w_minus * beta_phase
    tilde_minus = -s * w_plus / beta_phase + c * w_minus
    return tilde_plus, tilde_minus


def tilde_energy_expectation(p: SpinParams, branch: str, t):
    """<w~ | H | w~> along the tilde basis (time dependent through beta)."""
    sign = _branch_sign(branch)
    beta = p.beta_rate * np.asarray(t, dtype=float)
    a, big = p.alpha, p.big_theta
    return -sign * p.mu_b * (np.cos(a) * np.cos(big) - np.sin(a) * np.sin(big) * np.cos(beta))


def tilde_connection(p: SpinParams, branch: str, t):
    """<w~ | i d/dt w~> along the tilde basis."""
    sign = _branch_sign(branch)
    beta = p.beta_rate * np.asarray(t, dtype=float)
    a, big = p.alpha, p.big_theta
    term = sign * p.mu_b * (np.cos(a) * (1.0 - np.cos(big)) + np.sin(a) * np.sin(big) * np.cos(beta))
    return term + 0.5 * p.omega * (1.0 + sign * np.cos(p.theta - p.alpha))


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


def amplitudes_from_frame(frame: PathStack, samples: np.ndarray) -> PathStack:
    """Rebuild Schroedinger amplitudes, one stack in member order, from a frame
    whose effective Hamiltonian is diagonal:
    psi_k(t) = v_k(t) exp{-i int (<v_k|H|v_k> - <v_k|i d/dt v_k>) dt}, with
    `samples` the Hamiltonian on the frame's grid midpoints: step j adds its
    step energy times dt (`PathStack.step_energies`) and its step phase
    arg<v_k(t_j), v_k(t_{j+1})> to the integral.

    Under a frame gauge transform the output changes only by the constant
    phase e^{i alpha_k(0)} per member, to rounding: the step energies do not
    move, and the step phases telescope.
    """
    accumulated = np.zeros((frame.grid.steps + 1, frame.size))
    increments = frame.grid.dt * frame.step_energies(samples) + frame.step_phases  # (L, steps)
    np.cumsum(increments.T, axis=0, out=accumulated[1:])
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
