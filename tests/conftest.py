"""Shared builders for the test suite: spin scenarios, random matrices,
`mat_exp`, the Taylor exponential that serves as the independent oracle for
the library's step exponentials and propagators, and `central_diff`, the
finite-difference derivative that the tests hold connections and Schroedinger
residuals against (the library itself differentiates no states).  The paper's
reference constructions, such as the `BasisFrame` that `w_frame` builds, are
in `oracles.py`; pytest's path holds `src` and `tests`, so both import by
module name."""
from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

from phaselab import SpinParams, TimeGrid, propagate, spin_model
from phaselab.evolution import member_paths
from phaselab.exceptions import DimensionError, NumericError
from phaselab.linalg import frobenius_norm
from phaselab.mixed import DensityMatrix, Ensemble
from phaselab.phases import PathStack

from oracles import BasisFrame

# Property tests draw the same examples on every run, so the suite stays
# deterministic.
settings.register_profile("phaselab", derandomize=True, database=None, deadline=None)
settings.load_profile("phaselab")

_TAYLOR_ORDER = 20
_SCALING_THRESHOLD = 0.5


def mat_exp(M) -> np.ndarray:
    """exp(M) by scaling-and-squaring around a fixed-order Taylor kernel.

    Accepts a single (d, d) matrix or a batch (..., d, d); the scaling power
    is chosen from the largest Frobenius norm in the batch so the whole batch
    follows one deterministic code path.  It shares no code with
    `linalg.hermitian_step_exp`, which the tests compare against it.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise DimensionError(f"matrix must be square, got shape {M.shape}")
    if not (np.all(np.isfinite(M.real)) and np.all(np.isfinite(M.imag))):
        raise NumericError("matrix exponential of non-finite entries")
    norm = frobenius_norm(M)
    squarings = 0
    if norm > _SCALING_THRESHOLD:
        squarings = int(np.ceil(np.log2(norm / _SCALING_THRESHOLD)))
    A = M / (2.0**squarings)
    eye = np.broadcast_to(np.eye(A.shape[-1], dtype=complex), A.shape)
    out = eye.copy()
    term = eye.copy()
    for k in range(1, _TAYLOR_ORDER + 1):
        term = term @ A / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


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


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (A + np.conj(A.T))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    Q, R = np.linalg.qr(A)
    return Q * (np.diag(R) / np.abs(np.diag(R)))[None, :]


def random_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = A @ np.conj(A.T)
    return DensityMatrix(rho / np.trace(rho).real)


def density_of(ensemble: Ensemble) -> np.ndarray:
    """rho0 = sum_k w_k |k><k| as a matrix: the initial state of the paper's
    formula, which the library never forms."""
    return np.einsum("k,ka,kb->ab", ensemble.weights, ensemble.states, np.conj(ensemble.states))


def trace_phase(U_T: np.ndarray, rho0: np.ndarray) -> tuple[float, float]:
    """(arg, |.|) of Tr[U(T) rho0], the paper's fringe shift and visibility:
    the independent reference for `mixed.mixed_total_phase`."""
    trace = np.trace(U_T @ rho0)
    return float(np.angle(trace)), float(abs(trace))


def build_spin_case(
    mu_b: float,
    omega: float,
    theta: float,
    big_theta: float = np.pi / 4,
    steps: int = 20000,
) -> SimpleNamespace:
    """Propagate one spin scenario over a period and package the pieces."""
    p = SpinParams(mu_b, omega, theta, big_theta)
    grid = TimeGrid(0.0, p.period, steps)
    H = spin_model.hamiltonian(p)
    U = propagate(H, grid)
    weights = np.array([np.cos(big_theta / 2) ** 2, np.sin(big_theta / 2) ** 2])
    ensemble = Ensemble(weights=weights, states=np.array(spin_model.w_basis(p, 0.0)))
    members = PathStack(grid, member_paths(U, ensemble.states))  # psi_k = U|k>, "+" then "-"
    return SimpleNamespace(
        p=p,
        grid=grid,
        H=H,
        U=U,
        # each branch alone, as the one-path stack (a view of its member column)
        paths={b: PathStack(grid, members.states[..., k:k + 1]) for k, b in enumerate("+-")},
        weights=weights,
        ensemble=ensemble,
        members=members,
    )


def w_frame(p: SpinParams, grid: TimeGrid) -> BasisFrame:
    """BasisFrame of the closed-form w vectors sampled on the grid."""
    w_plus, w_minus = spin_model.w_basis(p, grid.nodes)
    return BasisFrame(grid, np.stack([w_plus, w_minus], axis=-1))


@pytest.fixture(scope="session")
def generic_case():
    """Generic parameters: alpha away from 0 and pi/2, nonzero dynamics."""
    return build_spin_case(1.0, 1.0, np.pi / 3)


@pytest.fixture(scope="session")
def special_case():
    """The 2 mu_B + omega cos(theta) = 0 point: alpha = pi/2, pure transport."""
    return build_spin_case(1.0, 4.0, 2.0 * np.pi / 3, big_theta=np.pi / 3)
