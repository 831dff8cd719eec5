"""The rotating-frame family: an exact oracle for the propagator and the cyclic
phases at d = 3 and d = 4.

H(t) = e^{-iKt} H0 e^{iKt} for constant Hermitian H0 and K is static in the
rotating frame, so U(t) = e^{-iKt} e^{-i(H0 - K)t} exactly.  With K = omega J_z
and T = 2 pi / omega, e^{-iKT} = e^{i kappa} I (kappa = 0 for integer spin, pi
for half-integer), so each eigenvector chi of H0 - K, eigenvalue lambda, is
cyclic: U(T) chi = e^{i (kappa - lambda T)} chi, with dynamical phase
-T <chi|H0|chi> and geometric phase wrap(T <chi|K|chi> + kappa).  The spin
model is the case d = 2.
"""
from types import SimpleNamespace

import numpy as np
import pytest

from phaselab import HamiltonianTrajectory, TimeGrid, propagate
from phaselab.evolution import member_paths
from phaselab.mixed import Ensemble, density_from_ensemble, mixed_total_phase
from phaselab.numerics import wrap_angle
from phaselab.phases import PathStack

from conftest import random_hermitian


def spin_matrices(d: int):
    """J_x and the diagonal of J_z for spin j = (d - 1) / 2, basis m = j, j - 1, ..., -j."""
    j = 0.5 * (d - 1)
    m = j - np.arange(d)
    raising = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), 1)  # <m + 1| J_+ |m>
    return 0.5 * (raising + raising.T).astype(complex), m


def rotating_family(H0: np.ndarray, omega: float) -> SimpleNamespace:
    """H(t), the exact U(t), the cyclic states chi (columns) and their phases for K = omega J_z."""
    d = H0.shape[0]
    _, m = spin_matrices(d)
    k = omega * m  # K = diag(k)
    lam, chi = np.linalg.eigh(H0 - np.diag(k))
    period = 2.0 * np.pi / omega
    kappa = 0.0 if d % 2 else np.pi

    def batch(times):
        rot = np.exp(-1j * np.multiply.outer(np.asarray(times, dtype=float), k))  # e^{-iKt}
        return rot[..., :, None] * H0 * np.conj(rot)[..., None, :]

    def exact(times):
        t = np.asarray(times, dtype=float)[:, None]
        static = np.einsum("ab,jb,cb->jac", chi, np.exp(-1j * lam * t), np.conj(chi))
        return np.exp(-1j * k * t)[:, :, None] * static

    geometric = wrap_angle(period * np.einsum("ak,a,ak->k", np.conj(chi), k, chi).real + kappa)
    return SimpleNamespace(H=HamiltonianTrajectory(d, evaluate=batch), exact=exact,
                           chi=chi, lam=lam, kappa=kappa, period=period, geometric=geometric)


def random_h0(d: int) -> np.ndarray:
    return random_hermitian(np.random.default_rng(7), d)


def spin_h0(d: int, mu_b: float = 1.3, theta: float = 1.0) -> np.ndarray:
    jx, m = spin_matrices(d)
    return mu_b * (np.sin(theta) * jx + np.cos(theta) * np.diag(m))


CASES = {
    "d3-random": lambda: rotating_family(random_h0(3), omega=0.7),
    "spin-3/2": lambda: rotating_family(spin_h0(4), omega=0.8),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_propagator_converges_at_second_order_to_the_exact_solution(name):
    # criterion 1's dt-halving ratio, at d = 3 and 4, on every node
    family = CASES[name]()
    errors = []
    for steps in (10000, 20000):
        grid = TimeGrid(0.0, family.period, steps)
        U = propagate(family.H, grid)
        errors.append(float(np.max(np.abs(U.matrices - family.exact(grid.nodes)))))
    assert errors[1] <= 1e-6
    assert 3.2 < errors[0] / errors[1] < 4.8, errors


@pytest.mark.parametrize("name", sorted(CASES))
def test_cyclic_states_carry_the_closed_form_phases(name):
    # the holonomy of each cyclic state, and Tr[U(T) rho0] for rho0 diagonal in
    # them, against the closed forms to criterion 2's 1e-5
    family = CASES[name]()
    grid = TimeGrid(0.0, family.period, 20000)
    U = propagate(family.H, grid)
    members = PathStack(grid, member_paths(U, family.chi.T))
    geometric = np.angle(members.holonomies)
    assert np.max(np.abs(wrap_angle(geometric - family.geometric))) <= 1e-5
    d = len(family.lam)
    weights = np.arange(d, 0, -1) / (d * (d + 1) / 2)
    rho0 = density_from_ensemble(Ensemble(weights, family.chi.T))
    trace = np.exp(1j * family.kappa) * np.sum(weights * np.exp(-1j * family.lam * family.period))
    gamma_total, visibility = mixed_total_phase(rho0, U.final)
    assert abs(wrap_angle(gamma_total - np.angle(trace))) <= 1e-5
    assert abs(visibility - abs(trace)) <= 1e-5
