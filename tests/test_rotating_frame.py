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

from phaselab import HamiltonianTrajectory, TimeGrid, cli, propagate
from phaselab.evolution import member_paths
from phaselab.mixed import Ensemble, gauge_campaign, mixed_total_phase
from phaselab.numerics import wrap_angle
from phaselab.phases import PathStack

from conftest import density_of, random_hermitian, random_unitary, trace_phase


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
    trace = np.exp(1j * family.kappa) * np.sum(weights * np.exp(-1j * family.lam * family.period))
    gamma_total, visibility = mixed_total_phase(weights, family.chi.T, members)
    assert abs(wrap_angle(gamma_total - np.angle(trace))) <= 1e-5
    assert abs(visibility - abs(trace)) <= 1e-5
    # the same numbers as the paper's Tr[U(T) rho0] on the propagator itself
    rho0 = density_of(Ensemble(weights, family.chi.T))
    gamma_ref, visibility_ref = trace_phase(U.matrices[-1], rho0)
    assert abs(wrap_angle(gamma_total - gamma_ref)) <= 1e-12
    assert abs(visibility - visibility_ref) <= 1e-12


@pytest.mark.parametrize("name", sorted(CASES))
def test_gauge_campaign_holds_on_the_cyclic_basis(name):
    # the verify-gauge campaign at d = 3 and 4: its invariants and predicted
    # shifts to rounding, and its base observables against the closed forms
    family = CASES[name]()
    grid = TimeGrid(0.0, family.period, 4000)
    d = len(family.lam)
    weights = np.arange(d, 0, -1) / (d * (d + 1) / 2)
    U = propagate(family.H, grid)
    members = PathStack(grid, member_paths(U, family.chi.T))
    values = gauge_campaign(weights, members, U.samples, members.step_energies(U.samples),
                            np.random.default_rng(9), 10, 0.1)
    for key in ("max_gamma_total_deviation", "max_visibility_deviation", "max_holonomy_deviation",
                "max_singh_deviation", "max_total_phase_prediction_mismatch",
                "max_dynamical_phase_prediction_mismatch"):
        assert values[key] <= 1e-12, key
    assert values["max_naive_total_phase_shift"] > 1e-3  # the ramped gauges do move gamma_T
    trace = np.exp(1j * family.kappa) * np.sum(weights * np.exp(-1j * family.lam * family.period))
    singh = np.angle(np.sum(weights * np.exp(1j * family.geometric)))
    assert abs(wrap_angle(values["gamma_total"] - np.angle(trace))) <= 1e-5
    assert abs(values["visibility"] - abs(trace)) <= 1e-5
    assert abs(wrap_angle(values["singh_phase"] - singh)) <= 1e-5


def closed_member_phases(family, t_end: float, kets: np.ndarray) -> np.ndarray:
    """(phi_t, |<k|U(T)|k>|, phi_d) of each ket's path psi_k = U|k> over [0, t_end].

    In the rotating frame psi_k = e^{-iKt} phi_k with phi_k = e^{-i(H0 - K)t}|k>,
    and <psi_k|H(t)|psi_k> = <phi_k|H0|phi_k>: with c = chi^dagger |k> and
    G = chi^dagger H0 chi, phi_d = -int_0^T sum_nm conj(c_n) c_m G_nm
    e^{i (lam_n - lam_m) t} dt, each exponential integrated exactly."""
    H0 = family.H.evaluate(np.zeros(1))[0]
    G = np.conj(family.chi.T) @ H0 @ family.chi
    delta = family.lam[:, None] - family.lam[None, :]
    off = delta != 0.0
    integral = np.full(delta.shape, t_end, dtype=complex)
    integral[off] = (np.exp(1j * delta[off] * t_end) - 1.0) / (1j * delta[off])
    U_T = family.exact(np.array([t_end]))[0]
    rows = []
    for ket in kets:
        c = np.conj(family.chi.T) @ ket
        overlap = np.vdot(ket, U_T @ ket)
        phi_d = -np.sum(np.conj(c)[:, None] * c[None, :] * G * integral).real
        rows.append((np.angle(overlap), abs(overlap), phi_d))
    return np.array(rows)


def test_simulate_reads_the_closed_phases_of_non_cyclic_members_over_100_periods():
    # H0 = D + 0.05 h at d = 3: a static spread D that commutes with K = omega J_z,
    # and a weak random h, so the propagator's own error stays small while the
    # members, random superpositions of D's eigenstates, have a large third
    # energy cumulant.  Over 100 periods (T = 157) at 80000 steps the phases
    # read off the step energies match the closed forms to 1e-5 (2.5e-6 for
    # phi_g); the Bargmann polygon through the nodes adds T dt^2 kappa_3 / 6,
    # and read that way phi_g is off by 4e-4
    family = rotating_family(np.diag([2.0, -0.5, -1.5]) + 0.05 * random_h0(3), omega=4.0)
    t_end, steps = 100 * family.period, 80000
    kets = random_unitary(np.random.default_rng(3), 3).T.copy()
    weights = np.array([0.5, 0.3, 0.2])
    grid = TimeGrid(0.0, t_end, steps)
    sc = cli.Scenario(cli.ScenarioConfig(steps=steps), family.H, grid, Ensemble(weights, kets),
                      None)
    obs = cli.observables(sc)
    phi_t, overlap, phi_d = closed_member_phases(family, t_end, kets).T
    geometric = wrap_angle(phi_t - phi_d)
    assert np.max(np.abs(wrap_angle(obs.phi_g - geometric))) <= 1e-5
    assert abs(obs.mixed_dynamical - weights @ phi_d) <= 1e-5
    singh = np.angle(np.sum(weights * overlap * np.exp(1j * geometric)))
    assert abs(wrap_angle(obs.singh_phase - singh)) <= 1e-5
