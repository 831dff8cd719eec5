"""Closed-form spin model: internal identities and frozen golden values."""
import numpy as np
import pytest

from phaselab import SpinParams, TimeGrid, spin_model
from phaselab.linalg import hermiticity_defect
from phaselab.numerics import wrap_angle

from conftest import central_diff

GENERIC = SpinParams(1.0, 1.0, np.pi / 3, big_theta=np.pi / 4)
# 2 mu_B + omega cos(theta) = 0  ->  alpha = pi/2, theta - alpha = pi/6
SPECIAL = SpinParams(1.0, 4.0, 2.0 * np.pi / 3, big_theta=np.pi / 2)


def sweep_params(count=100, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield SpinParams(
            mu_b=rng.uniform(0.1, 10.0),
            omega=rng.uniform(0.1, 10.0),
            theta=rng.uniform(1e-3, np.pi - 1e-3),
            big_theta=rng.uniform(0.0, np.pi),
        )


def test_hamiltonian_structure():
    H = spin_model.hamiltonian(GENERIC)
    for t in (0.0, 0.37, 2.0):
        M = H.evaluate(t)
        assert np.max(np.abs(M - np.conj(M.T))) < 1e-15
        assert abs(np.trace(M)) < 1e-15
        vals = np.linalg.eigvalsh(M)
        assert np.allclose(vals, [-GENERIC.mu_b, GENERIC.mu_b])
    # a batch of times: the entries written directly against -mu_B (B_hat . sigma)
    times = np.linspace(-3.0, 11.0, 57)
    samples = H.evaluate(times)
    phi = GENERIC.omega * times
    b_hat = (np.sin(GENERIC.theta) * np.cos(phi), np.sin(GENERIC.theta) * np.sin(phi),
             np.full_like(phi, np.cos(GENERIC.theta)))
    expected = -GENERIC.mu_b * sum(
        b[:, None, None] * sigma
        for b, sigma in zip(b_hat, (spin_model.SIGMA_X, spin_model.SIGMA_Y, spin_model.SIGMA_Z))
    )
    assert samples.shape == (57, 2, 2) and H.evaluate(0.37).shape == (2, 2)
    assert np.max(np.abs(samples - expected)) < 1e-15
    assert hermiticity_defect(samples) == 0.0
    assert np.all(np.diagonal(samples, axis1=1, axis2=2).imag == 0.0)


def test_hamiltonian_limits():
    flat = SpinParams(0.9, 1.0, 0.0)
    H = spin_model.hamiltonian(flat)
    assert np.allclose(H.evaluate(0.0), -0.9 * np.diag([1.0, -1.0]))
    assert np.allclose(H.evaluate(1.3), H.evaluate(0.0))
    transverse = SpinParams(0.9, 1.0, np.pi / 2)
    expected = -0.9 * np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(spin_model.hamiltonian(transverse).evaluate(0.0), expected)


def test_alpha_limits_and_identity():
    assert spin_model.alpha_of(SpinParams(1.0, 1e-12, 1.0)) < 1e-12
    assert SPECIAL.alpha == pytest.approx(np.pi / 2, abs=1e-15)
    assert SPECIAL.theta - SPECIAL.alpha == pytest.approx(np.pi / 6, abs=1e-12)
    # 2 mu_B sin(alpha) = omega sin(theta - alpha): the defining identity
    assert 2.0 * 1.0 * np.sin(SPECIAL.alpha) == pytest.approx(
        4.0 * np.sin(np.pi / 6), abs=1e-12
    )
    for p in sweep_params():
        lhs = 2.0 * p.mu_b * np.sin(p.alpha)
        rhs = p.omega * np.sin(p.theta - p.alpha)
        assert abs(lhs - rhs) < 1e-12


def test_w_basis_theta_zero():
    p = SpinParams(1.0, 2.0, 0.0)  # alpha = theta = 0
    assert p.alpha == 0.0
    w_plus, _ = spin_model.w_basis(p, 0.7)
    assert np.allclose(w_plus, [np.exp(-1j * 2.0 * 0.7), 0.0])


def test_w_basis_orthonormal_and_expectations():
    for p in list(sweep_params(10)):
        t = 0.53
        w_plus, w_minus = spin_model.w_basis(p, t)
        gram = np.array(
            [
                [np.vdot(w_plus, w_plus), np.vdot(w_plus, w_minus)],
                [np.vdot(w_minus, w_plus), np.vdot(w_minus, w_minus)],
            ]
        )
        assert np.max(np.abs(gram - np.eye(2))) < 1e-14
        H_t = spin_model.hamiltonian(p).evaluate(t)
        for w, branch in ((w_plus, "+"), (w_minus, "-")):
            energy = np.vdot(w, H_t @ w).real
            assert energy == pytest.approx(spin_model.energy_expectation(p, branch), abs=1e-12)


def test_w_basis_connection_matches_closed_form():
    p = GENERIC
    grid = TimeGrid(0.0, p.period, 4000)
    w_plus, w_minus = spin_model.w_basis(p, grid.nodes)
    for w, branch in ((w_plus, "+"), (w_minus, "-")):
        dw = central_diff(w, grid.dt)
        conn = np.einsum("ja,ja->j", np.conj(w), 1j * dw).real
        expected = spin_model.connection_value(p, branch)
        assert np.max(np.abs(conn - expected)) < 1e-6


def test_exact_amplitudes_initial_condition():
    for p in (GENERIC, SPECIAL):
        psi_plus, psi_minus = spin_model.exact_amplitudes(p, 0.0)
        w_plus, w_minus = spin_model.w_basis(p, 0.0)
        assert np.allclose(psi_plus, w_plus)
        assert np.allclose(psi_minus, w_minus)


def test_exact_amplitudes_solve_schroedinger():
    p = GENERIC
    grid = TimeGrid(0.0, p.period, 200000)
    psi_plus, _ = spin_model.exact_amplitudes(p, grid.nodes)
    H = spin_model.hamiltonian(p).sample(grid.nodes)
    dpsi = central_diff(psi_plus, grid.dt)
    residual = 1j * dpsi - np.einsum("jab,jb->ja", H, psi_plus)
    assert np.max(np.linalg.norm(residual[1:-1], axis=1)) < 1e-8


def test_exact_amplitudes_periodic_up_to_phase():
    for p in list(sweep_params(20)):
        psi0_plus, psi0_minus = spin_model.exact_amplitudes(p, 0.0)
        psiT_plus, psiT_minus = spin_model.exact_amplitudes(p, p.period)
        assert abs(abs(np.vdot(psi0_plus, psiT_plus)) - 1.0) < 1e-10
        assert abs(abs(np.vdot(psi0_minus, psiT_minus)) - 1.0) < 1e-10


def test_total_phase_of_exact_amplitudes():
    p = GENERIC
    psi0, _ = spin_model.exact_amplitudes(p, 0.0)
    psiT, _ = spin_model.exact_amplitudes(p, p.period)
    expected = wrap_angle(
        p.mu_b * np.cos(p.alpha) * p.period
        + np.pi * (1.0 + np.cos(p.theta - p.alpha))
    )
    assert np.angle(np.vdot(psi0, psiT)) == pytest.approx(float(expected), abs=1e-12)


def test_geometric_phase_goldens():
    # theta = 0 forces alpha = 0, so branch '+' carries no geometric phase
    assert spin_model.geometric_phase(SpinParams(1.0, 1.0, 0.0), "+") == 0.0
    # theta - alpha = pi/6: branch '+' gives wrap(-pi (1 - sqrt(3)/2)) < 0
    value = spin_model.geometric_phase(SpinParams(1.0, 4.0, 2.0 * np.pi / 3), "+")
    assert value == pytest.approx(-np.pi * (1.0 - np.sqrt(3.0) / 2.0), abs=1e-12)
    assert value == pytest.approx(-0.4208936072384666, abs=1e-12)
    minus = spin_model.geometric_phase(SpinParams(1.0, 4.0, 2.0 * np.pi / 3), "-")
    assert minus == pytest.approx(+0.4208936072384666, abs=1e-12)


def test_geometric_phase_quarter_turn_both_branches():
    # theta - alpha = pi/2 at mu_B = 1, omega = 1, theta = 2 pi / 3
    p = SpinParams(1.0, 1.0, 2.0 * np.pi / 3)
    assert p.theta - p.alpha == pytest.approx(np.pi / 2, abs=1e-12)
    for branch in "+-":
        value = spin_model.geometric_phase(p, branch)
        assert abs(np.exp(1j * value) - np.exp(-1j * np.pi)) < 1e-12


def test_solid_angle_values():
    assert spin_model.solid_angle(SpinParams(1.0, 1.0, 0.0)) == 0.0
    p_quarter = SpinParams(1.0, 1.0, 2.0 * np.pi / 3)  # theta - alpha = pi/2
    assert spin_model.solid_angle(p_quarter) == pytest.approx(2.0 * np.pi, abs=1e-12)
    # theta - alpha = pi/3 -> hemisphere/2: pick it out of the special family
    p_third = SpinParams(1.0, 4.0 / np.sqrt(3.0), np.pi / 2 + np.pi / 3)
    assert p_third.theta - p_third.alpha == pytest.approx(np.pi / 3, abs=1e-12)
    assert spin_model.solid_angle(p_third) == pytest.approx(np.pi, abs=1e-10)


def test_solid_angle_matches_bloch_polygon():
    for p in (GENERIC, SPECIAL, SpinParams(2.0, 0.7, 2.6)):
        grid = TimeGrid(0.0, p.period, 4000)
        w_plus, _ = spin_model.w_basis(p, grid.nodes)
        path = spin_model.bloch_vector(w_plus)
        area = spin_model.spherical_polygon_area(path)
        assert abs(area - spin_model.solid_angle(p)) < 1e-4


def test_bloch_vector_values():
    assert np.allclose(spin_model.bloch_vector(np.array([1.0, 0.0])), [0, 0, 1])
    p = GENERIC
    t = 0.41
    w_plus, w_minus = spin_model.w_basis(p, t)
    d = p.theta - p.alpha
    expected = np.array(
        [np.sin(d) * np.cos(p.omega * t), np.sin(d) * np.sin(p.omega * t), np.cos(d)]
    )
    assert np.allclose(spin_model.bloch_vector(w_plus), expected, atol=1e-12)
    assert np.allclose(
        spin_model.bloch_vector(w_minus), -spin_model.bloch_vector(w_plus), atol=1e-12
    )


def test_interference_value_against_direct_norm():
    for p in list(sweep_params(20)):
        psi0, _ = spin_model.exact_amplitudes(p, 0.0)
        psiT, _ = spin_model.exact_amplitudes(p, p.period)
        direct = 0.5 * np.linalg.norm(psiT + psi0) ** 2
        assert abs(direct - spin_model.interference_value(p)) < 1e-10


def test_interference_special_values():
    # alpha = pi/2 kills the dynamical term
    c = np.cos(SPECIAL.theta - SPECIAL.alpha)
    expected = 1.0 + np.cos(np.pi * (1.0 - c))
    assert spin_model.interference_value(SPECIAL) == pytest.approx(expected, abs=1e-12)
    # theta = alpha = 0: no solid angle, pure dynamical fringe
    p0 = SpinParams(0.8, 1.0, 0.0)
    assert spin_model.interference_value(p0) == pytest.approx(
        1.0 + np.cos(0.8 * p0.period), abs=1e-12
    )


def test_tilde_basis_reduces_to_w_basis():
    p = SpinParams(1.0, 1.0, np.pi / 3, big_theta=0.0)
    t = 0.9
    tilde_plus, tilde_minus = spin_model.tilde_basis(p, t)
    w_plus, w_minus = spin_model.w_basis(p, t)
    assert np.allclose(tilde_plus, w_plus)
    assert np.allclose(tilde_minus, w_minus)


def test_tilde_basis_orthonormal_and_expectations():
    p = GENERIC
    grid = TimeGrid(0.0, p.period, 80000)
    tilde_plus, tilde_minus = spin_model.tilde_basis(p, grid.nodes)
    gram = np.einsum("ja,ja->j", np.conj(tilde_plus), tilde_minus)
    norms = np.linalg.norm(tilde_plus, axis=1)
    assert np.max(np.abs(gram)) < 1e-12
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    H = spin_model.hamiltonian(p).sample(grid.nodes)
    for tilde, branch in ((tilde_plus, "+"), (tilde_minus, "-")):
        energy = np.einsum("ja,jab,jb->j", np.conj(tilde), H, tilde).real
        assert np.max(
            np.abs(energy - spin_model.tilde_energy_expectation(p, branch, grid.nodes))
        ) < 1e-10
        conn = np.einsum(
            "ja,ja->j", np.conj(tilde), 1j * central_diff(tilde, grid.dt)
        ).real
        expected = spin_model.tilde_connection(p, branch, grid.nodes)
        assert np.max(np.abs(conn[1:-1] - expected[1:-1])) < 1e-8


def test_superpositions_factor_through_tilde_basis():
    p = GENERIC
    for t in (0.0, 0.3, 1.9):
        psi_plus, psi_minus = spin_model.exact_amplitudes(p, t)
        c, s = np.cos(p.big_theta / 2), np.sin(p.big_theta / 2)
        upper = c * psi_plus + s * psi_minus
        lower = -s * psi_plus + c * psi_minus
        tilde_plus, tilde_minus = spin_model.tilde_basis(p, t)
        e_plus = spin_model.energy_expectation(p, "+") - spin_model.connection_value(p, "+")
        e_minus = spin_model.energy_expectation(p, "-") - spin_model.connection_value(p, "-")
        assert np.max(np.abs(upper - tilde_plus * np.exp(-1j * e_plus * t))) < 1e-10
        assert np.max(np.abs(lower - tilde_minus * np.exp(-1j * e_minus * t))) < 1e-10


def test_tilde_basis_periodicity_is_commensurate():
    # theta = pi/2 gives beta_rate = sqrt(4 mu_B^2 + omega^2); mu_B = sqrt(3)/2
    # makes that exactly 2 omega, so the tilde basis closes after one period.
    commensurate = SpinParams(np.sqrt(3.0) / 2.0, 1.0, np.pi / 2, big_theta=0.7)
    assert commensurate.beta_rate == pytest.approx(2.0, abs=1e-12)
    t0_plus, t0_minus = spin_model.tilde_basis(commensurate, 0.0)
    tT_plus, tT_minus = spin_model.tilde_basis(commensurate, commensurate.period)
    assert np.max(np.abs(tT_plus - t0_plus)) < 1e-10
    assert np.max(np.abs(tT_minus - t0_minus)) < 1e-10

    generic = SpinParams(1.0, 1.0, np.pi / 2, big_theta=0.7)  # beta_rate = sqrt(5)
    g0, _ = spin_model.tilde_basis(generic, 0.0)
    gT, _ = spin_model.tilde_basis(generic, generic.period)
    assert np.max(np.abs(gT - g0)) > 1e-2


def test_mixed_trace_reductions():
    pure = SpinParams(1.0, 1.0, np.pi / 3, big_theta=0.0)
    psi0, _ = spin_model.exact_amplitudes(pure, 0.0)
    psiT, _ = spin_model.exact_amplitudes(pure, pure.period)
    assert spin_model.mixed_trace(pure) == pytest.approx(np.vdot(psi0, psiT), abs=1e-12)


def test_mixed_trace_special_case_golden():
    # special point: alpha = pi/2, equal weights, c = sqrt(3)/2:
    # trace = -cos(pi c); frozen after confirming against the propagator.
    c = np.cos(np.pi / 6)
    trace = spin_model.mixed_trace(SPECIAL)
    assert trace.real == pytest.approx(-np.cos(np.pi * c), abs=1e-12)
    assert trace.real == pytest.approx(0.9127241981021779, abs=1e-12)
    assert abs(trace.imag) < 1e-12
    weights = (np.cos(SPECIAL.big_theta / 2) ** 2, np.sin(SPECIAL.big_theta / 2) ** 2)
    eq_327 = weights[0] * np.exp(-1j * np.pi * (1 + c)) + weights[1] * np.exp(
        -1j * np.pi * (1 - c)
    )
    assert abs(trace - eq_327) < 1e-12
