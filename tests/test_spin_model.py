"""Closed-form spin model: internal identities and frozen golden values."""
import numpy as np
import pytest

from phaselab import SpinParams, TimeGrid, spin_model
from phaselab.linalg import hermiticity_defect
from phaselab.numerics import wrap_angle

import oracles
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
        for b, sigma in zip(b_hat, (oracles.SIGMA_X, oracles.SIGMA_Y, oracles.SIGMA_Z))
    )
    assert samples.shape == (57, 2, 2) and H.evaluate(0.37).shape == (2, 2)
    assert np.max(np.abs(samples - expected)) < 1e-15
    assert hermiticity_defect(samples) == 0.0
    assert np.all(np.diagonal(samples, axis1=1, axis2=2).imag == 0.0)


def test_hamiltonian_samples_are_the_entry_formula_bitwise():
    # the entries as the docstring writes them, bit for bit, at the nodes and
    # midpoints of a grid, whatever storage is behind the (n, 2, 2) view; a
    # scalar time still gives one 2x2 matrix
    p = GENERIC
    H = spin_model.hamiltonian(p)
    grid = TimeGrid(0.0, p.period, 400)
    for times in (grid.nodes, grid.midpoints):
        phi = p.omega * times
        re = -p.mu_b * (np.sin(p.theta) * np.cos(phi))
        im = -p.mu_b * (np.sin(p.theta) * np.sin(phi))
        samples = H.sample(times)
        assert samples.shape == (len(times), 2, 2)
        for entry, real, imag in (((0, 0), -p.mu_b * np.cos(p.theta), 0.0), ((1, 0), re, im),
                                  ((0, 1), re, -im), ((1, 1), p.mu_b * np.cos(p.theta), 0.0)):
            got = samples[(slice(None), *entry)]
            assert got.real.tobytes() == np.broadcast_to(real, times.shape).tobytes()
            assert got.imag.tobytes() == np.broadcast_to(imag, times.shape).tobytes()
    one = H.evaluate(grid.midpoints[7])
    assert one.shape == (2, 2)
    assert np.max(np.abs(one - samples[7])) <= 1e-15


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
        path = oracles.bloch_vector(w_plus)
        area = oracles.spherical_polygon_area(path)
        assert abs(area - spin_model.solid_angle(p)) < 1e-4


def test_bloch_vector_values():
    assert np.allclose(oracles.bloch_vector(np.array([1.0, 0.0])), [0, 0, 1])
    p = GENERIC
    t = 0.41
    w_plus, w_minus = spin_model.w_basis(p, t)
    d = p.theta - p.alpha
    expected = np.array(
        [np.sin(d) * np.cos(p.omega * t), np.sin(d) * np.sin(p.omega * t), np.cos(d)]
    )
    assert np.allclose(oracles.bloch_vector(w_plus), expected, atol=1e-12)
    assert np.allclose(
        oracles.bloch_vector(w_minus), -oracles.bloch_vector(w_plus), atol=1e-12
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
    tilde_plus, tilde_minus = oracles.tilde_basis(p, t)
    w_plus, w_minus = spin_model.w_basis(p, t)
    assert np.allclose(tilde_plus, w_plus)
    assert np.allclose(tilde_minus, w_minus)


def test_tilde_basis_orthonormal_and_expectations():
    p = GENERIC
    grid = TimeGrid(0.0, p.period, 80000)
    tilde_plus, tilde_minus = oracles.tilde_basis(p, grid.nodes)
    gram = np.einsum("ja,ja->j", np.conj(tilde_plus), tilde_minus)
    norms = np.linalg.norm(tilde_plus, axis=1)
    assert np.max(np.abs(gram)) < 1e-12
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    H = spin_model.hamiltonian(p).sample(grid.nodes)
    for tilde, branch in ((tilde_plus, "+"), (tilde_minus, "-")):
        energy = np.einsum("ja,jab,jb->j", np.conj(tilde), H, tilde).real
        assert np.max(
            np.abs(energy - oracles.tilde_energy_expectation(p, branch, grid.nodes))
        ) < 1e-10
        conn = np.einsum(
            "ja,ja->j", np.conj(tilde), 1j * central_diff(tilde, grid.dt)
        ).real
        expected = oracles.tilde_connection(p, branch, grid.nodes)
        assert np.max(np.abs(conn[1:-1] - expected[1:-1])) < 1e-8


def test_superpositions_factor_through_tilde_basis():
    p = GENERIC
    for t in (0.0, 0.3, 1.9):
        psi_plus, psi_minus = spin_model.exact_amplitudes(p, t)
        c, s = np.cos(p.big_theta / 2), np.sin(p.big_theta / 2)
        upper = c * psi_plus + s * psi_minus
        lower = -s * psi_plus + c * psi_minus
        tilde_plus, tilde_minus = oracles.tilde_basis(p, t)
        e_plus = spin_model.energy_expectation(p, "+") - spin_model.connection_value(p, "+")
        e_minus = spin_model.energy_expectation(p, "-") - spin_model.connection_value(p, "-")
        assert np.max(np.abs(upper - tilde_plus * np.exp(-1j * e_plus * t))) < 1e-10
        assert np.max(np.abs(lower - tilde_minus * np.exp(-1j * e_minus * t))) < 1e-10


def test_tilde_basis_periodicity_is_commensurate():
    # theta = pi/2 gives beta_rate = sqrt(4 mu_B^2 + omega^2); mu_B = sqrt(3)/2
    # makes that exactly 2 omega, so the tilde basis closes after one period.
    commensurate = SpinParams(np.sqrt(3.0) / 2.0, 1.0, np.pi / 2, big_theta=0.7)
    assert commensurate.beta_rate == pytest.approx(2.0, abs=1e-12)
    t0_plus, t0_minus = oracles.tilde_basis(commensurate, 0.0)
    tT_plus, tT_minus = oracles.tilde_basis(commensurate, commensurate.period)
    assert np.max(np.abs(tT_plus - t0_plus)) < 1e-10
    assert np.max(np.abs(tT_minus - t0_minus)) < 1e-10

    generic = SpinParams(1.0, 1.0, np.pi / 2, big_theta=0.7)  # beta_rate = sqrt(5)
    g0, _ = oracles.tilde_basis(generic, 0.0)
    gT, _ = oracles.tilde_basis(generic, generic.period)
    assert np.max(np.abs(gT - g0)) > 1e-2


def test_mixed_trace_reductions():
    pure = SpinParams(1.0, 1.0, np.pi / 3, big_theta=0.0)
    psi0, _ = spin_model.exact_amplitudes(pure, 0.0)
    psiT, _ = spin_model.exact_amplitudes(pure, pure.period)
    assert spin_model.mixed_trace(pure) == pytest.approx(np.vdot(psi0, psiT), abs=1e-12)


@pytest.mark.parametrize("mu_b", [0.1, 0.3, 1.0, 3.0, 10.0])
@pytest.mark.parametrize("omega", [0.1, 0.3, 1.0, 3.0, 10.0])
def test_mixed_trace_is_the_amplitude_form(mu_b, omega):
    # the scalar closed form against sum_k w_k <psi_k(0)|psi_k(T)> of the
    # exact amplitudes, over theta in the box and big_theta in [0, pi]
    for theta in np.linspace(1e-3, np.pi - 1e-3, 6):
        for big_theta in np.linspace(0.0, np.pi, 5):
            p = SpinParams(mu_b, omega, float(theta), float(big_theta))
            (plus0, minus0), (plusT, minusT) = (spin_model.exact_amplitudes(p, t)
                                                for t in (0.0, p.period))
            amplitude_form = (np.cos(0.5 * big_theta) ** 2 * np.vdot(plus0, plusT)
                              + np.sin(0.5 * big_theta) ** 2 * np.vdot(minus0, minusT))
            trace = spin_model.mixed_trace(p)
            assert type(trace) is complex
            assert abs(trace - amplitude_form) <= 1e-14


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


def test_samples_from_a_rotating_field_table_are_the_same_bits():
    # cos and sin read from the shared table, or taken into the output rows
    # in place: the same operations, so the same samples, at nodes and midpoints
    grid = TimeGrid(0.0, GENERIC.period, 400)
    field = spin_model.RotatingField(GENERIC.omega, grid)
    own, shared = spin_model.hamiltonian(GENERIC), spin_model.hamiltonian(GENERIC, field)
    for times in (grid.nodes, grid.midpoints):
        assert shared.sample(times).tobytes() == own.sample(times).tobytes()
    assert shared.evaluate(0.37).tobytes() == own.evaluate(0.37).tobytes()


def test_rotating_field_serves_only_the_arrays_it_was_computed_for():
    # looked up by identity, and by omega: an equal copy of the midpoints, the
    # grid's nodes, another grid's midpoints or another omega get no table, so
    # they take their own
    grid = TimeGrid(0.0, 2.0, 64)
    field = spin_model.RotatingField(1.5, grid)
    table = field.rows(1.5, grid.midpoints)
    assert table.shape == (2, 64)
    assert table.tobytes() == np.stack([np.cos(1.5 * grid.midpoints),
                                        np.sin(1.5 * grid.midpoints)]).tobytes()
    for omega, times in ((1.5, grid.midpoints.copy()), (1.5, grid.nodes),
                         (1.5, TimeGrid(0.0, 2.0, 64).midpoints), (2.0, grid.midpoints)):
        assert field.rows(omega, times) is None
    p = SpinParams(0.8, 2.0, 0.9)  # another omega: the sampler takes its own rows
    own = spin_model.hamiltonian(p).sample(grid.midpoints)
    assert spin_model.hamiltonian(p, field).sample(grid.midpoints).tobytes() == own.tobytes()
