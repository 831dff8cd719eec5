"""Phase functionals: goldens, gauge behavior, transport, adiabatic limit."""
from pathlib import Path

import numpy as np
import pytest

from phaselab import SpinParams, TimeGrid, amplitude_path, cli, propagate, spin_model
from phaselab.evolution import AmplitudePath, HamiltonianTrajectory, member_paths
from phaselab.exceptions import DegeneracyError, UndefinedPhaseError
from phaselab.numerics import trapezoid, wrap_angle
from phaselab.phases import (
    PathStack,
    adiabatic_phase,
    dynamical_phase,
    geometric_phase_pure,
    parallel_transport_amplitude,
    phase_report,
    state_connection,
    total_phase,
    transport_residual,
)

from conftest import build_spin_case


def constant_trajectory(H: np.ndarray) -> HamiltonianTrajectory:
    H = np.asarray(H, dtype=complex)

    def batch(times):
        return np.broadcast_to(H, (len(times),) + H.shape).copy()

    return HamiltonianTrajectory(dim=H.shape[0], evaluate=batch)


def eigenstate_path(E: float, T: float, steps: int = 400) -> AmplitudePath:
    grid = TimeGrid(0.0, T, steps)
    e0 = np.array([1.0, 0.0], dtype=complex)
    states = np.exp(-1j * E * grid.nodes)[:, None] * e0[None, :]
    return AmplitudePath(grid, states)


def periodic_gauge_samples(rng, nodes, T, degree=6, scale=0.2):
    out = np.zeros_like(nodes)
    for m in range(1, degree + 1):
        out += rng.uniform(-scale, scale) / m**2 * np.cos(2 * np.pi * m * nodes / T)
        out += rng.uniform(-scale, scale) / m**2 * np.sin(2 * np.pi * m * nodes / T)
    return out


def test_total_phase_eigenstate():
    E, T = 0.7, 5.0
    angle, magnitude = total_phase(eigenstate_path(E, T))
    assert angle == pytest.approx(float(wrap_angle(-E * T)), abs=1e-12)
    assert magnitude == pytest.approx(1.0, abs=1e-12)


def test_total_phase_identity_path():
    grid = TimeGrid(0.0, 1.0, 16)
    states = np.tile(np.array([0.6, 0.8j]), (17, 1))
    angle, magnitude = total_phase(AmplitudePath(grid, states))
    assert angle == 0.0
    assert magnitude == pytest.approx(1.0, abs=1e-12)


def test_total_phase_spin_golden(generic_case):
    p = generic_case.p
    angle, magnitude = total_phase(generic_case.paths["+"])
    expected = wrap_angle(
        p.mu_b * np.cos(p.alpha) * p.period + np.pi * (1 + np.cos(p.theta - p.alpha))
    )
    assert angle == pytest.approx(float(expected), abs=1e-6)
    assert magnitude == pytest.approx(1.0, abs=1e-9)


def test_total_phase_undefined_for_orthogonal_endpoints():
    grid = TimeGrid(0.0, 1.0, 64)
    angles = 0.5 * np.pi * grid.nodes
    states = np.stack([np.cos(angles), np.sin(angles)], axis=1).astype(complex)
    with pytest.raises(UndefinedPhaseError):
        total_phase(AmplitudePath(grid, states))


def test_dynamical_phase_eigenstate():
    E, T = 1.3, 4.0
    H = constant_trajectory(np.diag([E, -E]).astype(complex))
    path = eigenstate_path(E, T)
    assert dynamical_phase(path, H.sample(path.grid.nodes)) == pytest.approx(-E * T, abs=1e-10)


def test_dynamical_phase_vanishes_at_special_point(special_case):
    samples = special_case.H.sample(special_case.grid.nodes)
    assert abs(dynamical_phase(special_case.paths["+"], samples)) < 1e-8


def test_dynamical_phase_generic_golden(generic_case):
    p = generic_case.p
    expected = p.mu_b * np.cos(p.alpha) * p.period
    samples = generic_case.H.sample(generic_case.grid.nodes)
    assert dynamical_phase(generic_case.paths["+"], samples) == pytest.approx(
        expected, abs=1e-7
    )
    # second form: -i int <psi, d/dt psi> equals the energy integral up to the
    # O((rate*dt)^2) central-difference bias, ~2e-6 at N=20000 here
    path = generic_case.paths["+"]
    conn_integral = float(trapezoid(state_connection(path.states, path.grid.dt), path.grid.dt))
    assert -conn_integral == pytest.approx(expected, abs=5e-6)


def test_geometric_phase_eigenstate_is_zero():
    E, T = 0.9, 3.0
    assert abs(geometric_phase_pure(eigenstate_path(E, T, steps=100000))) < 1e-8


def test_geometric_phase_spin_goldens(generic_case, special_case):
    for case in (generic_case, special_case):
        for branch in "+-":
            numeric = geometric_phase_pure(case.paths[branch])
            exact = spin_model.geometric_phase(case.p, branch)
            assert abs(wrap_angle(numeric - exact)) < 1e-6


def test_geometric_phase_gauge_invariant(generic_case):
    rng = np.random.default_rng(101)
    path = generic_case.paths["+"]
    base = geometric_phase_pure(path)
    nodes, T = generic_case.grid.nodes, generic_case.grid.span
    for _ in range(20):
        alpha = periodic_gauge_samples(rng, nodes, T)
        shifted = AmplitudePath(path.grid, path.states * np.exp(1j * alpha)[:, None])
        assert abs(wrap_angle(geometric_phase_pure(shifted) - base)) < 1e-8


def test_total_phase_gauge_covariance(generic_case):
    # alpha(t) with distinct endpoints shifts the total phase by exactly the gap
    path = generic_case.paths["-"]
    base, _ = total_phase(path)
    nodes = generic_case.grid.nodes
    alpha = 0.3 * nodes + 0.2 * np.sin(2 * np.pi * nodes / generic_case.grid.span)
    shifted = AmplitudePath(path.grid, path.states * np.exp(1j * alpha)[:, None])
    angle, _ = total_phase(shifted)
    expected = wrap_angle(base + alpha[-1] - alpha[0])
    assert angle == pytest.approx(float(expected), abs=1e-10)


def test_identity_geometric_equals_total_minus_dynamical():
    # closed-form paths on a fine grid: the two independent routes to the
    # geometric phase must agree at the stated 1e-8
    for mu_b, omega, theta in ((1.0, 1.0, np.pi / 3), (1.0, 4.0, 2.0 * np.pi / 3)):
        p = SpinParams(mu_b, omega, theta)
        grid = TimeGrid(0.0, p.period, 200000)
        H = spin_model.hamiltonian(p)
        for path in spin_model.amplitude_paths(p, grid):
            angle, _ = total_phase(path)
            dyn = dynamical_phase(path, H.sample(grid.nodes))
            identity = wrap_angle(angle - dyn)
            assert abs(wrap_angle(geometric_phase_pure(path) - identity)) < 1e-8


def test_identity_on_propagated_paths(generic_case, special_case):
    # at the propagation resolution the identity holds at integration tolerance
    for case in (generic_case, special_case):
        for branch in "+-":
            path = case.paths[branch]
            angle, _ = total_phase(path)
            dyn = dynamical_phase(path, case.H.sample(case.grid.nodes))
            identity = wrap_angle(angle - dyn)
            assert abs(wrap_angle(geometric_phase_pure(path) - identity)) < 2e-6


def test_parallel_transport_fixed_point_exact():
    # a path with purely real states is already parallel transported: the
    # discrete connection vanishes identically, so transport returns it intact
    grid = TimeGrid(0.0, 1.0, 512)
    angles = 0.4 * np.pi * grid.nodes
    states = np.stack([np.cos(angles), np.sin(angles)], axis=1).astype(complex)
    path = AmplitudePath(grid, states)
    transported = parallel_transport_amplitude(path)
    assert np.max(np.abs(transported.states - path.states)) == 0.0


def test_parallel_transport_idempotent():
    p = SpinParams(1.0, 1.0, np.pi / 3)
    grid = TimeGrid(0.0, p.period, 200000)
    path, _ = spin_model.amplitude_paths(p, grid)
    transported = parallel_transport_amplitude(path)
    again = parallel_transport_amplitude(transported)
    assert np.max(np.abs(again.states - transported.states)) < 1e-8


def test_parallel_transport_undoes_eigenstate_phase():
    E, T = 1.1, 6.0
    transported = parallel_transport_amplitude(eigenstate_path(E, T, steps=100000))
    assert np.max(np.abs(transported.states - transported.states[0][None, :])) < 1e-8


def test_parallel_transport_holonomy_is_geometric_phase(generic_case):
    path = generic_case.paths["+"]
    transported = parallel_transport_amplitude(path)
    holonomy_angle = np.angle(np.vdot(transported.initial, transported.final))
    assert abs(wrap_angle(holonomy_angle - geometric_phase_pure(path))) < 1e-8


def test_parallel_transport_residual_small(generic_case):
    transported = parallel_transport_amplitude(generic_case.paths["+"])
    h_norm = generic_case.p.mu_b * np.sqrt(2.0)  # Frobenius norm of the spin H
    assert transport_residual(transported) <= 1e-6 * h_norm


def test_raw_path_transport_residual_matches_energy(generic_case):
    # |<psi, d psi/dt>| = |<H>| = mu_B |cos alpha| along the exact evolution
    p = generic_case.p
    expected = p.mu_b * abs(np.cos(p.alpha))
    assert transport_residual(generic_case.paths["+"]) == pytest.approx(expected, rel=1e-4)


def test_phase_report_identity(generic_case):
    report = phase_report(generic_case.paths["+"], generic_case.H.sample(generic_case.grid.nodes))
    assert report.geometric == pytest.approx(
        float(wrap_angle(report.total - report.dynamical)), abs=1e-12
    )
    assert 0.0 <= report.overlap_magnitude <= 1.0 + 1e-12
    assert report.transport_residual >= 0.0


def test_adiabatic_phase_constant_hamiltonian():
    H = constant_trajectory(np.diag([-2.0, 1.0]).astype(complex))
    geometric, dynamical = adiabatic_phase(H, TimeGrid(0.0, 3.0, 600), level=0)
    assert abs(geometric) < 1e-10
    assert dynamical == pytest.approx(6.0, abs=1e-10)


def test_adiabatic_phase_spin_limit():
    # omega / mu_B = 0.02: level 0 is the -mu_B branch, Berry phase
    # wrap(-pi (1 - cos theta)); level 1 the +mu_B branch, wrap(-pi (1 + cos theta)).
    p = SpinParams(50.0, 1.0, np.pi / 3)
    H = spin_model.hamiltonian(p)
    grid = TimeGrid(0.0, p.period, 20000)
    geo0, dyn0 = adiabatic_phase(H, grid, level=0)
    assert abs(wrap_angle(geo0 - wrap_angle(-np.pi * (1 - np.cos(p.theta))))) < 0.02 * np.pi
    assert dyn0 == pytest.approx(50.0 * p.period, rel=1e-10)
    geo1, dyn1 = adiabatic_phase(H, grid, level=1)
    assert abs(wrap_angle(geo1 - wrap_angle(-np.pi * (1 + np.cos(p.theta))))) < 0.02 * np.pi
    assert dyn1 == pytest.approx(-50.0 * p.period, rel=1e-10)


def test_adiabatic_phase_converges_to_exact():
    theta = np.pi / 3
    gaps = []
    for mu_b in (5.0, 50.0, 500.0):
        p = SpinParams(mu_b, 1.0, theta)
        case = build_spin_case(mu_b, 1.0, theta, steps=20000)
        geo, _ = adiabatic_phase(case.H, case.grid, level=0)
        exact = spin_model.geometric_phase(p, "+")
        gaps.append(abs(wrap_angle(geo - exact)))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[1] < 0.02 * abs(spin_model.geometric_phase(SpinParams(50.0, 1.0, theta), "+"))


def test_adiabatic_phase_rejects_degeneracy():
    def batch(times):
        times = np.asarray(times)
        return (1.0 - times)[:, None, None] * np.diag([1.0, -1.0])[None].astype(complex)

    H = HamiltonianTrajectory(2, evaluate=batch)
    with pytest.raises(DegeneracyError):
        adiabatic_phase(H, TimeGrid(0.0, 2.0, 200), level=0)


@pytest.mark.parametrize("case", ["spin", "custom"])
def test_path_stack_rows_equal_the_paths_stacked_alone(case, generic_case, monkeypatch):
    # each path's sums run over its own contiguous row, so stacking k paths
    # changes no bit of any path's phases: the generic spin case's two member
    # paths and the three of the golden dim-3 custom-sampled scenario
    if case == "custom":
        monkeypatch.chdir(Path(__file__).parent / "golden")
        sc = cli.build_scenario(cli.parse_config_file("custom.cfg"))
        grid, H, U, ensemble = sc.grid, sc.H, propagate(sc.H, sc.grid), sc.ensemble
    else:
        grid, H, U, ensemble = (generic_case.grid, generic_case.H, generic_case.U,
                                generic_case.ensemble)
    stack = PathStack(grid, member_paths(U, ensemble.states))
    samples = H.sample(grid.nodes)
    assert stack.size == {"spin": 2, "custom": 3}[case]
    totals, dynamical = stack.totals()[0], stack.dynamical(samples)
    for k in range(stack.size):
        alone = PathStack(grid, stack.states[..., k:k + 1])
        assert alone.holonomies[0] == stack.holonomies[k]
        assert alone.dynamical(samples)[0] == dynamical[k]
        assert alone.totals()[0][0] == totals[k]
        assert alone.residuals[0] == stack.residuals[k]
