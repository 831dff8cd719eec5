"""Propagator contracts: oracle agreement, convergence order, invariants."""
from pathlib import Path

import numpy as np
import pytest

from phaselab import (
    HamiltonianTrajectory,
    SpinParams,
    TimeGrid,
    amplitude_path,
    propagate,
    spin_model,
)
from phaselab.cli import build_scenario, parse_config_file
from phaselab.evolution import AmplitudePath, PropagatorPath, member_paths
from phaselab.exceptions import ContractError, DimensionError
from phaselab.linalg import hermitian_step_exp, unitarity_defect

from conftest import mat_exp, random_hermitian

SZ = np.diag([1.0, -1.0]).astype(complex)


def constant_trajectory(H: np.ndarray) -> HamiltonianTrajectory:
    H = np.asarray(H, dtype=complex)

    def batch(times):
        return np.broadcast_to(H, (len(times),) + H.shape).copy()

    return HamiltonianTrajectory(dim=H.shape[0], evaluate=batch)


def spin_state_error(p: SpinParams, steps: int) -> float:
    grid = TimeGrid(0.0, p.period, steps)
    U = propagate(spin_model.hamiltonian(p), grid)
    w_plus, w_minus = spin_model.w_basis(p, 0.0)
    exact_plus, exact_minus = spin_model.exact_amplitudes(p, p.period)
    return max(
        float(np.linalg.norm(U.final @ w_plus - exact_plus)),
        float(np.linalg.norm(U.final @ w_minus - exact_minus)),
    )


def test_grid_validation():
    with pytest.raises(DimensionError):
        TimeGrid(0.0, 1.0, 0)
    with pytest.raises(DimensionError):
        TimeGrid(1.0, 1.0, 10)
    grid = TimeGrid(0.0, 2.0, 8)
    assert grid.dt == 0.25
    assert np.allclose(np.diff(grid.nodes), grid.dt)
    assert grid.nodes[0] == 0.0 and grid.nodes[-1] == 2.0


def test_constant_hamiltonian_exact():
    # theta = 0 limit: H = -mu B sigma_z, U(T) = exp(+i mu B T sigma_z)
    mu_b, T = 0.8, 3.0
    H = constant_trajectory(-mu_b * SZ)
    U = propagate(H, TimeGrid(0.0, T, 400))
    assert np.max(np.abs(U.final - mat_exp(1j * mu_b * T * SZ))) < 1e-12


def test_spin_oracle_at_acceptance_resolution():
    p = SpinParams(1.0, 1.0, np.pi / 3)
    assert spin_state_error(p, 20000) < 1e-6


def test_second_order_convergence():
    p = SpinParams(3.0, 1.0, 1.1)
    coarse = spin_state_error(p, 4000)
    fine = spin_state_error(p, 8000)
    assert 3.2 < coarse / fine < 4.8


def test_worst_corner_truncation_scale():
    # Extreme mu_B/omega ratio: the midpoint rule's truncation error peaks
    # around 2.6e-6 at N=20000 here; keep its scale and order pinned down.
    p = SpinParams(10.0, 0.1, np.pi / 2)
    err = spin_state_error(p, 20000)
    assert err < 4e-6
    assert 3.2 < spin_state_error(p, 10000) / err < 4.8


def test_propagator_invariants(generic_case):
    U = generic_case.U
    assert np.array_equal(U.matrices[0], np.eye(2))
    assert unitarity_defect(U.matrices) < 1e-9


def test_composition_over_subintervals():
    p = SpinParams(1.0, 1.0, np.pi / 3)
    H = spin_model.hamiltonian(p)
    T = p.period
    full = propagate(H, TimeGrid(0.0, T, 2000))
    first = propagate(H, TimeGrid(0.0, T / 2, 1000))
    second = propagate(H, TimeGrid(T / 2, T, 1000))
    assert np.max(np.abs(second.final @ first.final - full.final)) < 1e-8


def test_piecewise_constant_is_exact_per_segment():
    rng = np.random.default_rng(41)
    H1, H2 = random_hermitian(rng, 3), random_hermitian(rng, 3)
    T = 2.0

    def batch(times):
        times = np.asarray(times)
        out = np.where((times < T / 2)[:, None, None], H1[None], H2[None])
        return out

    H = HamiltonianTrajectory(3, evaluate=batch)
    U = propagate(H, TimeGrid(0.0, T, 64))
    expected = mat_exp(-1j * (T / 2) * H2) @ mat_exp(-1j * (T / 2) * H1)
    assert np.max(np.abs(U.final - expected)) < 1e-12


@pytest.mark.parametrize(
    "steps, dim",
    # dim 3 runs the np.matmul path of the product kernel, dim 2 its elementwise path
    [pytest.param(steps, 3, id=f"{steps}") for steps in (1, 2, 3, 37, 20000)]
    + [pytest.param(steps, 2, id=f"dim2-{steps}") for steps in (1, 2, 3, 37, 20000)],
)
def test_blocked_product_matches_sequential_loop(steps, dim):
    # non-commuting generators, so a wrong factor order would show
    rng = np.random.default_rng(43)
    A, B, C = (random_hermitian(rng, dim) for _ in range(3))

    def batch(times):
        times = np.asarray(times)[:, None, None]
        return np.cos(times) * A + np.sin(3.0 * times) * B + C

    H = HamiltonianTrajectory(dim, evaluate=batch)
    grid = TimeGrid(0.0, 2.0, steps)
    U = propagate(H, grid).matrices
    factors = hermitian_step_exp(H.sample(grid.midpoints), grid.dt)
    expected = np.empty_like(U)
    expected[0] = np.eye(dim)
    for j in range(steps):
        expected[j + 1] = factors[j] @ expected[j]
    assert np.array_equal(U[0], np.eye(dim, dtype=complex))
    assert np.max(np.abs(U - expected)) < 1e-10
    assert propagate(H, grid).matrices.tobytes() == U.tobytes()


def test_rejects_non_hermitian_evaluation():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    H = HamiltonianTrajectory(2, evaluate=lambda times: np.broadcast_to(bad, (len(times), 2, 2)))
    with pytest.raises(ContractError):
        propagate(H, TimeGrid(0.0, 1.0, 16))


def test_paths_reject_nan():
    # NaN compares false with every tolerance, so `defect > tol` would pass it
    grid = TimeGrid(0.0, 1.0, 2)
    with pytest.raises(ContractError):
        PropagatorPath(grid, np.full((3, 2, 2), np.nan, dtype=complex))
    with pytest.raises(ContractError):
        AmplitudePath(grid, np.full((3, 2), np.nan, dtype=complex))


def test_amplitude_path_eigenstate():
    vals = np.array([-0.5, 1.5])
    H = constant_trajectory(np.diag(vals).astype(complex))
    grid = TimeGrid(0.0, 2.0, 200)
    U = propagate(H, grid)
    e0 = np.array([1.0, 0.0], dtype=complex)
    psi = amplitude_path(U, e0)
    expected = np.exp(-1j * vals[0] * grid.nodes)[:, None] * e0[None, :]
    assert np.max(np.abs(psi.states - expected)) < 1e-12


def test_amplitude_paths_stay_orthogonal(generic_case):
    plus, minus = generic_case.paths["+"], generic_case.paths["-"]
    overlaps = np.einsum("ja,ja->j", np.conj(plus.states), minus.states)
    assert np.max(np.abs(overlaps)) < 1e-9


def test_spin_amplitude_matches_closed_form(generic_case):
    exact_plus, _ = spin_model.exact_amplitudes(generic_case.p, generic_case.p.period)
    assert np.linalg.norm(generic_case.paths["+"].final - exact_plus) < 1e-6


def test_amplitude_path_rejects_bad_initial(generic_case):
    with pytest.raises(ContractError):
        amplitude_path(generic_case.U, np.array([1.0, 1.0]))
    with pytest.raises(DimensionError):
        amplitude_path(generic_case.U, np.array([1.0, 0.0, 0.0]))


def test_amplitude_path_is_the_one_column_member_path(generic_case):
    # amplitude_path is member_paths on one column, so those match bitwise; numpy
    # runs a one-column product as a matrix-vector BLAS call, whose rounding may
    # differ from the k-column GEMM's by about one ulp
    states = generic_case.ensemble.states
    stack = member_paths(generic_case.U, states)
    for k, state in enumerate(states):
        path = amplitude_path(generic_case.U, state).states
        assert np.array_equal(path, member_paths(generic_case.U, state[None, :])[..., 0])
        assert np.max(np.abs(path - stack[..., k])) <= np.finfo(float).eps


def test_amplitude_path_matches_member_paths_dim3_custom(monkeypatch):
    # the golden dim-3 custom-sampled scenario, whose states are basis vectors
    monkeypatch.chdir(Path(__file__).parent / "golden")
    sc = build_scenario(parse_config_file("custom.cfg"))
    U = propagate(sc.H, sc.grid)
    stack = member_paths(U, sc.ensemble.states)
    assert stack.shape == (801, 3, 3)
    for k, state in enumerate(sc.ensemble.states):
        assert np.array_equal(amplitude_path(U, state).states, stack[..., k])


def test_member_paths_rejects_wrong_width(generic_case):
    with pytest.raises(DimensionError):
        member_paths(generic_case.U, np.eye(3, dtype=complex))
    with pytest.raises(DimensionError):
        member_paths(generic_case.U, np.array([1.0, 0.0]))
