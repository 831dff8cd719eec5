"""Mixed-state operations: observables, transforms, transport, purification."""
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from phaselab import SpinParams, TimeGrid, cli, gauge, mixed, phases, spin_model
from phaselab.evolution import HamiltonianTrajectory, PropagatorPath, member_paths, propagate
from phaselab.exceptions import (
    CapacityError,
    ContractError,
    DimensionError,
    UndefinedPhaseError,
)
from phaselab.gauge import GaugeFunction
from phaselab.mixed import (
    DensityMatrix,
    Ensemble,
    PurifiedState,
    gauge_campaign,
    hidden_gauge_transform,
    mixed_total_phase,
    purify,
    reduce,
    singh_phase,
    transform_evolution,
    transport_conditions,
)
from phaselab.numerics import wrap_angle
from phaselab.phases import PathStack

import oracles
from conftest import (
    central_diff,
    density_of,
    mat_exp,
    random_density,
    random_hermitian,
    random_unitary,
    trace_phase,
)
from oracles import BasisFrame, frame_from_amplitudes


def members(U: PropagatorPath, ensemble: Ensemble) -> PathStack:
    """The member paths psi_k = U|k> of the ensemble's states."""
    return PathStack(U.grid, member_paths(U, ensemble.states))


def gamma_d(ensemble: Ensemble, U: PropagatorPath) -> float:
    """The mixed dynamical phase sum_k w_k phi_d,k of U's member paths with the
    ensemble's weights, read off their step energies on U's midpoint samples."""
    stack = members(U, ensemble)
    return float(stack.average(ensemble.weights,
                               stack.curve_phases(stack.step_energies(U.samples))[0]))


def endpoint_paths(U_T: np.ndarray, kets: np.ndarray) -> PathStack:
    """The paths psi_k = |k> at t = 0 and U_T|k> at t = 1 of the kets (rows)."""
    kets = np.asarray(kets, dtype=complex)
    return PathStack(TimeGrid(0.0, 1.0, 1), np.stack([kets.T, U_T @ kets.T]))


def eigen_ensemble(rho: DensityMatrix) -> Ensemble:
    """rho's eigenvalues over its eigenvectors, from np.linalg.eigh; a rank
    deficit's eigenvalues, zero to rounding, are clipped to zero."""
    vals, vecs = np.linalg.eigh(rho.matrix)
    return Ensemble(np.clip(vals, 0.0, None), vecs.T.copy())


def test_density_from_single_state():
    state = np.array([0.6, 0.8j])
    rho = DensityMatrix(density_of(Ensemble(np.array([1.0]), state[None, :])))
    assert np.allclose(rho.matrix, np.outer(state, np.conj(state)))
    vals = np.linalg.eigvalsh(rho.matrix)
    assert np.allclose(sorted(vals), [0.0, 1.0], atol=1e-12)


def test_density_equal_weights_is_maximally_mixed():
    rho = DensityMatrix(density_of(Ensemble(np.full(3, 1 / 3), np.eye(3, dtype=complex))))
    assert np.allclose(rho.matrix, np.eye(3) / 3)


def test_density_spin_mixture(special_case):
    rho = DensityMatrix(density_of(special_case.ensemble))
    c2, s2 = special_case.weights
    w_plus, w_minus = spin_model.w_basis(special_case.p, 0.0)
    expected = c2 * np.outer(w_plus, np.conj(w_plus)) + s2 * np.outer(
        w_minus, np.conj(w_minus)
    )
    assert np.max(np.abs(rho.matrix - expected)) < 1e-12


def test_density_invariants_enforced():
    with pytest.raises(ContractError):
        DensityMatrix(np.diag([0.7, 0.7]).astype(complex))
    with pytest.raises(ContractError):
        DensityMatrix(np.array([[1.2, 0.0], [0.0, -0.2]], dtype=complex))
    bad = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ContractError):
        DensityMatrix(bad)


@pytest.mark.parametrize("dim", [1, 2, 5, 8])
def test_density_matrix_keeps_the_eigh_that_checked_it(dim):
    m = random_density(np.random.default_rng(dim), dim).matrix
    rho = DensityMatrix(m)
    vals, vecs = np.linalg.eigh(m)
    assert np.array_equal(rho.eigenvalues, vals) and np.array_equal(rho.eigenvectors, vecs)
    assert rho.eigenvalues[0] == np.min(rho.eigenvalues)  # ascending, as eigh returns them


def test_ensemble_weight_validation():
    with pytest.raises(ContractError):
        Ensemble(np.array([0.5, 0.4]), np.eye(2, dtype=complex))


def test_mixed_total_phase_global_phase():
    kets = np.eye(2, dtype=complex)
    gamma, vis = mixed_total_phase([0.5, 0.5], kets, endpoint_paths(np.exp(1.2j) * kets, kets))
    assert gamma == pytest.approx(1.2, abs=1e-12)
    assert vis == pytest.approx(1.0, abs=1e-12)


def test_mixed_total_phase_pure_reduction(generic_case):
    path = generic_case.paths["+"]
    initial, final = path.states[[0, -1], :, 0]
    gamma, vis = mixed_total_phase([1.0], initial[None], path)
    assert gamma == pytest.approx(np.angle(np.vdot(initial, final)), abs=1e-12)
    assert vis == pytest.approx(abs(np.vdot(initial, final)), abs=1e-12)


def test_mixed_total_phase_special_case(special_case):
    gamma, vis = mixed_total_phase(special_case.weights, special_case.ensemble.states,
                                   special_case.members)
    expected = spin_model.mixed_trace(special_case.p)
    assert abs(vis * np.exp(1j * gamma) - expected) < 1e-6


def test_mixed_total_phase_undefined():
    kets = np.eye(2, dtype=complex)
    U = np.diag([1.0, -1.0]).astype(complex)  # trace of U rho vanishes
    with pytest.raises(UndefinedPhaseError):
        mixed_total_phase([0.5, 0.5], kets, endpoint_paths(U, kets))


def test_mixed_total_phase_rejects_wrong_shape():
    paths = endpoint_paths(np.eye(3), np.eye(3))
    for kets in (np.eye(2, dtype=complex), np.eye(3, dtype=complex)[None], np.eye(3)[:2]):
        with pytest.raises(DimensionError, match="need one ket per path"):
            mixed_total_phase(np.full(3, 1 / 3), kets, paths)


# each record stores the array it validated, so nested lists work like arrays
GRID = TimeGrid(0.0, 1.0, 4)
LIST_RECORDS = {
    "DensityMatrix": (lambda: DensityMatrix([[0.5, 0], [0, 0.5]]), "matrix",
                      lambda r: r.dim == 2 and reduce(purify(r, 2)).dim == 2),
    "Ensemble": (lambda: Ensemble([0.5, 0.5], [[1, 0], [0, 1]]), "states",
                 lambda r: (r.size, r.dim) == (2, 2)),
    "PurifiedState": (lambda: PurifiedState([[0.6, 0], [0, 0.8]]), "coefficients",
                      lambda r: (r.system_dim, r.ancilla_dim) == (2, 2)),
    "PathStack": (lambda: PathStack(GRID, [[[1], [0]]] * 5), "states",
                  lambda r: r.size == 1 and list(r.endpoint_overlaps) == [1]),
    "PropagatorPath": (lambda: PropagatorPath(GRID, [[[1, 0], [0, 1]]] * 5), "matrices",
                       lambda r: r.dim == 2 and r.matrices[-1].shape == (2, 2)),
    "BasisFrame": (lambda: BasisFrame(GRID, [[[1], [0]]] * 5), "states",
                   lambda r: r.dim == 2 and r.states[:, :, 0].shape == (5, 2)),
}


@pytest.mark.parametrize("name", sorted(LIST_RECORDS))
def test_records_keep_the_array_they_validated(name):
    build, field, works = LIST_RECORDS[name]
    record = build()
    assert isinstance(getattr(record, field), np.ndarray)
    assert works(record)


def test_ensemble_and_density_reject_nan():
    with pytest.raises(ContractError):
        Ensemble(weights=[np.nan, np.nan], states=np.eye(2))
    with pytest.raises(ContractError):
        DensityMatrix(np.full((2, 2), np.nan, dtype=complex))


def _nan_at_start(stack):
    """A copy of the stack whose first path starts with a NaN entry."""
    states = stack.states.copy()
    states[0, 0, 0] = np.nan
    return PathStack(stack.grid, states)


# every tolerance check compares as `not x <= tol`, which a NaN fails; the
# message names the check, not a later one that catches the NaN downstream
NAN_INPUTS = {
    "BasisFrame-orthonormality": (
        "frame not orthonormal",
        lambda c: BasisFrame(c.grid, np.full((c.grid.steps + 1, 2, 1), np.nan))),
    "frame_from_amplitudes-t0": (
        "orthonormal at t = 0",
        lambda c: frame_from_amplitudes(_nan_at_start(c.members))),
    "PurifiedState-norm": (
        "purified state norm",
        lambda c: PurifiedState(np.full((2, 2), np.nan, dtype=complex))),
    "singh_phase-weights": (
        "weights must be normalized",
        lambda c: singh_phase([np.nan, np.nan], c.members, np.angle(c.members.holonomies))),
    "singh_phase-t0": (
        "orthonormal at t = 0",
        lambda c: singh_phase(c.weights, _nan_at_start(c.members), np.zeros(2))),
    "purify-ancilla-unitarity": (
        "ancilla transform must be unitary",
        lambda c: purify(DensityMatrix(np.eye(2) / 2), 2, np.full((2, 2), np.nan))),
}


@pytest.mark.parametrize("site", NAN_INPUTS)
def test_tolerance_checks_reject_nan(site, generic_case):
    message, call = NAN_INPUTS[site]
    with pytest.raises(ContractError, match=message):
        call(generic_case)


def test_interference_curve_reproduces_spin_formula(generic_case):
    p = generic_case.p
    path = generic_case.paths["+"]
    gamma_total, visibility = mixed_total_phase([1.0], path.states[0].T, path)
    value = 1.0 + visibility * np.cos(-gamma_total)  # the fringe 1 + v cos(chi - gamma_T) at chi = 0
    assert value == pytest.approx(spin_model.interference_value(p), abs=1e-6)


def test_mixed_dynamical_phase_constant_hamiltonian():
    rng = np.random.default_rng(5)
    rho = random_density(rng, 2)
    E = np.diag([0.4, -1.1]).astype(complex)
    T, steps = 3.0, 6000
    grid = TimeGrid(0.0, T, steps)
    U = np.stack([mat_exp(-1j * E * t) for t in grid.nodes])
    path = PropagatorPath(grid, U, samples=np.broadcast_to(E, (steps, 2, 2)))
    expected = -np.trace(rho.matrix @ E).real * T
    value = gamma_d(eigen_ensemble(rho), path)
    assert value == pytest.approx(expected, abs=1e-7)


def test_mixed_dynamical_phase_special_case(special_case):
    assert abs(gamma_d(special_case.ensemble, special_case.U)) < 1e-6


def test_mixed_dynamical_phase_linearity(generic_case):
    value = gamma_d(generic_case.ensemble, generic_case.U)
    paths, samples = generic_case.paths, generic_case.U.samples
    parts = [paths[b].curve_phases(paths[b].step_energies(samples))[0][0] for b in "+-"]
    expected = generic_case.weights[0] * parts[0] + generic_case.weights[1] * parts[1]
    assert value == pytest.approx(expected, abs=1e-6)


def test_transform_evolution_identity(generic_case):
    nodes = generic_case.grid.steps + 1
    transformed = transform_evolution(generic_case.members, np.zeros((2, nodes)))
    assert np.array_equal(transformed.states, generic_case.members.states)
    # one angle per path and node: a missing path, a missing node or a flat row are refused
    for shape in [(1, nodes), (2, nodes - 1), (2 * nodes,), (2, nodes, 1)]:
        with pytest.raises(DimensionError, match=re.escape(
                f"need one angle per path and node, (2, {nodes}), got {shape}")):
            transform_evolution(generic_case.members, np.zeros(shape))


def test_transform_evolution_preserves_orbit(generic_case):
    rng = np.random.default_rng(7)
    theta = GaugeFunction.random(2, generic_case.grid.span, rng, scale=0.3, slope_scale=0.3)
    rho0 = density_of(generic_case.ensemble)
    transformed = transform_evolution(generic_case.members, theta.value(generic_case.grid.nodes))
    bras = np.conj(generic_case.ensemble.states)
    for j in (0, 1, 777, generic_case.grid.steps):
        before = generic_case.U.matrices[j] @ rho0 @ np.conj(generic_case.U.matrices[j].T)
        U_prime = transformed.states[j] @ bras  # U'(t_j) = sum_k psi'_k(t_j) <k|
        after = U_prime @ rho0 @ np.conj(U_prime.T)
        assert np.max(np.abs(after - before)) < 1e-10


def test_transform_evolution_shifts_dynamical_phase(generic_case):
    rng = np.random.default_rng(11)
    base = gamma_d(generic_case.ensemble, generic_case.U)
    for _ in range(3):
        theta = GaugeFunction.random(2, generic_case.grid.span, rng, scale=0.1, slope_scale=0.3)
        angles = theta.value(generic_case.grid.nodes)
        transformed = transform_evolution(generic_case.members, angles)
        # the curve of H - d theta / dt, theta linear within each step
        energies = (transformed.step_energies(generic_case.U.samples)
                    - np.diff(angles, axis=1) / generic_case.grid.dt)
        shifted = transformed.average(generic_case.weights, transformed.curve_phases(energies)[0])
        jump = sum(
            w * (end - start)
            for w, end, start in zip(
                generic_case.weights, theta.value(generic_case.grid.t_end), theta.value(0.0)
            )
        )
        assert shifted - base == pytest.approx(jump, abs=1e-7)


def test_gauge_campaign_runs_on_an_incomplete_ensemble(generic_case):
    # one branch of the two-level basis: the campaign needs no complete basis,
    # its invariants hold to rounding while the ramped gauges move gamma_T, and
    # its base values are the branch's own <psi(0), psi(T)> and the geometric
    # phase of its step energies
    path, samples = generic_case.paths["+"], generic_case.U.samples
    values = gauge_campaign(np.array([1.0]), path, samples, path.step_energies(samples),
                            np.random.default_rng(0), 3, 0.1)
    for key in CAMPAIGN_INVARIANTS:
        assert values[key] <= 1e-12, key
    assert values["max_naive_total_phase_shift"] > 1e-3
    overlap = path.endpoint_overlaps[0]
    assert abs(wrap_angle(values["gamma_total"] - np.angle(overlap))) <= 1e-14
    assert abs(values["visibility"] - abs(overlap)) <= 1e-14
    _, geometric = path.curve_phases(path.step_energies(samples))
    assert values["singh_phase"] == singh_phase(np.array([1.0]), path, geometric)
    assert abs(wrap_angle(values["singh_phase"] - geometric[0])) <= 1e-14


@pytest.mark.parametrize("weights", [[1.0], [0.5, 0.25, 0.25], [[0.5], [0.5]]])
def test_a_wrong_weight_count_is_one_dimension_error(weights, generic_case):
    # every weighted sum over the member paths is one PathStack.average, whose
    # one check names the weights' shape against one weight per path
    paths = generic_case.members
    energies = paths.step_energies(generic_case.U.samples)
    message = re.escape(f"need one weight per path, (2,), got {np.shape(weights)}")
    for call in (lambda: singh_phase(weights, paths, np.angle(paths.holonomies)),
                 lambda: transport_conditions(weights, paths, energies),
                 lambda: gauge.frame_trace(paths, paths.curve_phases(energies)[0], weights),
                 lambda: mixed_total_phase(weights, generic_case.ensemble.states, paths)):
        with pytest.raises(DimensionError, match=message):
            call()


def test_singh_phase_single_state_reduces_to_geometric(generic_case):
    path = generic_case.paths["+"]
    assert singh_phase(np.array([1.0]), path, np.angle(path.holonomies)) == pytest.approx(
        float(np.angle(path.holonomies[0])), abs=1e-12
    )


def test_singh_phase_invariant_under_path_phases(generic_case):
    rng = np.random.default_rng(13)
    members = generic_case.members
    base = singh_phase(generic_case.weights, members, np.angle(members.holonomies))
    nodes = generic_case.grid.nodes
    for _ in range(10):
        theta = GaugeFunction.random(2, generic_case.grid.span, rng, scale=0.1, slope_scale=0.2)
        shifted = transform_evolution(members, theta.value(nodes))
        singh = singh_phase(generic_case.weights, shifted, np.angle(shifted.holonomies))
        assert abs(wrap_angle(singh - base)) < 1e-7


def test_singh_phase_equals_total_phase_at_special_point(special_case):
    gamma, _ = trace_phase(special_case.U.matrices[-1], density_of(special_case.ensemble))
    members = special_case.members
    singh = singh_phase(special_case.weights, members, np.angle(members.holonomies))
    assert abs(wrap_angle(singh - gamma)) < 1e-6


def test_transport_conditions_special_case(special_case):
    members = special_case.members
    weak, strong = transport_conditions(special_case.weights, members,
                                        members.step_energies(special_case.U.samples))
    assert np.max(strong) < 1e-6
    assert weak < 1e-6


def test_transport_conditions_generic(generic_case):
    p = generic_case.p
    members = generic_case.members
    weak, strong = transport_conditions(generic_case.weights, members,
                                        members.step_energies(generic_case.U.samples))
    expected = p.mu_b * abs(np.cos(p.alpha))
    assert np.max(strong) == pytest.approx(expected, rel=1e-4)
    assert weak <= float(np.dot(generic_case.weights, strong)) + 1e-10


def test_transport_and_mixed_dynamical_phase_dim3():
    # non-commuting dim-3 generators and a 2-state ensemble (k < d), against
    # the step energies <psi_k(t_j)| H(t_{j+1/2}) |psi_k(t_j)> written out with
    # np.vdot, and gamma_D against the central-difference
    # -i int Tr[rho0 U^dagger dU] dt, which it approaches as the grid is refined
    rng = np.random.default_rng(41)
    A, B, C = (random_hermitian(rng, 3) for _ in range(3))

    def batch(times):
        t = np.asarray(times, dtype=float)[..., None, None]
        return A + np.cos(t) * B + np.sin(2.0 * t) * C

    H = HamiltonianTrajectory(3, evaluate=batch)
    U = propagate(H, TimeGrid(0.0, 2.0, 400))
    Q = random_unitary(rng, 3)
    ensemble = Ensemble(np.array([0.7, 0.3]), Q[:, :2].T.copy())
    rho0 = DensityMatrix(density_of(ensemble))

    def step_energies(U, states):
        """<psi_k(t_j)| H(t_{j+1/2}) |psi_k(t_j)> per state k (rows) and step j."""
        return np.array([[np.vdot(U.matrices[j] @ s, U.samples[j] @ U.matrices[j] @ s).real
                          for j in range(U.grid.steps)] for s in states])

    def references(ensemble):
        energies = step_energies(U, ensemble.states)
        weak = np.max(np.abs(ensemble.weights @ energies))
        strong = np.max(np.abs(energies), axis=1)
        return weak, strong, -U.grid.dt * ensemble.weights @ energies.sum(axis=1)

    weak_reference, strong_reference, _ = references(ensemble)
    stack = members(U, ensemble)
    weak, strong = transport_conditions(ensemble.weights, stack, stack.step_energies(U.samples))
    assert strong.shape == (2,)
    assert np.max(np.abs(strong - strong_reference)) < 1e-12
    assert abs(weak - weak_reference) < 1e-12

    other = random_density(rng, 3)
    for given in (ensemble, eigen_ensemble(rho0), eigen_ensemble(other)):
        _, _, expected = references(given)
        assert abs(gamma_d(given, U) - expected) < 1e-12

    def central_difference_gamma_d(U, rho):
        D = np.conj(np.swapaxes(U.matrices, -2, -1)) @ central_diff(U.matrices, U.grid.dt)
        integrand = -1j * np.einsum("ab,jba->j", rho.matrix, D)
        return (integrand[1:-1].sum() + 0.5 * (integrand[0] + integrand[-1])).real * U.grid.dt

    gaps = []
    for steps in (400, 800, 1600, 3200):
        refined = propagate(H, TimeGrid(0.0, 2.0, steps))
        gaps.append(abs(gamma_d(eigen_ensemble(other), refined)
                        - central_difference_gamma_d(refined, other)))
    assert all(3.5 < coarse / fine < 4.5 for coarse, fine in zip(gaps, gaps[1:])), gaps


def test_gauge_campaign_matches_transformed_propagator_dim3(monkeypatch):
    # the campaign reads the equivalence-class shifts off the rephased member
    # paths of U' = U sum_k e^{i theta_k}|k><k|, given the member paths and the
    # midpoint samples U kept, and neither samples H nor builds a propagator itself; here
    # U' is formed matrix by matrix and read with the density matrix: gamma_T
    # as arg Tr[U'(T) rho0], gamma_D as
    # -dt sum_j Tr[rho0 (U'_j^dagger H(t_{j+1/2}) U'_j - Theta_j)], where
    # Theta_j = sum_k (theta_k(t_{j+1}) - theta_k(t_j)) / dt |k><k| is the
    # rephasing's generator over step j (i U'^dagger dU'/dt = U'^dagger H U' - Theta),
    # drawing the gauges in the campaign's order (one ramped gauge per trial)
    rng = np.random.default_rng(43)
    A, B, C = (random_hermitian(rng, 3) for _ in range(3))

    def batch(times):
        t = np.asarray(times, dtype=float)[..., None, None]
        return A + np.cos(t) * B + np.sin(2.0 * t) * C

    H = HamiltonianTrajectory(3, evaluate=batch)
    U = propagate(H, TimeGrid(0.0, 2.0, 400))
    ensemble = Ensemble(np.array([0.5, 0.3, 0.2]), random_unitary(rng, 3).T.copy())
    trials, scale = 6, 0.3
    rho0 = DensityMatrix(density_of(ensemble))

    def trace_gamma_d(matrices, angles):
        energies = np.einsum("ab,jcb,jcd,jda->j", rho0.matrix, np.conj(matrices[:-1]),
                             U.samples, matrices[:-1]).real
        generators = np.einsum("ka,kj,kb->jab", ensemble.states,
                               np.diff(angles, axis=1) / U.grid.dt, np.conj(ensemble.states))
        return -U.grid.dt * float(np.sum(energies - np.einsum("ab,jba->j", rho0.matrix,
                                                               generators).real))

    base_gamma, _ = trace_phase(U.matrices[-1], rho0.matrix)
    base_dyn = trace_gamma_d(U.matrices, np.zeros((3, U.grid.steps + 1)))
    diag_UT = np.array([np.vdot(s, U.matrices[-1] @ s) for s in ensemble.states])
    draws = np.random.default_rng(5)
    mismatch_gamma = mismatch_dyn = naive_gamma = naive_dyn = 0.0
    for _ in range(trials):
        ramped = GaugeFunction.random(3, U.grid.span, draws, scale=scale,
                                      slope_scale=2.0 * scale)
        angles = ramped.value(U.grid.nodes)
        rephasing = np.einsum("ka,kj,kb->jab", ensemble.states, np.exp(1j * angles),
                              np.conj(ensemble.states))
        U_prime = PropagatorPath(U.grid, np.einsum("jab,jbc->jac", U.matrices, rephasing))
        theta_0, theta_T = ramped.value(0.0), ramped.value(U.grid.t_end)
        gamma, _ = trace_phase(U_prime.matrices[-1], rho0.matrix)
        predicted = np.angle(np.sum(ensemble.weights * diag_UT * np.exp(1j * theta_T)))
        mismatch_gamma = max(mismatch_gamma, abs(wrap_angle(gamma - predicted)))
        naive_gamma = max(naive_gamma, abs(wrap_angle(gamma - base_gamma)))
        dyn = trace_gamma_d(U_prime.matrices, angles)
        predicted = base_dyn + np.sum(ensemble.weights * (theta_T - theta_0))
        mismatch_dyn = max(mismatch_dyn, abs(dyn - predicted))
        naive_dyn = max(naive_dyn, abs(dyn - base_dyn))

    paths, samples = members(U, ensemble), U.samples
    samplings, propagators = [], []
    sample, check = HamiltonianTrajectory.sample, PropagatorPath.__post_init__
    monkeypatch.setattr(HamiltonianTrajectory, "sample",
                        lambda self, times: samplings.append(1) or sample(self, times))
    monkeypatch.setattr(PropagatorPath, "__post_init__",
                        lambda self: propagators.append(1) or check(self))
    energies = paths.step_energies(samples)
    values = gauge_campaign(ensemble.weights, paths, samples, energies,
                            np.random.default_rng(5), trials, scale)
    assert not samplings
    assert not propagators
    assert naive_gamma > 1e-3 and naive_dyn > 1e-3
    for name, reference in (
        ("max_total_phase_prediction_mismatch", mismatch_gamma),
        ("max_dynamical_phase_prediction_mismatch", mismatch_dyn),
        ("max_naive_total_phase_shift", naive_gamma),
        ("max_naive_dynamical_phase_shift", naive_dyn),
    ):
        assert abs(values[name] - reference) < 1e-12, name


CAMPAIGN_INVARIANTS = (
    "max_gamma_total_deviation", "max_visibility_deviation", "max_holonomy_deviation",
    "max_singh_deviation", "max_total_phase_prediction_mismatch",
    "max_dynamical_phase_prediction_mismatch",
)


@pytest.mark.parametrize("mu_b, omega, theta", [
    (1.0, 1.0, np.pi / 3), (3.0, 0.7, 1.1), (10.0, 0.1, 2.0), (0.1, 10.0, 0.3),
])
def test_gauge_campaign_on_the_closed_form_paths(mu_b, omega, theta):
    # the campaign on the member paths the propagator made, its contract,
    # against the closed forms of the same scenario: its invariants hold to
    # rounding, its gamma_T and visibility are Tr[U(T) rho0] on the same
    # endpoints, and its Singh phase, read off the step energies, is
    # arg sum_k w_k e^{i phi_g,k} of the closed-form geometric phases to the
    # step error
    p = SpinParams(mu_b, omega, theta, np.pi / 4)
    grid = TimeGrid(0.0, p.period, 4000)
    weights = np.array([np.cos(p.big_theta / 2) ** 2, np.sin(p.big_theta / 2) ** 2])
    U = propagate(spin_model.hamiltonian(p), grid)
    ensemble = Ensemble(weights, np.array(spin_model.w_basis(p, 0.0)))
    paths = members(U, ensemble)
    values = gauge_campaign(weights, paths, U.samples, paths.step_energies(U.samples),
                            np.random.default_rng(7), 10, 0.1)
    for key in CAMPAIGN_INVARIANTS:
        assert values[key] <= 1e-12, key
    assert values["max_naive_total_phase_shift"] > 1e-3  # the ramped gauges do move gamma_T
    gamma, visibility = trace_phase(U.matrices[-1], density_of(ensemble))
    assert abs(wrap_angle(values["gamma_total"] - gamma)) <= 1e-14
    assert abs(values["visibility"] - visibility) <= 1e-14
    geometric = np.array([spin_model.geometric_phase(p, branch) for branch in "+-"])
    singh = np.angle(np.sum(weights * np.exp(1j * geometric)))
    assert abs(wrap_angle(values["singh_phase"] - singh)) <= 1e-6


@pytest.mark.parametrize("argv, passes", [
    (["simulate"], 0),  # every phase reads the step energies
    (["sweep", "--axis", "theta", "--values", "0.5,1.5"], 0),
    # the Bargmann holonomies of the member paths, then per trial of their one rephasing
    (["verify-gauge", "--trials", "1"], 1 + 1),
    (["verify-gauge", "--trials", "3"], 1 + 3),
])
def test_overlap_passes_per_command(argv, passes, monkeypatch, capsys):
    calls, estimator = [], phases.step_overlaps

    def counted(states):
        calls.append(states.shape)
        return estimator(states)

    for module in (phases, mixed, gauge, cli):
        monkeypatch.setattr(module, "step_overlaps", counted, raising=False)
    assert cli.main([*argv, "--steps", "2000"]) == 0
    capsys.readouterr()
    assert len(calls) == passes


def test_reduce_product_state():
    a = np.zeros((2, 2), dtype=complex)
    a[0, 0] = 1.0
    rho = reduce(PurifiedState(a))
    assert np.allclose(rho.matrix, np.diag([1.0, 0.0]))


def test_reduce_bell_state():
    a = np.eye(2, dtype=complex) / np.sqrt(2)
    assert np.allclose(reduce(PurifiedState(a)).matrix, np.eye(2) / 2)


def test_reduce_random_rectangular():
    rng = np.random.default_rng(19)
    a = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    a /= np.linalg.norm(a)
    rho = reduce(PurifiedState(a))
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-12
    assert np.min(np.linalg.eigvalsh(rho.matrix)) > -1e-12


def test_purify_pure_state_is_product():
    state = np.array([0.6, 0.8], dtype=complex)
    rho = DensityMatrix(np.outer(state, state))
    pure = purify(rho, 2)
    schmidt = np.linalg.svd(pure.coefficients, compute_uv=False)
    assert np.allclose(schmidt, [1.0, 0.0], atol=1e-8)


def test_purify_maximally_mixed_is_maximally_entangled():
    rho = DensityMatrix(np.eye(2, dtype=complex) / 2)
    pure = purify(rho, 2)
    schmidt = np.linalg.svd(pure.coefficients, compute_uv=False)
    assert np.allclose(schmidt, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)


def test_purify_round_trip_random():
    rng = np.random.default_rng(23)
    for dim in (2, 3, 4):
        rho = random_density(rng, dim)
        for ancilla in (dim, dim + 2):
            back = reduce(purify(rho, ancilla))
            assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-10


def test_purify_capacity_error():
    rho = DensityMatrix(np.eye(3, dtype=complex) / 3)
    with pytest.raises(CapacityError):
        purify(rho, 2)


def test_purify_ancilla_freedom_preserves_reduction():
    rng = np.random.default_rng(29)
    rho = random_density(rng, 3)
    W = random_unitary(rng, 3)
    twisted = purify(rho, 3, ancilla_unitary=W)
    assert np.max(np.abs(reduce(twisted).matrix - rho.matrix)) < 1e-10


def test_purify_checks_the_ancilla_unitary_by_its_gram_matrix():
    rng = np.random.default_rng(41)
    rho = random_density(rng, 4)
    W = random_unitary(rng, 16)
    assert np.max(np.abs(reduce(purify(rho, 16, W)).matrix - rho.matrix)) < 1e-10
    W[3, 5] += 1e-8
    with pytest.raises(ContractError, match="ancilla transform must be unitary"):
        purify(rho, 16, W)


def test_hidden_gauge_transform_keeps_reduction():
    rng = np.random.default_rng(31)
    rho = random_density(rng, 3)
    pure = purify(rho, 3)
    _, vecs = np.linalg.eigh(rho.matrix)
    phases = rng.uniform(-np.pi, np.pi, size=3)
    shifted = hidden_gauge_transform(pure, phases, vecs)
    assert np.max(np.abs(reduce(shifted).matrix - rho.matrix)) < 1e-12


@st.composite
def ranked_densities(draw):
    """(rho, its rank, an ancilla dimension from the rank to d + 1, the generator):
    rho of any rank 1..d at d <= 6, its nonzero eigenvalues drawn from [0.05, 1]
    before the trace is normalized."""
    dim = draw(st.integers(1, 6))
    rank = draw(st.integers(1, dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    V = random_unitary(rng, dim)[:, :rank]
    spectrum = rng.uniform(0.05, 1.0, rank)
    rho = DensityMatrix((V * (spectrum / spectrum.sum())) @ np.conj(V.T))
    return rho, rank, draw(st.integers(rank, dim + 1)), rng


@given(ranked_densities())
def test_purification_round_trip_holds_at_every_rank(drawn):
    rho, rank, ancilla, rng = drawn
    pure = purify(rho, ancilla)
    gauged = hidden_gauge_transform(pure, rng.uniform(-np.pi, np.pi, rho.dim), rho.eigenvectors)
    for state in (pure, purify(rho, ancilla, random_unitary(rng, ancilla)), gauged):
        assert np.max(np.abs(reduce(state).matrix - rho.matrix)) <= 1e-12
    # the canonical columns are orthogonal, their norms the Schmidt coefficients
    a = pure.coefficients
    schmidt = np.linalg.norm(a, axis=0)
    assert np.all(schmidt >= 0.0) and np.all(schmidt[:-1] >= schmidt[1:])
    assert abs(np.sum(schmidt**2) - 1.0) <= 1e-12
    assert np.max(np.abs(np.conj(a.T) @ a - np.diag(schmidt**2))) <= 1e-12
    with pytest.raises(CapacityError):
        purify(rho, rank - 1)


def schroedinger_residual(paths: PathStack, H_samples: np.ndarray, shift: np.ndarray):
    """max interior norm of (i d/dt - H + shift) psi_k over the paths, with shift
    a scalar field."""
    psi = paths.states
    dpsi = central_diff(psi, paths.grid.dt)
    residual = 1j * dpsi - np.einsum("jab,jbk->jak", H_samples, psi) + shift[:, None, None] * psi
    return float(np.max(np.linalg.norm(residual[1:-1], axis=1)))


def test_unequal_gauge_derivatives_break_schroedinger():
    # per-path phase transforms keep one Schroedinger equation only for equal
    # derivative functions; the residual against the common modified
    # Hamiltonian measures exactly the derivative spread.
    p = SpinParams(1.0, 1.0, np.pi / 3)
    grid = TimeGrid(0.0, p.period, 20000)
    paths = oracles.amplitude_paths(p, grid)
    H_samples = spin_model.hamiltonian(p).sample(grid.nodes)
    nodes = grid.nodes
    rng = np.random.default_rng(37)
    for _ in range(5):
        theta = GaugeFunction.random(2, grid.span, rng, scale=0.5, slope_scale=1.0)
        shift = theta.derivative(nodes)[0]  # absorb branch '+' into H'
        spread = np.max(
            np.abs(theta.derivative(nodes)[1] - theta.derivative(nodes)[0])
        )
        residual = schroedinger_residual(
            transform_evolution(paths, theta.value(nodes)), H_samples, shift)
        assert residual >= spread * (1.0 - 1e-3)
        # equal-derivative transform: same trig part, different constants
        equal = GaugeFunction(
            grid.span,
            const=np.array([0.2, -1.0]),
            cos_coeffs=np.tile(theta.cos_coeffs[0], (2, 1)),
            sin_coeffs=np.tile(theta.sin_coeffs[0], (2, 1)),
            slope=np.array([theta.slope[0], theta.slope[0]]),
        )
        shift_eq = equal.derivative(nodes)[0]
        residual_eq = schroedinger_residual(
            transform_evolution(paths, equal.value(nodes)), H_samples, shift_eq)
        assert residual_eq < 1e-2 * max(spread, 1.0)
