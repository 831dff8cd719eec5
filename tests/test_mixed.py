"""Mixed-state operations: observables, transforms, transport, purification."""
import re

import numpy as np
import pytest

from phaselab import SpinParams, TimeGrid, cli, gauge, mixed, phases, spin_model
from phaselab.evolution import HamiltonianTrajectory, PropagatorPath, member_paths, propagate
from phaselab.exceptions import (
    CapacityError,
    ContractError,
    DimensionError,
    UndefinedPhaseError,
)
from phaselab.gauge import BasisFrame, GaugeFunction, frame_from_amplitudes
from phaselab.mixed import (
    DensityMatrix,
    Ensemble,
    PurifiedState,
    density_from_ensemble,
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

from conftest import central_diff, mat_exp, random_density, random_hermitian, random_unitary


def members(U: PropagatorPath, ensemble: Ensemble) -> PathStack:
    """The member paths psi_k = U|k> of the ensemble's states."""
    return PathStack(U.grid, member_paths(U, ensemble.states))


def gamma_d(ensemble: Ensemble, U: PropagatorPath) -> float:
    """The mixed dynamical phase of U's member paths with the ensemble's weights."""
    return transport_conditions(ensemble.weights, members(U, ensemble))[2]


def eigen_ensemble(rho: DensityMatrix) -> Ensemble:
    """rho's eigenvalues over its eigenvectors, from np.linalg.eigh; a rank
    deficit's eigenvalues, zero to rounding, are clipped to zero."""
    vals, vecs = np.linalg.eigh(rho.matrix)
    return Ensemble(np.clip(vals, 0.0, None), vecs.T.copy())


def test_density_from_single_state():
    state = np.array([0.6, 0.8j])
    rho = density_from_ensemble(Ensemble(np.array([1.0]), state[None, :]))
    assert np.allclose(rho.matrix, np.outer(state, np.conj(state)))
    vals = np.linalg.eigvalsh(rho.matrix)
    assert np.allclose(sorted(vals), [0.0, 1.0], atol=1e-12)


def test_density_equal_weights_is_maximally_mixed():
    rho = density_from_ensemble(Ensemble(np.full(3, 1 / 3), np.eye(3, dtype=complex)))
    assert np.allclose(rho.matrix, np.eye(3) / 3)


def test_density_spin_mixture(special_case):
    rho = density_from_ensemble(special_case.ensemble)
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


def test_ensemble_weight_validation():
    with pytest.raises(ContractError):
        Ensemble(np.array([0.5, 0.4]), np.eye(2, dtype=complex))


def test_mixed_total_phase_global_phase():
    rho = DensityMatrix(np.eye(2, dtype=complex) / 2)
    gamma, vis = mixed_total_phase(rho, np.exp(1.2j) * np.eye(2))
    assert gamma == pytest.approx(1.2, abs=1e-12)
    assert vis == pytest.approx(1.0, abs=1e-12)


def test_mixed_total_phase_pure_reduction(generic_case):
    initial, final = generic_case.paths["+"].states[[0, -1], :, 0]
    rho = DensityMatrix(np.outer(initial, np.conj(initial)))
    gamma, vis = mixed_total_phase(rho, generic_case.U.matrices[-1])
    assert gamma == pytest.approx(np.angle(np.vdot(initial, final)), abs=1e-12)
    assert vis == pytest.approx(abs(np.vdot(initial, final)), abs=1e-12)


def test_mixed_total_phase_special_case(special_case):
    rho = density_from_ensemble(special_case.ensemble)
    gamma, vis = mixed_total_phase(rho, special_case.U.matrices[-1])
    expected = spin_model.mixed_trace(special_case.p)
    assert abs(vis * np.exp(1j * gamma) - expected) < 1e-6


def test_mixed_total_phase_undefined():
    rho = DensityMatrix(np.eye(2, dtype=complex) / 2)
    U = np.diag([1.0, -1.0]).astype(complex)  # trace of U rho vanishes
    with pytest.raises(UndefinedPhaseError):
        mixed_total_phase(rho, U)


def test_mixed_total_phase_rejects_wrong_shape():
    rho = DensityMatrix(np.eye(3, dtype=complex) / 3)
    for U_T in (np.eye(2, dtype=complex), np.eye(3, dtype=complex)[None]):
        with pytest.raises(DimensionError):
            mixed_total_phase(rho, U_T)


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
        lambda c: singh_phase([np.nan, np.nan], c.members)),
    "singh_phase-t0": (
        "orthonormal at t = 0",
        lambda c: singh_phase(c.weights, _nan_at_start(c.members))),
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
    initial = generic_case.paths["+"].states[0, :, 0]
    rho = DensityMatrix(np.outer(initial, np.conj(initial)))
    gamma_total, visibility = mixed_total_phase(rho, generic_case.U.matrices[-1])
    value = 1.0 + visibility * np.cos(-gamma_total)  # the fringe 1 + v cos(chi - gamma_T) at chi = 0
    assert value == pytest.approx(spin_model.interference_value(p), abs=1e-6)


def test_mixed_dynamical_phase_constant_hamiltonian():
    rng = np.random.default_rng(5)
    rho = random_density(rng, 2)
    E = np.diag([0.4, -1.1]).astype(complex)
    T, steps = 3.0, 6000
    grid = TimeGrid(0.0, T, steps)
    U = np.stack([mat_exp(-1j * E * t) for t in grid.nodes])
    path = PropagatorPath(grid, U)
    expected = -np.trace(rho.matrix @ E).real * T
    value = gamma_d(eigen_ensemble(rho), path)
    assert value == pytest.approx(expected, abs=1e-7)


def test_mixed_dynamical_phase_special_case(special_case):
    assert abs(gamma_d(special_case.ensemble, special_case.U)) < 1e-6


def test_mixed_dynamical_phase_linearity(generic_case):
    value = gamma_d(generic_case.ensemble, generic_case.U)
    samples = generic_case.H.sample(generic_case.grid.nodes)
    parts = [generic_case.paths[b].dynamical(samples)[0] for b in "+-"]
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
    rho0 = density_from_ensemble(generic_case.ensemble)
    transformed = transform_evolution(generic_case.members, theta.value(generic_case.grid.nodes))
    bras = np.conj(generic_case.ensemble.states)
    for j in (0, 1, 777, generic_case.grid.steps):
        before = generic_case.U.matrices[j] @ rho0.matrix @ np.conj(generic_case.U.matrices[j].T)
        U_prime = transformed.states[j] @ bras  # U'(t_j) = sum_k psi'_k(t_j) <k|
        after = U_prime @ rho0.matrix @ np.conj(U_prime.T)
        assert np.max(np.abs(after - before)) < 1e-10


def test_transform_evolution_shifts_dynamical_phase(generic_case):
    rng = np.random.default_rng(11)
    base = gamma_d(generic_case.ensemble, generic_case.U)
    for _ in range(3):
        theta = GaugeFunction.random(2, generic_case.grid.span, rng, scale=0.1, slope_scale=0.3)
        transformed = transform_evolution(generic_case.members,
                                          theta.value(generic_case.grid.nodes))
        shifted = transport_conditions(generic_case.weights, transformed)[2]
        jump = sum(
            w * (end - start)
            for w, end, start in zip(
                generic_case.weights, theta.value(generic_case.grid.t_end), theta.value(0.0)
            )
        )
        assert shifted - base == pytest.approx(jump, abs=1e-7)


def test_gauge_campaign_requires_complete_basis(generic_case):
    samples = generic_case.H.sample(generic_case.grid.nodes)
    with pytest.raises(DimensionError, match="1 states cannot span dimension 2"):
        gauge_campaign(np.array([1.0]), generic_case.paths["+"], samples,
                       np.random.default_rng(0), 1, 0.1)


def test_singh_phase_single_state_reduces_to_geometric(generic_case):
    path = generic_case.paths["+"]
    assert singh_phase(np.array([1.0]), path) == pytest.approx(
        float(np.angle(path.holonomies[0])), abs=1e-12
    )


def test_singh_phase_invariant_under_path_phases(generic_case):
    rng = np.random.default_rng(13)
    base = singh_phase(generic_case.weights, generic_case.members)
    nodes = generic_case.grid.nodes
    for _ in range(10):
        theta = GaugeFunction.random(2, generic_case.grid.span, rng, scale=0.1, slope_scale=0.2)
        shifted = transform_evolution(generic_case.members, theta.value(nodes))
        assert abs(wrap_angle(singh_phase(generic_case.weights, shifted) - base)) < 1e-7


def test_singh_phase_equals_total_phase_at_special_point(special_case):
    rho0 = density_from_ensemble(special_case.ensemble)
    gamma, _ = mixed_total_phase(rho0, special_case.U.matrices[-1])
    assert abs(wrap_angle(singh_phase(special_case.weights, special_case.members) - gamma)) < 1e-6


def test_transport_conditions_special_case(special_case):
    weak, strong, _ = transport_conditions(special_case.weights, special_case.members)
    assert np.max(strong) < 1e-6
    assert weak < 1e-6


def test_transport_conditions_generic(generic_case):
    p = generic_case.p
    weak, strong, _ = transport_conditions(generic_case.weights, generic_case.members)
    expected = p.mu_b * abs(np.cos(p.alpha))
    assert np.max(strong) == pytest.approx(expected, rel=1e-4)
    assert weak <= float(np.dot(generic_case.weights, strong)) + 1e-10


def test_transport_and_mixed_dynamical_phase_dim3():
    # non-commuting dim-3 generators and a 2-state ensemble (k < d), against
    # per-state sums of arg<psi_k(t_j), psi_k(t_{j+1})> written out with np.vdot,
    # and gamma_D against the central-difference -i int Tr[rho0 U^dagger dU] dt,
    # which it approaches as the grid is refined
    rng = np.random.default_rng(41)
    A, B, C = (random_hermitian(rng, 3) for _ in range(3))

    def batch(times):
        t = np.asarray(times, dtype=float)[..., None, None]
        return A + np.cos(t) * B + np.sin(2.0 * t) * C

    H = HamiltonianTrajectory(3, evaluate=batch)
    U = propagate(H, TimeGrid(0.0, 2.0, 400))
    Q = random_unitary(rng, 3)
    ensemble = Ensemble(np.array([0.7, 0.3]), Q[:, :2].T.copy())
    rho0 = density_from_ensemble(ensemble)

    def step_phases(U, states):
        """arg<psi_k(t_j), psi_k(t_{j+1})> per state k (rows) and step j."""
        return np.array([[np.angle(np.vdot(U.matrices[j] @ s, U.matrices[j + 1] @ s))
                          for j in range(U.grid.steps)] for s in states])

    def references(ensemble):
        phases = step_phases(U, ensemble.states)
        weak = np.max(np.abs(ensemble.weights @ phases)) / U.grid.dt
        strong = np.max(np.abs(phases), axis=1) / U.grid.dt
        return weak, strong, ensemble.weights @ phases.sum(axis=1)

    weak_reference, strong_reference, _ = references(ensemble)
    weak, strong, _ = transport_conditions(ensemble.weights, members(U, ensemble))
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
    # paths of U' = U sum_k e^{i theta_k}|k><k|, given the member paths and H's
    # node samples, and neither samples H nor builds a propagator itself; here
    # U' is formed matrix by matrix and read through the public functions on U'
    # and the density matrix (gamma_D in its own eigenbasis from
    # np.linalg.eigh), drawing the gauges in the campaign's order (periodic,
    # then ramped)
    rng = np.random.default_rng(43)
    A, B, C = (random_hermitian(rng, 3) for _ in range(3))

    def batch(times):
        t = np.asarray(times, dtype=float)[..., None, None]
        return A + np.cos(t) * B + np.sin(2.0 * t) * C

    H = HamiltonianTrajectory(3, evaluate=batch)
    U = propagate(H, TimeGrid(0.0, 2.0, 400))
    ensemble = Ensemble(np.array([0.5, 0.3, 0.2]), random_unitary(rng, 3).T.copy())
    trials, scale = 6, 0.3
    rho0 = density_from_ensemble(ensemble)
    base_gamma, _ = mixed_total_phase(rho0, U.matrices[-1])
    base_dyn = gamma_d(eigen_ensemble(rho0), U)
    diag_UT = np.array([np.vdot(s, U.matrices[-1] @ s) for s in ensemble.states])
    draws = np.random.default_rng(5)
    mismatch_gamma = mismatch_dyn = naive_gamma = naive_dyn = 0.0
    for _ in range(trials):
        GaugeFunction.random(3, U.grid.span, draws, scale=scale)
        ramped = GaugeFunction.random(3, U.grid.span, draws, scale=scale,
                                      slope_scale=2.0 * scale)
        rephasing = np.einsum("ka,kj,kb->jab", ensemble.states,
                              np.exp(1j * ramped.value(U.grid.nodes)), np.conj(ensemble.states))
        U_prime = PropagatorPath(U.grid, np.einsum("jab,jbc->jac", U.matrices, rephasing))
        theta_0, theta_T = ramped.value(0.0), ramped.value(U.grid.t_end)
        gamma, _ = mixed_total_phase(rho0, U_prime.matrices[-1])
        predicted = np.angle(np.sum(ensemble.weights * diag_UT * np.exp(1j * theta_T)))
        mismatch_gamma = max(mismatch_gamma, abs(wrap_angle(gamma - predicted)))
        naive_gamma = max(naive_gamma, abs(wrap_angle(gamma - base_gamma)))
        dyn = gamma_d(eigen_ensemble(rho0), U_prime)
        predicted = base_dyn + np.sum(ensemble.weights * (theta_T - theta_0))
        mismatch_dyn = max(mismatch_dyn, abs(dyn - predicted))
        naive_dyn = max(naive_dyn, abs(dyn - base_dyn))

    paths, samples = members(U, ensemble), H.sample(U.grid.nodes)
    samplings, propagators = [], []
    sample, check = HamiltonianTrajectory.sample, PropagatorPath.__post_init__
    monkeypatch.setattr(HamiltonianTrajectory, "sample",
                        lambda self, times: samplings.append(1) or sample(self, times))
    monkeypatch.setattr(PropagatorPath, "__post_init__",
                        lambda self: propagators.append(1) or check(self))
    values = gauge_campaign(ensemble.weights, paths, samples, np.random.default_rng(5),
                            trials, scale)
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
    # the campaign takes any member stack of a complete basis: here the exact
    # amplitudes, with no propagator.  Its invariants hold to rounding, its
    # gamma_T and visibility are the closed form's on the same endpoints, and
    # its Singh phase is arg sum_k w_k e^{i phi_g,k} to the step error
    p = SpinParams(mu_b, omega, theta, np.pi / 4)
    grid = TimeGrid(0.0, p.period, 4000)
    weights = np.array([np.cos(p.big_theta / 2) ** 2, np.sin(p.big_theta / 2) ** 2])
    values = gauge_campaign(weights, spin_model.amplitude_paths(p, grid),
                            spin_model.hamiltonian(p).sample(grid.nodes),
                            np.random.default_rng(7), 10, 0.1)
    for key in CAMPAIGN_INVARIANTS:
        assert values[key] <= 1e-12, key
    assert values["max_naive_total_phase_shift"] > 1e-3  # the ramped gauges do move gamma_T
    trace = spin_model.mixed_trace(p)
    assert abs(wrap_angle(values["gamma_total"] - np.angle(trace))) <= 1e-14
    assert abs(values["visibility"] - abs(trace)) <= 1e-14
    geometric = np.array([spin_model.geometric_phase(p, branch) for branch in "+-"])
    singh = np.angle(np.sum(weights * np.exp(1j * geometric)))
    assert abs(wrap_angle(values["singh_phase"] - singh)) <= 1e-6


@pytest.mark.parametrize("argv, passes", [
    (["simulate"], 1),  # one per scenario
    (["sweep", "--axis", "theta", "--values", "0.5,1.5"], 2),  # one per point
    # the member paths and the frame, then per trial the gauged frame and the
    # rephased member paths
    (["verify-gauge", "--trials", "1"], 2 + 2 * 1),
    (["verify-gauge", "--trials", "3"], 2 + 2 * 3),
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


def test_hidden_gauge_transform_keeps_reduction():
    rng = np.random.default_rng(31)
    rho = random_density(rng, 3)
    pure = purify(rho, 3)
    _, vecs = np.linalg.eigh(rho.matrix)
    phases = rng.uniform(-np.pi, np.pi, size=3)
    shifted = hidden_gauge_transform(pure, phases, vecs)
    assert np.max(np.abs(reduce(shifted).matrix - rho.matrix)) < 1e-12


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
    paths = spin_model.amplitude_paths(p, grid)
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
