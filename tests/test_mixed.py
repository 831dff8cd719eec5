"""Mixed-state operations: observables, transforms, transport, purification."""
import numpy as np
import pytest

from phaselab import SpinParams, TimeGrid, cli, gauge, mixed, numerics, phases, spin_model
from phaselab.evolution import (
    AmplitudePath,
    HamiltonianTrajectory,
    PropagatorPath,
    amplitude_path,
    propagate,
)
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
    ensemble_from_density,
    evolve_density,
    gauge_campaign,
    hidden_gauge_transform,
    interference_curve,
    mixed_dynamical_phase,
    mixed_total_phase,
    purify,
    reduce,
    singh_phase,
    transform_evolution,
    transport_conditions,
)
from phaselab.numerics import central_diff, wrap_angle
from phaselab.phases import dynamical_phase, geometric_phase_pure

from conftest import mat_exp, random_density, random_hermitian, random_unitary, w_frame


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


def test_evolve_density():
    rng = np.random.default_rng(3)
    rho = random_density(rng, 3)
    assert np.array_equal(evolve_density(rho, np.eye(3)).matrix, rho.matrix)
    state = np.array([1.0, 0.0, 0.0], dtype=complex)
    pure = DensityMatrix(np.outer(state, state))
    V = random_unitary(rng, 3)
    rotated = evolve_density(pure, V)
    assert np.max(np.abs(rotated.matrix - np.outer(V[:, 0], np.conj(V[:, 0])))) < 1e-12
    before = np.linalg.eigvalsh(rho.matrix)
    after = np.linalg.eigvalsh(evolve_density(rho, V).matrix)
    assert np.max(np.abs(before - after)) < 1e-10
    with pytest.raises(ContractError):
        evolve_density(rho, 2.0 * np.eye(3))


def test_mixed_total_phase_global_phase():
    rho = DensityMatrix(np.eye(2, dtype=complex) / 2)
    gamma, vis = mixed_total_phase(rho, np.exp(1.2j) * np.eye(2))
    assert gamma == pytest.approx(1.2, abs=1e-12)
    assert vis == pytest.approx(1.0, abs=1e-12)


def test_mixed_total_phase_pure_reduction(generic_case):
    path = generic_case.paths["+"]
    rho = DensityMatrix(np.outer(path.initial, np.conj(path.initial)))
    gamma, vis = mixed_total_phase(rho, generic_case.U.final)
    assert gamma == pytest.approx(np.angle(np.vdot(path.initial, path.final)), abs=1e-12)
    assert vis == pytest.approx(abs(np.vdot(path.initial, path.final)), abs=1e-12)


def test_mixed_total_phase_special_case(special_case):
    rho = density_from_ensemble(special_case.ensemble)
    gamma, vis = mixed_total_phase(rho, special_case.U.final)
    expected = spin_model.mixed_trace(special_case.p)
    assert abs(vis * np.exp(1j * gamma) - expected) < 1e-6


def test_mixed_total_phase_undefined():
    rho = DensityMatrix(np.eye(2, dtype=complex) / 2)
    U = np.diag([1.0, -1.0]).astype(complex)  # trace of U rho vanishes
    with pytest.raises(UndefinedPhaseError):
        mixed_total_phase(rho, U)


def test_interference_curve_shapes():
    rho_pure = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    chi = np.linspace(-np.pi, np.pi, 9)
    curve = interference_curve(rho_pure, np.eye(2, dtype=complex), chi)
    assert np.allclose(curve, 1.0 + np.cos(chi))
    assert curve.max() == pytest.approx(2.0)
    rho_mixed = DensityMatrix(np.eye(4, dtype=complex) / 4)
    U = np.diag([1.0, 1j, -1.0, -1j])
    assert np.allclose(interference_curve(rho_mixed, U, chi), 1.0)


# each record stores the array it validated, so nested lists work like arrays
GRID = TimeGrid(0.0, 1.0, 4)
LIST_RECORDS = {
    "DensityMatrix": (lambda: DensityMatrix([[0.5, 0], [0, 0.5]]), "matrix",
                      lambda r: r.dim == 2 and reduce(purify(r, 2)).dim == 2),
    "Ensemble": (lambda: Ensemble([0.5, 0.5], [[1, 0], [0, 1]]), "states",
                 lambda r: (r.size, r.dim) == (2, 2)),
    "PurifiedState": (lambda: PurifiedState([[0.6, 0], [0, 0.8]]), "coefficients",
                      lambda r: (r.system_dim, r.ancilla_dim) == (2, 2)),
    "AmplitudePath": (lambda: AmplitudePath(GRID, [[1, 0]] * 5), "states",
                      lambda r: r.dim == 2 and list(r.final) == [1, 0]),
    "PropagatorPath": (lambda: PropagatorPath(GRID, [[[1, 0], [0, 1]]] * 5), "matrices",
                       lambda r: r.dim == 2 and r.final.shape == (2, 2)),
    "BasisFrame": (lambda: BasisFrame(GRID, [[[1], [0]]] * 5, ("a",)), "states",
                   lambda r: r.dim == 2 and r.component("a").shape == (5, 2)),
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


def _nan_at_start(path):
    """A copy of the path whose first state turns NaN after its own norm check."""
    fresh = AmplitudePath(path.grid, path.states.copy())
    fresh.states[0, 0] = np.nan
    return fresh


# every tolerance check compares as `not x <= tol`, which a NaN fails; the
# message names the check, not a later one that catches the NaN downstream
NAN_INPUTS = {
    "amplitude_path-initial-norm": (
        "initial state must be normalized",
        lambda c: amplitude_path(c.U, np.array([np.nan, 0.0]))),
    "BasisFrame-orthonormality": (
        "frame not orthonormal",
        lambda c: BasisFrame(c.grid, np.full((c.grid.steps + 1, 2, 1), np.nan), ("a",))),
    "frame_from_amplitudes-t0": (
        "orthonormal at t = 0",
        lambda c: frame_from_amplitudes([_nan_at_start(c.paths["+"]), c.paths["-"]])),
    "PurifiedState-norm": (
        "purified state norm",
        lambda c: PurifiedState(np.full((2, 2), np.nan, dtype=complex))),
    "evolve_density-unitarity": (
        "evolution matrix not unitary",
        lambda c: evolve_density(DensityMatrix(np.eye(2) / 2), np.full((2, 2), np.nan))),
    "singh_phase-weights": (
        "weights must be normalized",
        lambda c: singh_phase([np.nan, np.nan], [c.paths["+"], c.paths["-"]])),
    "singh_phase-t0": (
        "orthonormal at t = 0",
        lambda c: singh_phase(c.weights, [_nan_at_start(c.paths["+"]), c.paths["-"]])),
    "purify-ancilla-unitarity": (
        "ancilla transform must be unitary",
        lambda c: purify(DensityMatrix(np.eye(2) / 2), 2, np.full((2, 2), np.nan))),
}


@pytest.mark.parametrize("site", NAN_INPUTS)
def test_tolerance_checks_reject_nan(site, generic_case):
    message, call = NAN_INPUTS[site]
    with pytest.raises(ContractError, match=message):
        call(generic_case)


def test_interference_curve_rejects_wrong_shape():
    # the curve takes Tr[U_T rho0] from mixed_total_phase, so it shares its checks
    rho = DensityMatrix(np.eye(3, dtype=complex) / 3)
    chi = np.linspace(-np.pi, np.pi, 5)
    for U_T in (np.eye(2, dtype=complex), np.eye(3, dtype=complex)[None]):
        with pytest.raises(DimensionError):
            interference_curve(rho, U_T, chi)


def test_interference_curve_reproduces_spin_formula(generic_case):
    p = generic_case.p
    path = generic_case.paths["+"]
    rho = DensityMatrix(np.outer(path.initial, np.conj(path.initial)))
    value = interference_curve(rho, generic_case.U.final, np.array([0.0]))[0]
    assert value == pytest.approx(spin_model.interference_value(p), abs=1e-6)


def test_mixed_dynamical_phase_constant_hamiltonian():
    rng = np.random.default_rng(5)
    rho = random_density(rng, 2)
    E = np.diag([0.4, -1.1]).astype(complex)
    T, steps = 3.0, 6000
    grid = TimeGrid(0.0, T, steps)
    U = np.stack([mat_exp(-1j * E * t) for t in grid.nodes])
    from phaselab.evolution import PropagatorPath

    path = PropagatorPath(grid, U)
    expected = -np.trace(rho.matrix @ E).real * T
    value = mixed_dynamical_phase(rho, path)
    assert value == pytest.approx(expected, abs=1e-7)


def test_mixed_dynamical_phase_special_case(special_case):
    rho = density_from_ensemble(special_case.ensemble)
    assert abs(mixed_dynamical_phase(rho, special_case.U)) < 1e-6


def test_mixed_dynamical_phase_linearity(generic_case):
    rho = density_from_ensemble(generic_case.ensemble)
    value = mixed_dynamical_phase(rho, generic_case.U)
    parts = [
        dynamical_phase(generic_case.paths[b], generic_case.H.sample(generic_case.grid.nodes))
        for b in "+-"
    ]
    expected = generic_case.weights[0] * parts[0] + generic_case.weights[1] * parts[1]
    assert value == pytest.approx(expected, abs=1e-6)


def test_transform_evolution_identity(generic_case):
    theta = GaugeFunction.zero(("+", "-"), generic_case.grid.span)
    transformed = transform_evolution(generic_case.U, theta, generic_case.ensemble)
    assert np.max(np.abs(transformed.matrices - generic_case.U.matrices)) < 1e-12


def test_transform_evolution_preserves_orbit(generic_case):
    rng = np.random.default_rng(7)
    theta = GaugeFunction.random(
        ("+", "-"), generic_case.grid.span, rng, scale=0.3, slope_scale=0.3
    )
    rho0 = density_from_ensemble(generic_case.ensemble)
    transformed = transform_evolution(generic_case.U, theta, generic_case.ensemble)
    for j in (0, 1, 777, generic_case.grid.steps):
        before = generic_case.U.matrices[j] @ rho0.matrix @ np.conj(generic_case.U.matrices[j].T)
        after = transformed.matrices[j] @ rho0.matrix @ np.conj(transformed.matrices[j].T)
        assert np.max(np.abs(after - before)) < 1e-10


def test_transform_evolution_shifts_dynamical_phase(generic_case):
    rng = np.random.default_rng(11)
    rho0 = density_from_ensemble(generic_case.ensemble)
    base = mixed_dynamical_phase(rho0, generic_case.U)
    for _ in range(3):
        theta = GaugeFunction.random(
            ("+", "-"), generic_case.grid.span, rng, scale=0.1, slope_scale=0.3
        )
        transformed = transform_evolution(generic_case.U, theta, generic_case.ensemble)
        shifted = mixed_dynamical_phase(rho0, transformed)
        jump = sum(
            w * (end - start)
            for w, end, start in zip(
                generic_case.weights, theta.value(generic_case.grid.t_end), theta.value(0.0)
            )
        )
        assert shifted - base == pytest.approx(jump, abs=1e-7)


def test_transform_evolution_requires_complete_basis(generic_case):
    theta = GaugeFunction.zero(("+",), generic_case.grid.span)
    half = Ensemble(np.array([1.0]), generic_case.ensemble.states[:1])
    with pytest.raises(DimensionError):
        transform_evolution(generic_case.U, theta, half)


def test_singh_phase_single_state_reduces_to_geometric(generic_case):
    path = generic_case.paths["+"]
    assert singh_phase(np.array([1.0]), [path]) == pytest.approx(
        geometric_phase_pure(path), abs=1e-12
    )


def test_singh_phase_invariant_under_path_phases(generic_case):
    rng = np.random.default_rng(13)
    paths = [generic_case.paths["+"], generic_case.paths["-"]]
    base = singh_phase(generic_case.weights, paths)
    nodes = generic_case.grid.nodes
    for _ in range(10):
        theta = GaugeFunction.random(
            ("+", "-"), generic_case.grid.span, rng, scale=0.1, slope_scale=0.2
        )
        shifted = [
            AmplitudePath(p.grid, p.states * np.exp(1j * a)[:, None])
            for a, p in zip(theta.value(nodes), paths)
        ]
        assert abs(wrap_angle(singh_phase(generic_case.weights, shifted) - base)) < 1e-7


def test_singh_phase_equals_total_phase_at_special_point(special_case):
    rho0 = density_from_ensemble(special_case.ensemble)
    gamma, _ = mixed_total_phase(rho0, special_case.U.final)
    paths = [special_case.paths["+"], special_case.paths["-"]]
    assert abs(wrap_angle(singh_phase(special_case.weights, paths) - gamma)) < 1e-6


def test_transport_conditions_special_case(special_case):
    weak, strong, _ = transport_conditions(special_case.ensemble, special_case.U)
    assert np.max(strong) < 1e-6
    assert weak < 1e-6


def test_transport_conditions_generic(generic_case):
    p = generic_case.p
    weak, strong, _ = transport_conditions(generic_case.ensemble, generic_case.U)
    expected = p.mu_b * abs(np.cos(p.alpha))
    assert np.max(strong) == pytest.approx(expected, rel=1e-4)
    assert weak <= float(np.dot(generic_case.weights, strong)) + 1e-10


def test_transport_conditions_accepts_density_matrix(generic_case):
    rho0 = density_from_ensemble(generic_case.ensemble)
    weak_e, strong_e, _ = transport_conditions(generic_case.ensemble, generic_case.U)
    weak_d, strong_d, _ = transport_conditions(rho0, generic_case.U)
    assert weak_d == pytest.approx(weak_e, abs=1e-10)
    assert np.allclose(sorted(strong_d), sorted(strong_e), atol=1e-8)


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
    weak, strong, _ = transport_conditions(ensemble, U)
    assert strong.shape == (2,)
    assert np.max(np.abs(strong - strong_reference)) < 1e-12
    assert abs(weak - weak_reference) < 1e-12
    weak_d, strong_d, _ = transport_conditions(rho0, U)
    weak_reference, strong_reference, _ = references(ensemble_from_density(rho0))
    assert np.max(np.abs(strong_d - strong_reference)) < 1e-12
    assert abs(weak_d - weak_reference) < 1e-12

    other = random_density(rng, 3)
    for rho, given in ((rho0, rho0), (rho0, ensemble), (other, other)):
        _, _, expected = references(ensemble_from_density(rho))
        assert abs(mixed_dynamical_phase(given, U) - expected) < 1e-12

    def central_difference_gamma_d(U, rho):
        D = np.conj(np.swapaxes(U.matrices, -2, -1)) @ central_diff(U.matrices, U.grid.dt)
        integrand = -1j * np.einsum("ab,jba->j", rho.matrix, D)
        return (integrand[1:-1].sum() + 0.5 * (integrand[0] + integrand[-1])).real * U.grid.dt

    gaps = []
    for steps in (400, 800, 1600, 3200):
        refined = propagate(H, TimeGrid(0.0, 2.0, steps))
        gaps.append(abs(mixed_dynamical_phase(other, refined)
                        - central_difference_gamma_d(refined, other)))
    assert all(3.5 < coarse / fine < 4.5 for coarse, fine in zip(gaps, gaps[1:])), gaps


def test_gauge_campaign_matches_transformed_propagator_dim3(monkeypatch):
    # the campaign reads the equivalence-class shifts off the rephased member
    # paths of U' = U sum_k e^{i theta_k}|k><k| with H sampled once; here they
    # come from the public functions on U' and the density matrix, drawing the
    # gauges in the campaign's order (periodic, then ramped)
    rng = np.random.default_rng(43)
    A, B, C = (random_hermitian(rng, 3) for _ in range(3))

    def batch(times):
        t = np.asarray(times, dtype=float)[..., None, None]
        return A + np.cos(t) * B + np.sin(2.0 * t) * C

    H = HamiltonianTrajectory(3, evaluate=batch)
    U = propagate(H, TimeGrid(0.0, 2.0, 400))
    ensemble = Ensemble(np.array([0.5, 0.3, 0.2]), random_unitary(rng, 3).T.copy())
    labels, trials, scale = ("a", "b", "c"), 6, 0.3
    rho0 = density_from_ensemble(ensemble)
    base_gamma, _ = mixed_total_phase(rho0, U.final)
    base_dyn = mixed_dynamical_phase(rho0, U)
    diag_UT = np.array([np.vdot(s, U.final @ s) for s in ensemble.states])
    draws = np.random.default_rng(5)
    mismatch_gamma = mismatch_dyn = naive_gamma = naive_dyn = 0.0
    for _ in range(trials):
        GaugeFunction.random(labels, U.grid.span, draws, scale=scale)
        ramped = GaugeFunction.random(labels, U.grid.span, draws, scale=scale,
                                      slope_scale=2.0 * scale)
        U_prime = transform_evolution(U, ramped, ensemble)
        theta_0, theta_T = ramped.value(0.0), ramped.value(U.grid.t_end)
        gamma, _ = mixed_total_phase(rho0, U_prime.final)
        predicted = np.angle(np.sum(ensemble.weights * diag_UT * np.exp(1j * theta_T)))
        mismatch_gamma = max(mismatch_gamma, abs(wrap_angle(gamma - predicted)))
        naive_gamma = max(naive_gamma, abs(wrap_angle(gamma - base_gamma)))
        dyn = mixed_dynamical_phase(rho0, U_prime)
        predicted = base_dyn + np.sum(ensemble.weights * (theta_T - theta_0))
        mismatch_dyn = max(mismatch_dyn, abs(dyn - predicted))
        naive_dyn = max(naive_dyn, abs(dyn - base_dyn))

    samplings = []
    sample = HamiltonianTrajectory.sample
    monkeypatch.setattr(HamiltonianTrajectory, "sample",
                        lambda self, times: samplings.append(1) or sample(self, times))
    values = gauge_campaign(H, U, ensemble, labels, np.random.default_rng(5), trials, scale)
    assert len(samplings) == 1
    assert naive_gamma > 1e-3 and naive_dyn > 1e-3
    for name, reference in (
        ("max_total_phase_prediction_mismatch", mismatch_gamma),
        ("max_dynamical_phase_prediction_mismatch", mismatch_dyn),
        ("max_naive_total_phase_shift", naive_gamma),
        ("max_naive_dynamical_phase_shift", naive_dyn),
    ):
        assert abs(values[name] - reference) < 1e-12, name


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


def test_a_sweep_point_takes_no_central_difference(generic_case, monkeypatch, capsys):
    # every phase is read off the step phases, so no stack of differences is
    # formed; effective_hamiltonian still takes one, which shows the counter
    # is live
    calls, difference = [], numerics.central_diff

    def counted(y, dt):
        calls.append(np.shape(y))
        return difference(y, dt)

    for module in (numerics, phases, mixed, gauge, cli):
        monkeypatch.setattr(module, "central_diff", counted, raising=False)
    assert cli.main(["sweep", "--axis", "theta", "--values", "0.5", "--steps", "2000"]) == 0
    capsys.readouterr()
    assert calls == []
    frame = w_frame(generic_case.p, generic_case.grid)
    gauge.effective_hamiltonian(frame, generic_case.H.sample(generic_case.grid.nodes))
    assert len(calls) == 1


def test_ensemble_from_density_round_trip():
    rng = np.random.default_rng(17)
    rho = random_density(rng, 4)
    ensemble = ensemble_from_density(rho)
    assert np.max(np.abs(density_from_ensemble(ensemble).matrix - rho.matrix)) < 1e-10


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


def schroedinger_residual(path: AmplitudePath, H_samples: np.ndarray, shift: np.ndarray):
    """max interior norm of (i d/dt - H + shift) psi, with shift a scalar field."""
    dpsi = central_diff(path.states, path.grid.dt)
    residual = (
        1j * dpsi
        - np.einsum("jab,jb->ja", H_samples, path.states)
        + shift[:, None] * path.states
    )
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
        theta = GaugeFunction.random(("+", "-"), grid.span, rng, scale=0.5, slope_scale=1.0)
        shifted = [
            AmplitudePath(path.grid, path.states * np.exp(1j * a)[:, None])
            for a, path in zip(theta.value(nodes), paths)
        ]
        shift = theta.derivative(nodes)[0]  # absorb branch '+' into H'
        spread = np.max(
            np.abs(theta.derivative(nodes)[1] - theta.derivative(nodes)[0])
        )
        residual = max(
            schroedinger_residual(shifted[0], H_samples, shift),
            schroedinger_residual(shifted[1], H_samples, shift),
        )
        assert residual >= spread * (1.0 - 1e-3)
        # equal-derivative transform: same trig part, different constants
        equal = GaugeFunction(
            ("+", "-"),
            grid.span,
            const=np.array([0.2, -1.0]),
            cos_coeffs=np.tile(theta.cos_coeffs[0], (2, 1)),
            sin_coeffs=np.tile(theta.sin_coeffs[0], (2, 1)),
            slope=np.array([theta.slope[0], theta.slope[0]]),
        )
        shifted_eq = [
            AmplitudePath(path.grid, path.states * np.exp(1j * a)[:, None])
            for a, path in zip(equal.value(nodes), paths)
        ]
        shift_eq = equal.derivative(nodes)[0]
        residual_eq = max(
            schroedinger_residual(shifted_eq[0], H_samples, shift_eq),
            schroedinger_residual(shifted_eq[1], H_samples, shift_eq),
        )
        assert residual_eq < 1e-2 * max(spread, 1.0)
