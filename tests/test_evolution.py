"""Propagator contracts: oracle agreement, convergence order, invariants."""
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from phaselab import HamiltonianTrajectory, SpinParams, TimeGrid, propagate, spin_model
from phaselab.cli import build_scenario, parse_config_file
from phaselab.evolution import PropagatorPath, member_paths
from phaselab.exceptions import ContractError, DimensionError, NumericError
from phaselab.linalg import (_pair_norms, _two_level_matrices, hermitian_step_exp,
                             ordered_pairs, pair_norm_defect, unitarity_defect)
from phaselab.phases import frame_energies, state_energies

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
        float(np.linalg.norm(U.matrices[-1] @ w_plus - exact_plus)),
        float(np.linalg.norm(U.matrices[-1] @ w_minus - exact_minus)),
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
    assert np.max(np.abs(U.matrices[-1] - mat_exp(1j * mu_b * T * SZ))) < 1e-12


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
    assert np.max(np.abs(second.matrices[-1] @ first.matrices[-1] - full.matrices[-1])) < 1e-8


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
    assert np.max(np.abs(U.matrices[-1] - expected)) < 1e-12


SCAN_SIZES = (1, 2, 3, 37, 64, 65, 1040, 1041, 20000, 40000)


@pytest.mark.parametrize(
    "steps, dim",
    # dim 3 runs the np.matmul path of the product kernel, dim 2 its elementwise
    # path.  Up to 64 steps are one plain loop; 65 are 5 blocks of 16, the last
    # padded; 1040 and 1041 leave 64 and 65 block totals for the next level
    # (a loop, then one more level); 20000 (the default) and 40000 (criterion
    # 1's finer grid) take three levels
    [pytest.param(steps, 3, id=f"{steps}") for steps in SCAN_SIZES]
    + [pytest.param(steps, 2, id=f"dim2-{steps}") for steps in SCAN_SIZES],
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


@pytest.mark.parametrize("dim", [2, 3])
def test_propagate_keeps_the_midpoint_samples_it_was_made_from(dim):
    # H is sampled once, on the midpoints, and the path hands those very
    # samples on: the step energies read the stack the propagator read
    rng = np.random.default_rng(dim)
    A, B = random_hermitian(rng, dim), random_hermitian(rng, dim)
    H = HamiltonianTrajectory(dim, lambda t: A + np.cos(3.0 * t)[:, None, None] * B)
    grid = TimeGrid(0.0, 1.0, 300)
    path = propagate(H, grid)
    assert path.samples.tobytes() == H.sample(grid.midpoints).tobytes()
    assert PropagatorPath(grid, path.stack, path.phases).samples is None


def test_rejects_non_hermitian_evaluation():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    H = HamiltonianTrajectory(2, evaluate=lambda times: np.broadcast_to(bad, (len(times), 2, 2)))
    with pytest.raises(ContractError):
        propagate(H, TimeGrid(0.0, 1.0, 16))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_sample_rejects_non_finite_entries(dim, value):
    samples = np.zeros((4, dim, dim), dtype=complex)
    samples[2, 0, dim - 1] = samples[2, dim - 1, 0] = value
    H = HamiltonianTrajectory(dim, evaluate=lambda times: samples[: len(times)].copy())
    with pytest.raises(NumericError, match="non-finite entries"):
        H.sample(np.zeros(4))


def test_two_level_sample_peak_at_the_default_steps():
    # the samples outlive propagation (the step energies read them), and at
    # d = 2 the Hermiticity check allocates four rows of n reals: the two
    # squared norms, the diagonal sum and one scratch row.  A spin sample on
    # 20000 midpoints, a 1.28 MB output, peaks at 1.92 MB (2.08 MB with a
    # fresh temporary per product)
    grid = TimeGrid(0.0, 2.0 * np.pi, 20000)
    grid.midpoints  # cached on the grid, so it outlives the call
    H = spin_model.hamiltonian(SpinParams(1.0, 1.0, np.pi / 3))
    tracemalloc.start()
    try:
        H.sample(grid.midpoints)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.95e6


@pytest.mark.parametrize("dim", [2, 3])
def test_sample_rejects_an_overflowing_norm_of_finite_entries(dim):
    # finite entries whose squared norm overflows are a contract failure, not a NaN
    samples = np.zeros((4, dim, dim), dtype=complex)
    samples[2] = 1e200 * np.eye(dim)
    H = HamiltonianTrajectory(dim, evaluate=lambda times: samples[: len(times)].copy())
    with pytest.raises(ContractError, match="non-finite Frobenius norm"):
        H.sample(np.zeros(4))


def test_paths_reject_nan():
    # NaN compares false with every tolerance, so `defect > tol` would pass it
    grid = TimeGrid(0.0, 1.0, 2)
    with pytest.raises(ContractError):
        PropagatorPath(grid, np.full((3, 2, 2), np.nan, dtype=complex))


def test_amplitude_path_eigenstate():
    vals = np.array([-0.5, 1.5])
    H = constant_trajectory(np.diag(vals).astype(complex))
    grid = TimeGrid(0.0, 2.0, 200)
    U = propagate(H, grid)
    e0 = np.array([1.0, 0.0], dtype=complex)
    psi = member_paths(U, e0[None])[..., 0]
    expected = np.exp(-1j * vals[0] * grid.nodes)[:, None] * e0[None, :]
    assert np.max(np.abs(psi - expected)) < 1e-12


def test_amplitude_paths_stay_orthogonal(generic_case):
    plus, minus = generic_case.members.states.transpose(2, 0, 1)
    overlaps = np.einsum("ja,ja->j", np.conj(plus), minus)
    assert np.max(np.abs(overlaps)) < 1e-9


def test_spin_amplitude_matches_closed_form(generic_case):
    exact_plus, _ = spin_model.exact_amplitudes(generic_case.p, generic_case.p.period)
    assert np.linalg.norm(generic_case.members.states[-1, :, 0] - exact_plus) < 1e-6


def test_amplitude_path_is_the_one_column_member_path(generic_case):
    # a single path is member_paths on one column; at d >= 3 numpy runs a
    # one-column product as a matrix-vector BLAS call, whose rounding may
    # differ from the k-column GEMM's by about one ulp
    states = generic_case.ensemble.states
    stack = member_paths(generic_case.U, states)
    for k, state in enumerate(states):
        path = member_paths(generic_case.U, state[None, :])
        assert path.shape == stack.shape[:2] + (1,)
        assert np.max(np.abs(path[..., 0] - stack[..., k])) <= np.finfo(float).eps


def test_amplitude_path_matches_member_paths_dim3_custom(monkeypatch):
    # the golden dim-3 custom-sampled scenario, whose states are basis vectors
    monkeypatch.chdir(Path(__file__).parent / "golden")
    sc = build_scenario(parse_config_file("custom.cfg"))
    U = propagate(sc.H, sc.grid)
    stack = member_paths(U, sc.ensemble.states)
    assert stack.shape == (801, 3, 3)
    for k, state in enumerate(sc.ensemble.states):
        assert np.array_equal(member_paths(U, state[None, :])[..., 0], stack[..., k])


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_member_paths_are_the_products_with_each_state(dim):
    # psi_k(t_j) = U(t_j) s_k against matmul, on the path `propagate` returns
    # (at dim 2 its Cayley-Klein pairs), and on U's matrices as `matrices`
    # lays them out and in C order, which give the same bits
    rng = np.random.default_rng(30 + dim)
    grid = TimeGrid(0.0, 1.0, 300)
    A, B = random_hermitian(rng, dim), random_hermitian(rng, dim)
    H = HamiltonianTrajectory(dim, lambda t: A + np.cos(3.0 * t)[:, None, None] * B)
    U = propagate(H, grid)
    states = rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))
    states /= np.linalg.norm(states, axis=1)[:, None]
    stack = member_paths(U, states)
    assert stack.shape == (grid.steps + 1, dim, 3)
    assert np.max(np.abs(stack - U.matrices @ states.T)) <= 1e-15
    as_formed = member_paths(PropagatorPath(grid, U.matrices), states)
    assert np.max(np.abs(as_formed - U.matrices @ states.T)) <= 1e-15
    C_order = PropagatorPath(grid, np.ascontiguousarray(U.matrices))
    assert np.array_equal(member_paths(C_order, states), as_formed)


def test_unitarity_gate_reads_any_layout():
    # the two-level propagator is stored component-major; perturbed by 1e-8 it
    # fails the gate with the message of the same stack in C order
    grid = TimeGrid(0.0, 1.0, 200)
    U = propagate(spin_model.hamiltonian(SpinParams(1.0, 2.0, 0.7)), grid).matrices
    bad = U * (1.0 + 1e-8)  # in U's memory order
    messages = []
    for stack in (bad, np.ascontiguousarray(bad)):
        with pytest.raises(ContractError, match="propagator not unitary") as info:
            PropagatorPath(grid, stack)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_member_paths_rejects_wrong_width(generic_case):
    with pytest.raises(DimensionError):
        member_paths(generic_case.U, np.eye(3, dtype=complex))
    with pytest.raises(DimensionError):
        member_paths(generic_case.U, np.array([1.0, 0.0]))


def trace_carrying_trajectory(seed: int) -> HamiltonianTrajectory:
    rng = np.random.default_rng(seed)
    A, B = random_hermitian(rng, 2), random_hermitian(rng, 2)
    return HamiltonianTrajectory(2, lambda t: A + np.cos(3.0 * t)[..., None, None] * B)


@pytest.mark.parametrize("model", ["spin", "trace-carrying"])
def test_two_level_path_forms_the_ordered_exponentials_bitwise(model):
    # at d = 2 `propagate` keeps the scan's Cayley-Klein pairs; `matrices`
    # forms U from them on read, and `member_paths` reads the pairs to the same U
    if model == "spin":
        H = spin_model.hamiltonian(SpinParams(1.3, 0.7, 1.1))
        grid = TimeGrid(0.0, 2.0, 1041)
    else:
        H = trace_carrying_trajectory(91)
        grid = TimeGrid(0.0, 1.0, 1041)
    path = propagate(H, grid)
    assert path.stack.shape == (grid.steps + 1, 2) and path.phases.shape == (grid.steps + 1,)
    assert path.dim == 2 and "matrices" not in vars(path)  # not formed yet
    expected = _two_level_matrices(*ordered_pairs(H.sample(grid.midpoints), grid.dt, (1.0, 0.0)))
    assert path.matrices.tobytes() == expected.tobytes()
    assert np.any(path.phases) == (model == "trace-carrying")  # a traceless H has none
    states = np.array([[0.6, 0.8j], [0.8, -0.6j], [1.0, 0.0]])
    paths = member_paths(path, states)
    assert np.max(np.abs(paths - expected @ states.T)) <= 1e-15
    if model == "spin":  # the bits of U's row multiply-adds, U(t_j)_c0 s0 + U(t_j)_c1 s1
        rows = np.empty((len(states), 2, grid.steps + 1), dtype=complex)
        for row, (s0, s1) in zip(rows, states.tolist()):
            for c in range(2):
                np.multiply(expected[:, c, 0], s0, out=row[c])
                row[c] += expected[:, c, 1] * s1
        assert paths.tobytes() == rows.transpose(2, 1, 0).tobytes()


def test_pair_gate_rejects_a_non_unit_pair_and_a_nan_phase():
    # the gate on pairs is sqrt(2) max | |a|^2 + |b|^2 - 1 |, the matrices'
    # ||U^dagger U - I||_F, and every phase must be finite
    grid = TimeGrid(0.0, 1.0, 200)
    path = propagate(trace_carrying_trajectory(92), grid)
    for j in (0, 100, 200):
        pairs = path.stack.copy()
        pairs[j] /= np.linalg.norm(pairs[j])
        pairs[j] *= np.sqrt(1.0 + 1e-8)  # |a|^2 + |b|^2 = 1 + 1e-8
        with pytest.raises(ContractError, match="propagator not unitary: defect 1.414e-08"):
            PropagatorPath(grid, pairs, path.phases)
    phases = path.phases.copy()
    phases[57] = np.nan
    with pytest.raises(ContractError, match="propagator not unitary: defect nan"):
        PropagatorPath(grid, path.stack, phases)
    with pytest.raises(DimensionError):
        PropagatorPath(grid, path.stack, path.phases[:-1])


def test_grid_time_arrays_are_read_only():
    # `spin_model.RotatingField` finds its tables by the identity of these
    # arrays, so nothing may write into them
    grid = TimeGrid(0.0, 2.0, 8)
    for times in (grid.nodes, grid.midpoints):
        assert times is (grid.nodes if len(times) == 9 else grid.midpoints)
        with pytest.raises(ValueError, match="read-only"):
            times[0] = 1.0


@given(dim=st.sampled_from([2, 3, 4]), steps=st.integers(10, 300), seed=st.integers(0, 2**16),
       reach=st.floats(0.01, 1.0))
def test_propagate_stays_unitary(dim, steps, seed, reach):
    # H(t) = A + cos(2 pi t / T) B + sin(2 pi t / T) C from random Hermitian
    # A, B, C, scaled so that dt ||H||_1 <= reach <= 1 at every t
    rng = np.random.default_rng(seed)
    A, B, C = (random_hermitian(rng, dim) for _ in range(3))
    grid = TimeGrid(0.0, 1.0, steps)
    scale = reach / (grid.dt * sum(np.linalg.norm(M, 1) for M in (A, B, C)))

    def batch(times):
        angle = 2.0 * np.pi * np.asarray(times)[:, None, None]
        return scale * (A + np.cos(angle) * B + np.sin(angle) * C)

    path = propagate(HamiltonianTrajectory(dim, evaluate=batch), grid)
    assert np.array_equal(path.matrices[0], np.eye(dim))
    if path.phases is None:
        assert unitarity_defect(path.stack) <= 1e-12
    else:
        assert np.sqrt(2.0) * pair_norm_defect(_pair_norms(path.stack)) <= 1e-12
    psi = member_paths(path, np.eye(dim, dtype=complex))  # (nodes, dim, k)
    gram = np.einsum("jak,jal->jkl", np.conj(psi), psi)
    assert np.max(np.abs(gram - np.eye(dim))) <= 1e-12


@given(steps=st.sampled_from([1, 2, 3, 62, 63, 64, 65]), seed=st.integers(0, 2**16),
       reach=st.floats(0.01, 2.0))
def test_the_framed_scan_is_the_identity_scan_times_the_frame(steps, seed, reach):
    # random midpoint samples with a trace part, dt ||H|| about `reach`, on grids
    # of 1-3 steps and around the scan's 64-element loop limit; s a random unit
    # ket, its partner e^{i chi} (-conj(s1), conj(s0)) and a generic ket: the
    # scan from the frame W of s gives the identity scan's pairs times W, the
    # member paths off either path agree, and the one-pass frame energies are
    # those of the member paths
    rng = np.random.default_rng(seed)
    grid = TimeGrid(0.0, 1.0, steps)
    samples = np.stack([random_hermitian(rng, 2, scale=reach / grid.dt) for _ in range(steps)])
    H = HamiltonianTrajectory(2, lambda times: samples)
    s, generic = (v / np.linalg.norm(v) for v in rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    partner = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * np.array([-np.conj(s[1]), np.conj(s[0])])
    kets = np.array([s, partner])
    framed, plain = propagate(H, grid, s), propagate(H, grid)
    a, b = plain.stack[:, 0], plain.stack[:, 1]
    times_W = np.stack([a * s[0] - np.conj(b) * s[1], b * s[0] + np.conj(a) * s[1]], axis=-1)
    assert np.max(np.abs(framed.stack - times_W)) <= 1e-13
    assert framed.phases.tobytes() == plain.phases.tobytes()
    states = np.array([s, partner, generic])
    paths = member_paths(framed, states)
    assert np.max(np.abs(paths - member_paths(plain, states))) <= 1e-13
    energies = frame_energies(framed, kets)
    expected = state_energies(paths[:-1, :, :2], samples).T
    scale = np.max(np.linalg.norm(samples, axis=(1, 2)))
    assert np.max(np.abs(energies - expected)) <= 1e-13 * scale
    assert frame_energies(framed, kets[::-1]).tobytes() == energies[::-1].tobytes()
    with pytest.raises(ContractError, match="orthonormal"):
        frame_energies(framed, states)
