"""Phase functionals: goldens, gauge behavior, transport, adiabatic limit."""
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from phaselab import SpinParams, TimeGrid, cli, propagate, spin_model
from phaselab.evolution import HamiltonianTrajectory, member_paths
from phaselab.exceptions import DegeneracyError, DimensionError, UndefinedPhaseError
from phaselab.mixed import transform_evolution
from phaselab.numerics import trapezoid, wrap_angle
from phaselab.phases import (
    PathStack,
    adiabatic_phase,
    state_energies,
    step_overlaps,
)

from conftest import build_spin_case, random_hermitian


def geometric(path: PathStack) -> float:
    return float(np.angle(path.holonomies[0]))


def constant_trajectory(H: np.ndarray) -> HamiltonianTrajectory:
    H = np.asarray(H, dtype=complex)

    def batch(times):
        return np.broadcast_to(H, (len(times),) + H.shape).copy()

    return HamiltonianTrajectory(dim=H.shape[0], evaluate=batch)


def eigenstate_path(E: float, T: float, steps: int = 400) -> PathStack:
    grid = TimeGrid(0.0, T, steps)
    e0 = np.array([1.0, 0.0], dtype=complex)
    states = np.exp(-1j * E * grid.nodes)[:, None] * e0[None, :]
    return PathStack(grid, states[..., None])


def periodic_gauge_samples(rng, nodes, T, degree=6, scale=0.2):
    out = np.zeros_like(nodes)
    for m in range(1, degree + 1):
        out += rng.uniform(-scale, scale) / m**2 * np.cos(2 * np.pi * m * nodes / T)
        out += rng.uniform(-scale, scale) / m**2 * np.sin(2 * np.pi * m * nodes / T)
    return out


def test_total_phase_eigenstate():
    E, T = 0.7, 5.0
    (angle,), (magnitude,) = eigenstate_path(E, T).totals()
    assert angle == pytest.approx(float(wrap_angle(-E * T)), abs=1e-12)
    assert magnitude == pytest.approx(1.0, abs=1e-12)


def test_total_phase_identity_path():
    grid = TimeGrid(0.0, 1.0, 16)
    states = np.tile(np.array([0.6, 0.8j])[:, None], (17, 1, 1))
    (angle,), (magnitude,) = PathStack(grid, states).totals()
    assert angle == 0.0
    assert magnitude == pytest.approx(1.0, abs=1e-12)


def test_total_phase_spin_golden(generic_case):
    p = generic_case.p
    (angle,), (magnitude,) = generic_case.paths["+"].totals()
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
        PathStack(grid, states[..., None]).totals()


def test_dynamical_phase_eigenstate():
    E, T = 1.3, 4.0
    H = constant_trajectory(np.diag([E, -E]).astype(complex))
    path = eigenstate_path(E, T)
    assert path.dynamical(H.sample(path.grid.nodes))[0] == pytest.approx(-E * T, abs=1e-10)


def test_dynamical_phase_vanishes_at_special_point(special_case):
    samples = special_case.H.sample(special_case.grid.nodes)
    assert abs(special_case.paths["+"].dynamical(samples)[0]) < 1e-8


def test_dynamical_phase_generic_golden(generic_case):
    p = generic_case.p
    expected = p.mu_b * np.cos(p.alpha) * p.period
    samples = generic_case.H.sample(generic_case.grid.nodes)
    assert generic_case.paths["+"].dynamical(samples)[0] == pytest.approx(
        expected, abs=1e-7
    )
    # second form: -i int <psi, d/dt psi> as the step-phase sum
    # sum_j arg<psi_j, psi_{j+1}>, which equals the energy integral up to the
    # O(dt^2) per-step phase of the energy spread
    path = generic_case.paths["+"]
    step_sum = float(path.step_phases.sum())
    assert step_sum == pytest.approx(expected, abs=5e-6)


def test_geometric_phase_eigenstate_is_zero():
    E, T = 0.9, 3.0
    assert abs(geometric(eigenstate_path(E, T, steps=100000))) < 1e-8


def test_geometric_phase_spin_goldens(generic_case, special_case):
    for case in (generic_case, special_case):
        for branch in "+-":
            numeric = geometric(case.paths[branch])
            exact = spin_model.geometric_phase(case.p, branch)
            assert abs(wrap_angle(numeric - exact)) < 1e-6


def test_geometric_phase_gauge_invariant(generic_case):
    rng = np.random.default_rng(101)
    path = generic_case.paths["+"]
    base = geometric(path)
    nodes, T = generic_case.grid.nodes, generic_case.grid.span
    for _ in range(20):
        alpha = periodic_gauge_samples(rng, nodes, T)
        shifted = transform_evolution(path, alpha[None])
        assert abs(wrap_angle(geometric(shifted) - base)) < 1e-8


def test_total_phase_gauge_covariance(generic_case):
    # alpha(t) with distinct endpoints shifts the total phase by exactly the gap
    path = generic_case.paths["-"]
    (base,), _ = path.totals()
    nodes = generic_case.grid.nodes
    alpha = 0.3 * nodes + 0.2 * np.sin(2 * np.pi * nodes / generic_case.grid.span)
    (angle,), _ = transform_evolution(path, alpha[None]).totals()
    expected = wrap_angle(base + alpha[-1] - alpha[0])
    assert angle == pytest.approx(float(expected), abs=1e-10)


def test_identity_geometric_equals_total_minus_dynamical():
    # closed-form paths on a fine grid: the two independent routes to the
    # geometric phase must agree at the stated 1e-8
    for mu_b, omega, theta in ((1.0, 1.0, np.pi / 3), (1.0, 4.0, 2.0 * np.pi / 3)):
        p = SpinParams(mu_b, omega, theta)
        grid = TimeGrid(0.0, p.period, 200000)
        H = spin_model.hamiltonian(p)
        paths = spin_model.amplitude_paths(p, grid)
        angles, _ = paths.totals()
        identity = wrap_angle(angles - paths.dynamical(H.sample(grid.nodes)))
        assert np.max(np.abs(wrap_angle(np.angle(paths.holonomies) - identity))) < 1e-8


def test_identity_on_propagated_paths(generic_case, special_case):
    # at the propagation resolution the identity holds at integration tolerance
    for case in (generic_case, special_case):
        for branch in "+-":
            path = case.paths[branch]
            (angle,), _ = path.totals()
            (dyn,) = path.dynamical(case.H.sample(case.grid.nodes))
            identity = wrap_angle(angle - dyn)
            assert abs(wrap_angle(geometric(path) - identity)) < 2e-6


def test_raw_path_transport_residual_matches_energy(generic_case):
    # |<psi, d psi/dt>| = |<H>| = mu_B |cos alpha| along the exact evolution
    p = generic_case.p
    expected = p.mu_b * abs(np.cos(p.alpha))
    assert generic_case.paths["+"].residuals[0] == pytest.approx(expected, rel=1e-4)


def test_phase_report_identity(generic_case):
    path = generic_case.paths["+"]
    _, (overlap_magnitude,) = path.totals()
    assert 0.0 <= overlap_magnitude <= 1.0 + 1e-12
    assert path.residuals[0] >= 0.0


def test_adiabatic_phase_constant_hamiltonian():
    H = constant_trajectory(np.diag([-2.0, 1.0]).astype(complex))
    grid = TimeGrid(0.0, 3.0, 600)
    geometric, dynamical = adiabatic_phase(H.sample(grid.nodes), grid, level=0)
    assert abs(geometric) < 1e-10
    assert dynamical == pytest.approx(6.0, abs=1e-10)


def test_adiabatic_phase_spin_limit():
    # omega / mu_B = 0.02: level 0 is the -mu_B branch, Berry phase
    # wrap(-pi (1 - cos theta)); level 1 the +mu_B branch, wrap(-pi (1 + cos theta)).
    p = SpinParams(50.0, 1.0, np.pi / 3)
    H = spin_model.hamiltonian(p)
    grid = TimeGrid(0.0, p.period, 20000)
    samples = H.sample(grid.nodes)
    geo0, dyn0 = adiabatic_phase(samples, grid, level=0)
    assert abs(wrap_angle(geo0 - wrap_angle(-np.pi * (1 - np.cos(p.theta))))) < 0.02 * np.pi
    assert dyn0 == pytest.approx(50.0 * p.period, rel=1e-10)
    geo1, dyn1 = adiabatic_phase(samples, grid, level=1)
    assert abs(wrap_angle(geo1 - wrap_angle(-np.pi * (1 + np.cos(p.theta))))) < 0.02 * np.pi
    assert dyn1 == pytest.approx(-50.0 * p.period, rel=1e-10)


def test_adiabatic_phase_converges_to_exact():
    theta = np.pi / 3
    gaps = []
    for mu_b in (5.0, 50.0, 500.0):
        p = SpinParams(mu_b, 1.0, theta)
        case = build_spin_case(mu_b, 1.0, theta, steps=20000)
        geo, _ = adiabatic_phase(case.H.sample(case.grid.nodes), case.grid, level=0)
        exact = spin_model.geometric_phase(p, "+")
        gaps.append(abs(wrap_angle(geo - exact)))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[1] < 0.02 * abs(spin_model.geometric_phase(SpinParams(50.0, 1.0, theta), "+"))


def test_adiabatic_phase_rejects_degeneracy():
    def batch(times):
        times = np.asarray(times)
        return (1.0 - times)[:, None, None] * np.diag([1.0, -1.0])[None].astype(complex)

    H = HamiltonianTrajectory(2, evaluate=batch)
    grid = TimeGrid(0.0, 2.0, 200)
    with pytest.raises(DegeneracyError):
        adiabatic_phase(H.sample(grid.nodes), grid, level=0)


@pytest.mark.parametrize("level", [-1, 2])
def test_adiabatic_phase_rejects_a_level_outside_the_spectrum(level):
    grid = TimeGrid(0.0, 3.0, 60)
    samples = constant_trajectory(np.diag([-2.0, 1.0]).astype(complex)).sample(grid.nodes)
    with pytest.raises(DimensionError, match=re.escape(f"level {level} outside 0..1")):
        adiabatic_phase(samples, grid, level=level)


def test_adiabatic_phase_rejects_a_level_closing_on_the_level_below():
    # levels 1 and 2 of diag(-3, 1 - t, t - 1) cross at t = 1; level 0 stays apart
    def batch(times):
        t = np.asarray(times, dtype=float)
        return np.stack([np.diag([-3.0, 1.0 - s, s - 1.0]) for s in t]).astype(complex)

    grid = TimeGrid(0.0, 2.0, 200)
    samples = HamiltonianTrajectory(3, evaluate=batch).sample(grid.nodes)
    adiabatic_phase(samples, grid, level=0)
    with pytest.raises(DegeneracyError, match="level 2 closes on level 1"):
        adiabatic_phase(samples, grid, level=2)


def test_adiabatic_phase_rejects_eigenvectors_that_turn_between_nodes():
    # H_j = (-1)^j sigma_z: the gap stays 2, but the lower eigenvector swaps
    # between |1> and |0> at every step, a turn of pi/2 with zero step overlap
    grid = TimeGrid(0.0, 1.0, 4)
    samples = np.array([(-1) ** j * np.diag([1.0, -1.0]) for j in range(5)], dtype=complex)
    with pytest.raises(DegeneracyError, match="eigenvector continuity lost between grid nodes"):
        adiabatic_phase(samples, grid, level=0)


def test_adiabatic_phase_checks_the_node_samples():
    H = constant_trajectory(np.diag([-2.0, 1.0]).astype(complex))
    grid = TimeGrid(0.0, 3.0, 600)
    for samples in (H.sample(grid.nodes[:-1]), H.sample(grid.nodes)[:, :1], np.zeros(3)):
        with pytest.raises(DimensionError, match="H samples have shape"):
            adiabatic_phase(samples, grid, level=0)


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


def random_stack(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def turning_paths(rng, grid, dim, paths):
    """Unit vectors exp(-i t A) v_k of one random Hermitian A, (nodes, dim, paths)."""
    vals, vecs = np.linalg.eigh(random_hermitian(rng, dim, scale=5.0))
    start = random_stack(rng, (dim, paths))
    start /= np.linalg.norm(start, axis=0)
    rotation = np.exp(-1j * grid.nodes[:, None] * vals[None, :])  # (nodes, dim)
    return np.einsum("ab,jb,bk->jak", vecs, rotation, np.conj(vecs.T) @ start)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("paths", [None, 1, 3])
@pytest.mark.parametrize("steps", [8, 4000])
def test_overlap_kernels_match_the_difference_stack(dim, paths, steps):
    # the step overlaps against one einsum over the pairs, and a stack's step
    # phases against a per-path loop of np.vdot over the steps, on turning unit
    # vectors and on random vectors; (nodes, dim) stacks and (nodes, dim, k)
    # stacks of k paths
    rng = np.random.default_rng(100 * dim + steps + (paths or 0))
    grid = TimeGrid(0.0, 1.3, steps)
    turning = turning_paths(rng, grid, dim, paths or 1)
    stacks = [turning, random_stack(rng, turning.shape)]
    if paths is None:
        stacks = [v[..., 0] for v in stacks]
    for v in stacks:
        pairs = np.einsum("ja...,ja...->j...", np.conj(v[:-1]), v[1:])
        got = step_overlaps(v)
        assert got.shape == pairs.shape
        assert np.max(np.abs(got - pairs)) <= 1e-15 * np.max(np.abs(pairs))
        per_path = v[..., None] if paths is None else v
        expected = np.array([[np.angle(np.vdot(path[j], path[j + 1])) for j in range(steps)]
                             for path in np.moveaxis(per_path, -1, 0)])
        phases = PathStack(grid, per_path).step_phases
        assert phases.shape == (per_path.shape[-1], steps) and phases.flags.c_contiguous
        assert np.max(np.abs(phases - expected)) <= 1e-13


@pytest.mark.parametrize("dim", [2, 3])
def test_path_stack_functionals_are_the_same_in_any_layout(dim):
    # every PathStack functional, bit for bit, on a C-ordered (nodes, dim, k)
    # stack and on the same paths stored path-major, as `member_paths` stores
    # d = 2, with the H samples in C order and component-major
    rng = np.random.default_rng(20 + dim)
    grid = TimeGrid(0.0, 1.3, 500)
    states = turning_paths(rng, grid, dim, 3)
    A = random_stack(rng, (grid.steps + 1, dim, dim))
    samples = A + np.conj(np.swapaxes(A, -2, -1))
    path_major = np.ascontiguousarray(states.transpose(2, 1, 0)).transpose(2, 1, 0)
    component_major = np.ascontiguousarray(samples.transpose(1, 2, 0)).transpose(2, 0, 1)
    ref = PathStack(grid, states)
    for v, H in ((path_major, samples), (states, component_major), (path_major, component_major)):
        stack = PathStack(grid, v)
        assert stack.step_phases.flags.c_contiguous
        for got, expected in ((stack.step_phases, ref.step_phases),
                              (stack.holonomies, ref.holonomies),
                              (stack.residuals, ref.residuals),
                              (stack.dynamical(H), ref.dynamical(samples))):
            assert got.tobytes() == expected.tobytes()
        for got, expected in zip(stack.totals(), ref.totals()):
            assert got.tobytes() == expected.tobytes()


PROPERTY_STEPS = 24


@given(dim=st.sampled_from([2, 3]), seed=st.integers(0, 2**16),
       alpha=st.lists(st.floats(-50.0, 50.0), min_size=2 * (PROPERTY_STEPS + 1),
                      max_size=2 * (PROPERTY_STEPS + 1)))
def test_holonomy_is_invariant_under_any_rephasing(dim, seed, alpha):
    # v_j -> e^{i alpha_j} v_j shifts each step phase by alpha_{j+1} - alpha_j
    # modulo 2 pi, and the 2 pi wraps vanish inside exp(-i sum arg), so the
    # Bargmann holonomy is invariant on the grid itself, for any real alpha_j
    grid = TimeGrid(0.0, 1.3, PROPERTY_STEPS)
    v = turning_paths(np.random.default_rng(seed), grid, dim, 2)
    alpha = np.reshape(alpha, (PROPERTY_STEPS + 1, 2))
    rephased = v * np.exp(1j * alpha)[:, None]
    holonomies = PathStack(grid, v).holonomies
    assert np.max(np.abs(PathStack(grid, rephased).holonomies - holonomies)) <= 1e-12


def test_two_level_energies_match_the_full_form():
    # entrywise 2x2 energies against the einsum of <v|H|v>, on samples that
    # are Hermitian only to 1e-13, so the formula's exact real part is tested
    rng = np.random.default_rng(88)
    grid = TimeGrid(0.0, 1.0, 400)
    nodes = grid.steps + 1
    A = random_stack(rng, (nodes, 2, 2))
    samples = A + np.conj(np.swapaxes(A, -2, -1)) + 1e-13 * random_stack(rng, A.shape)
    assert 1e-14 < np.max(np.abs(samples - np.conj(np.swapaxes(samples, -2, -1))))
    stack = PathStack(grid, turning_paths(rng, grid, 2, 3))
    per_path = [np.einsum("ja,jab,jb->j", np.conj(v), samples, v).real
                for v in np.moveaxis(stack.states, -1, 0)]
    energies = state_energies(stack.states, samples)
    assert energies.shape == (nodes, 3)
    assert np.max(np.abs(energies - np.stack(per_path, axis=-1))) <= 1e-13
    assert np.max(np.abs(state_energies(stack.states[..., 1], samples) - per_path[1])) <= 1e-13
    expected = [-trapezoid(e, grid.dt) for e in per_path]
    assert np.max(np.abs(stack.dynamical(samples) - expected)) <= 1e-13
