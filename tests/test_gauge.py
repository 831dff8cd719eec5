"""Basis frames, gauge transforms, holonomy, effective Hamiltonians."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from phaselab import SpinParams, TimeGrid, spin_model
from phaselab.exceptions import (
    ContractError,
    DimensionError,
    OrthogonalityCrossingError,
)
from phaselab.gauge import (
    BasisFrame,
    GaugeFunction,
    amplitudes_from_frame,
    check_universal_hamiltonian_constraint,
    effective_hamiltonian,
    frame_from_amplitudes,
    frame_trace,
)
from phaselab.linalg import hermiticity_defect
from phaselab.mixed import transform_evolution
from phaselab.numerics import wrap_angle
from phaselab.phases import PathStack

from conftest import random_unitary, w_frame


def v_frame(p: SpinParams, grid: TimeGrid) -> BasisFrame:
    """Instantaneous eigenvectors of the rotating-field Hamiltonian (the
    untilted basis: the w vectors at mixing angle zero)."""
    half = 0.5 * p.theta
    rot = np.exp(-1j * p.omega * grid.nodes)
    ones = np.ones_like(rot)
    v_plus = np.stack([np.cos(half) * rot, np.sin(half) * ones], axis=-1)
    v_minus = np.stack([np.sin(half) * rot, -np.cos(half) * ones], axis=-1)
    return BasisFrame(grid, np.stack([v_plus, v_minus], axis=-1))


# ---------------------------------------------------------------- GaugeFunction


def ramp_gauge(period: float, const, slope=(0.0, 0.0)) -> GaugeFunction:
    """Two members alpha_k(t) = const[k] + slope[k] t, all six harmonics zero."""
    return GaugeFunction(period, np.array(const, dtype=float), np.zeros((2, 6)),
                         np.zeros((2, 6)), np.array(slope, dtype=float))


def test_gauge_function_evaluations():
    g = ramp_gauge(2.0, [0.5, -1.0])
    assert g.value(0.3)[0] == pytest.approx(0.5)
    assert g.derivative(0.7)[1] == 0.0


def test_gauge_function_derivative_matches_finite_difference():
    rng = np.random.default_rng(3)
    g = GaugeFunction.random(1, 3.0, rng, scale=0.5, slope_scale=0.4)
    ts = np.linspace(0.1, 2.9, 7)
    eps = 1e-6
    numeric = (g.value(ts + eps)[0] - g.value(ts - eps)[0]) / (2 * eps)
    assert np.max(np.abs(numeric - g.derivative(ts)[0])) < 1e-6


@st.composite
def gauges_and_times(draw):
    """A GaugeFunction with 1-4 members and times: a scalar or a 1-D or 2-D array."""
    L = draw(st.integers(1, 4))
    degree = draw(st.integers(1, 6))
    period = draw(st.floats(0.5, 10.0))
    coeff = st.floats(-1.0, 1.0)
    table = lambda shape: np.array(draw(st.lists(coeff, min_size=math.prod(shape),
                                                 max_size=math.prod(shape)))).reshape(shape)
    g = GaugeFunction(period, table((L,)), table((L, degree)), table((L, degree)), table((L,)))
    shape = draw(st.sampled_from([(), (1,), (5,), (2, 3)]))
    times = np.array(draw(st.lists(st.floats(-2 * period, 2 * period),
                                   min_size=math.prod(shape), max_size=math.prod(shape))))
    return g, times.reshape(shape)


@given(gauges_and_times())
def test_gauge_function_evaluates_all_labels(case):
    g, t = case
    L = len(g.const)
    value, derivative = g.value(t), g.derivative(t)
    assert value.shape == derivative.shape == (L, *t.shape)
    w = [2.0 * np.pi * m / g.period for m in range(1, g.degree + 1)]
    for k in range(L):
        for idx in np.ndindex(t.shape):
            s = float(t[idx])
            want = g.const[k] + g.slope[k] * s + sum(
                a * math.cos(wm * s) + b * math.sin(wm * s)
                for a, b, wm in zip(g.cos_coeffs[k], g.sin_coeffs[k], w)
            )
            assert abs(value[k][idx] - want) <= 1e-13
    # central difference; its O(h^2) term is bounded by the third derivative
    h = 1e-6
    numeric = (g.value(t + h) - g.value(t - h)) / (2 * h)
    third = np.sum((np.abs(g.cos_coeffs) + np.abs(g.sin_coeffs)) * np.array(w) ** 3, axis=1)
    bound = 1e-6 * (1.0 + third)
    assert np.all(np.abs(numeric - derivative) <= bound.reshape(L, *[1] * t.ndim))


def test_universal_constraint_checker():
    T = 2.0 * np.pi
    equal = ramp_gauge(T, [0.4, -2.2])
    assert check_universal_hamiltonian_constraint(equal)
    sin_vs_zero = ramp_gauge(T, [0.0, 0.0])
    coeffs = sin_vs_zero.sin_coeffs.copy()
    coeffs[0, 0] = 1.0  # alpha_1 = sin(2 pi t / T), alpha_2 = 0
    unequal = GaugeFunction(T, sin_vs_zero.const, sin_vs_zero.cos_coeffs, coeffs, sin_vs_zero.slope)
    assert not check_universal_hamiltonian_constraint(unequal)
    assert check_universal_hamiltonian_constraint(ramp_gauge(T, [0.0, 1.0], [0.3, 0.3]))


# ---------------------------------------------------------- frame construction


def test_frame_from_constant_path():
    grid = TimeGrid(0.0, 1.0, 32)
    state = np.array([0.6, 0.8j])
    frame = frame_from_amplitudes(PathStack(grid, np.tile(state[:, None], (33, 1, 1))))
    assert np.max(np.abs(frame.states[:, :, 0] - state[None, :])) < 1e-14


def test_frame_from_eigenstate_strips_phase():
    grid = TimeGrid(0.0, 2.0, 64)
    state = np.array([1.0, 0.0], dtype=complex)
    states = np.exp(-1j * 1.7 * grid.nodes)[:, None, None] * state[None, :, None]
    frame = frame_from_amplitudes(PathStack(grid, states))
    assert np.max(np.abs(frame.states[:, :, 0] - state[None, :])) < 1e-14


def test_frame_from_spin_amplitudes_matches_w_basis(generic_case):
    frame = frame_from_amplitudes(generic_case.members)
    w_plus, w_minus = spin_model.w_basis(generic_case.p, generic_case.grid.nodes)
    for k, w in enumerate((w_plus, w_minus)):
        overlap = np.abs(np.einsum("ja,ja->j", np.conj(frame.states[:, :, k]), w))
        assert np.max(np.abs(overlap - 1.0)) < 1e-7
        # the stripped overlaps are real and positive by construction
        anchors = np.einsum(
            "a,ja->j", np.conj(frame.states[0, :, k]), frame.states[:, :, k]
        )
        assert np.min(anchors.real) > 0.0
        assert np.max(np.abs(anchors.imag)) < 1e-10


def test_frame_orthogonality_crossing_raises():
    # mu_B = omega = 1, theta = 2 pi/3 puts theta - alpha at exactly pi/2, so
    # <psi(0), psi(T/2)> = 0 and the total-phase stripping breaks down.
    p = SpinParams(1.0, 1.0, 2.0 * np.pi / 3)
    grid = TimeGrid(0.0, p.period, 2048)
    with pytest.raises(OrthogonalityCrossingError):
        frame_from_amplitudes(spin_model.amplitude_paths(p, grid))


def test_frame_requires_orthonormal_inputs(generic_case):
    with pytest.raises(ContractError):
        twice_plus = generic_case.members.states[..., [0, 0]]
        frame_from_amplitudes(PathStack(generic_case.grid, twice_plus))


@pytest.mark.parametrize("member, row, deviation", [
    (0, [1.0, 0.0, 0.0], 0.0),  # exact
    (1, [1.0, 0.0, 0.0], 1.0),  # parallel to member 0: off-diagonal Gram entry
    (2, [0.0, 0.0, 1.2], 0.44),  # stretched: diagonal Gram entry
], ids=["exact", "overlap", "norm"])
def test_basis_frame_checks_every_gram_entry(member, row, deviation):
    # one node of a three-member frame is altered; the check reads the Gram
    # matrix of every node, diagonal and off-diagonal entries alike
    grid = TimeGrid(0.0, 1.0, 8)
    states = np.tile(np.eye(3, dtype=complex), (9, 1, 1))
    states[5, :, member] = row
    if deviation == 0.0:
        assert BasisFrame(grid, states).size == 3
        return
    with pytest.raises(ContractError, match=re.escape(f"not orthonormal: deviation {deviation:.3e}")):
        BasisFrame(grid, states)


# ------------------------------------------------- frame gauge transform


def test_apply_gauge_identity_and_constants(generic_case):
    frame = w_frame(generic_case.p, generic_case.grid)
    zero = np.zeros((2, generic_case.grid.steps + 1))
    assert np.array_equal(transform_evolution(frame, zero).states, frame.states)
    gauged = transform_evolution(frame, zero + np.array([[0.3], [-0.9]]))
    assert np.allclose(
        gauged.states[:, :, 0], frame.states[:, :, 0] * np.exp(0.3j), atol=1e-14
    )


def test_apply_gauge_round_trip(generic_case):
    rng = np.random.default_rng(7)
    frame = w_frame(generic_case.p, generic_case.grid)
    g = GaugeFunction.random(2, generic_case.grid.span, rng, scale=0.4, slope_scale=0.3)
    alpha = g.value(generic_case.grid.nodes)
    restored = transform_evolution(transform_evolution(frame, alpha), -alpha)
    assert np.max(np.abs(restored.states - frame.states)) < 1e-12


def d3_frame(grid: TimeGrid) -> BasisFrame:
    """v_k(t) = e^{-i K t} Q|k> for a random unitary Q and K = diag(0.7, -0.2, 1.9)."""
    Q = random_unitary(np.random.default_rng(17), 3)
    rotation = np.exp(-1j * np.multiply.outer(grid.nodes, [0.7, -0.2, 1.9]))
    return BasisFrame(grid, rotation[:, :, None] * Q[None])


@pytest.mark.parametrize("slope_scale", [0.0, 0.8], ids=["periodic", "ramped"])
@pytest.mark.parametrize("build", [
    lambda grid: w_frame(SpinParams(1.0, 1.0, np.pi / 3), grid), d3_frame,
], ids=["spin-w", "d3"])
def test_transform_evolution_keeps_every_gram_entry_of_a_frame(build, slope_scale):
    # a unit-modulus rephasing leaves every <v_k, v_l> at every node as it was,
    # to rounding: the reason a rephased frame is not checked again
    grid = TimeGrid(0.0, 2.0 * np.pi, 2000)
    frame = build(grid)
    rng = np.random.default_rng(31)
    gram = lambda v: np.einsum("jak,jal->jkl", np.conj(v), v)
    for _ in range(5):
        g = GaugeFunction.random(frame.size, grid.span, rng, scale=1.0, slope_scale=slope_scale)
        gauged = transform_evolution(frame, g.value(grid.nodes))
        assert np.max(np.abs(gram(gauged.states) - gram(frame.states))) <= 1e-14


# ------------------------------------------------------------------- connection


def connection(frame: PathStack) -> np.ndarray:
    """<v_k| i d/dt v_k> at the step midpoints, -arg<v_k(t_j), v_k(t_{j+1})> / dt, (L, steps)."""
    return -frame.step_phases / frame.grid.dt


def test_connection_constant_frame():
    grid = TimeGrid(0.0, 1.0, 64)
    vec = np.array([1.0, 1.0j]) / np.sqrt(2)
    frame = BasisFrame(grid, np.tile(vec[:, None], (65, 1, 1)))
    assert np.max(np.abs(connection(frame))) == 0.0


def test_connection_w_frame_golden(generic_case):
    p = generic_case.p
    frame = w_frame(p, generic_case.grid)
    for branch, values in zip("+-", connection(frame)):
        expected = spin_model.connection_value(p, branch)
        assert np.max(np.abs(values - expected)) < 1e-6


def test_connection_v_frame_golden(generic_case):
    p = generic_case.p
    frame = v_frame(p, generic_case.grid)
    values = connection(frame)[0]
    expected = 0.5 * p.omega * (1.0 + np.cos(p.theta))
    assert np.max(np.abs(values - expected)) < 1e-6


# ------------------------------------------------------------------- holonomy


def test_w_frame_holonomy_matches_geometric_phase(generic_case):
    p = generic_case.p
    frame = w_frame(p, generic_case.grid)
    for k, branch in enumerate("+-"):
        exact = spin_model.geometric_phase(p, branch)
        assert abs(wrap_angle(np.angle(frame.holonomies[k]) - exact)) < 1e-6
        assert abs(frame.holonomies[k] - np.exp(1j * exact)) < 1e-6


def test_holonomy_trivial_and_quarter_turn():
    grid = TimeGrid(0.0, 1.0, 32)
    vec = np.array([1.0, 0.0], dtype=complex)
    frame = BasisFrame(grid, np.tile(vec[:, None], (33, 1, 1)))
    assert frame.holonomies[0] == pytest.approx(1.0 + 0.0j, abs=1e-14)
    # theta - alpha = pi/2: holonomy of the w_+ loop is exp(-i pi) = -1
    p = SpinParams(1.0, 1.0, 2.0 * np.pi / 3)
    fine = TimeGrid(0.0, p.period, 20000)
    value = w_frame(p, fine).holonomies[0]  # the "+" member
    assert abs(value - (-1.0)) < 1e-6


def test_holonomy_gauge_invariant(generic_case):
    rng = np.random.default_rng(11)
    frame = w_frame(generic_case.p, generic_case.grid)
    for _ in range(20):
        g = GaugeFunction.random(2, generic_case.grid.span, rng, scale=0.1)
        gauged = transform_evolution(frame, g.value(generic_case.grid.nodes))
        assert np.max(np.abs(gauged.holonomies - frame.holonomies)) < 1e-8


# ------------------------------------------------------- effective Hamiltonian


def test_effective_hamiltonian_v_frame_matches_matrix(generic_case):
    p = generic_case.p
    samples = generic_case.H.sample(generic_case.grid.nodes)
    eff = effective_hamiltonian(v_frame(p, generic_case.grid), samples)
    expected = np.array(
        [
            [-p.mu_b - 0.5 * (1 + np.cos(p.theta)) * p.omega, -0.5 * np.sin(p.theta) * p.omega],
            [-0.5 * np.sin(p.theta) * p.omega, p.mu_b - 0.5 * (1 - np.cos(p.theta)) * p.omega],
        ]
    )
    assert np.max(np.abs(eff - expected[None])) < 1e-6
    assert hermiticity_defect(eff) < 1e-7


def test_effective_hamiltonian_w_frame_is_diagonal(generic_case):
    samples = generic_case.H.sample(generic_case.grid.nodes)
    eff = effective_hamiltonian(w_frame(generic_case.p, generic_case.grid), samples)
    off = np.abs(eff[:, 0, 1])
    assert np.max(off) < 1e-6
    diag = eff[:, 0, 0].real
    p = generic_case.p
    expected = spin_model.energy_expectation(p, "+") - spin_model.connection_value(p, "+")
    assert np.max(np.abs(diag - expected)) < 1e-6


def test_effective_hamiltonian_w_frame_diagonal_across_sweep():
    # the alpha rotation diagonalizes the effective Hamiltonian at every
    # parameter point, not just the fixture's
    rng = np.random.default_rng(43)
    for _ in range(20):
        p = SpinParams(rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0), rng.uniform(0.05, np.pi - 0.05))
        grid = TimeGrid(0.0, p.period, 12000)
        eff = effective_hamiltonian(w_frame(p, grid), spin_model.hamiltonian(p).sample(grid.nodes))
        assert np.max(np.abs(eff[:, 0, 1])) < 1e-6


def test_effective_hamiltonian_constant_eigenframe():
    grid = TimeGrid(0.0, 1.0, 64)
    frame = BasisFrame(grid, np.tile(np.eye(2, dtype=complex), (65, 1, 1)))
    H = spin_model.hamiltonian(SpinParams(1.5, 1.0, 0.0))  # -1.5 sigma_z: diag(-1.5, 1.5)
    eff = effective_hamiltonian(frame, H.sample(grid.nodes))
    assert eff.shape == (64, 2, 2)  # one matrix per step midpoint
    assert np.max(np.abs(eff - np.diag([-1.5, 1.5])[None])) < 1e-10


# the functionals that take H as its node samples check their shape
SAMPLE_CALLS = {
    "dynamical_phase": lambda case, frame, samples: case.members.dynamical(samples),
    "phase_report": lambda case, frame, samples: (
        case.members.totals(), case.members.dynamical(samples), case.members.residuals),
    "amplitudes_from_frame": lambda case, frame, samples: amplitudes_from_frame(frame, samples),
    "effective_hamiltonian": lambda case, frame, samples: effective_hamiltonian(frame, samples),
    "frame_trace": lambda case, frame, samples: frame_trace(frame, samples, case.weights),
}
WRONG_SAMPLES = {
    "one node short": lambda samples: samples[:-1],
    "wrong dim": lambda samples: np.zeros((samples.shape[0], 3, 3), dtype=complex),
    "one matrix": lambda samples: samples[0],
}


@pytest.mark.parametrize("wrong", sorted(WRONG_SAMPLES))
@pytest.mark.parametrize("name", sorted(SAMPLE_CALLS))
def test_node_sample_shape_is_checked(generic_case, name, wrong):
    frame = w_frame(generic_case.p, generic_case.grid)
    samples = generic_case.H.sample(generic_case.grid.nodes)
    SAMPLE_CALLS[name](generic_case, frame, samples)  # the right shape passes
    with pytest.raises(DimensionError):
        SAMPLE_CALLS[name](generic_case, frame, WRONG_SAMPLES[wrong](samples))


# -------------------------------------------------------------- trace formula


def test_frame_trace_matches_direct_trace(generic_case):
    rng = np.random.default_rng(19)
    frame = frame_from_amplitudes(generic_case.members)
    direct_basis = generic_case.members.states[0].T
    samples = generic_case.H.sample(generic_case.grid.nodes)
    for _ in range(5):
        raw = rng.uniform(0.1, 1.0, size=2)
        weights = raw / raw.sum()
        rho0 = np.einsum("k,ka,kb->ab", weights, direct_basis, np.conj(direct_basis))
        direct = np.trace(generic_case.U.matrices[-1] @ rho0)
        via_frame = frame_trace(frame, samples, weights)
        assert abs(via_frame - direct) < 1e-6


def test_frame_trace_gauge_invariant(generic_case):
    rng = np.random.default_rng(23)
    frame = frame_from_amplitudes(generic_case.members)
    weights = generic_case.weights
    samples = generic_case.H.sample(generic_case.grid.nodes)
    base = frame_trace(frame, samples, weights)
    worst = 0.0
    for _ in range(50):
        g = GaugeFunction.random(2, generic_case.grid.span, rng, scale=0.1)
        value = frame_trace(transform_evolution(frame, g.value(generic_case.grid.nodes)),
                            samples, weights)
        worst = max(worst, abs(value - base))
    assert worst < 1e-8


def test_amplitudes_from_frame_hidden_gauge_invariance():
    # mid-path integrals carry an O(dt^2) bias that does not telescope away,
    # so the 1e-8 constancy check runs on closed-form paths on a fine grid
    rng = np.random.default_rng(29)
    p = SpinParams(1.0, 1.0, np.pi / 3)
    grid = TimeGrid(0.0, p.period, 100000)
    samples = spin_model.hamiltonian(p).sample(grid.nodes)
    frame = frame_from_amplitudes(spin_model.amplitude_paths(p, grid))
    base = amplitudes_from_frame(frame, samples)
    g = GaugeFunction.random(2, grid.span, rng, scale=0.1, slope_scale=0.2)
    shifted = amplitudes_from_frame(transform_evolution(frame, g.value(grid.nodes)), samples)
    overlaps = np.einsum("jak,jak->kj", np.conj(shifted.states), base.states)
    assert np.max(np.abs(np.abs(overlaps) - 1.0)) < 1e-8
    # the relative phase is constant in time and equals -alpha_k(0)
    expected = -g.value(0.0)[:, None]
    assert np.max(np.abs(wrap_angle(np.angle(overlaps) - expected))) < 1e-8


def test_amplitudes_from_frame_recovers_paths(generic_case):
    frame = frame_from_amplitudes(generic_case.members)
    rebuilt = amplitudes_from_frame(frame, generic_case.H.sample(generic_case.grid.nodes))
    assert np.max(np.abs(rebuilt.states - generic_case.members.states)) < 1e-6
