"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

The parameter sweep is seeded (seed 0) and uniform over mu_B, omega in
[0.1, 10], theta in (0, pi), shared by the analytic-numeric criteria.
"""
import time
from dataclasses import dataclass

import numpy as np
import pytest

from phaselab import SpinParams, TimeGrid, propagate, spin_model
from phaselab.evolution import member_paths
from phaselab.gauge import (
    GaugeFunction,
    frame_from_amplitudes,
    frame_trace,
)
from phaselab.mixed import (
    density_from_ensemble,
    hidden_gauge_transform,
    mixed_total_phase,
    purify,
    reduce,
    singh_phase,
    transform_evolution,
    transport_conditions,
)
from phaselab.numerics import wrap_angle
from phaselab.phases import PathStack, adiabatic_phase

from conftest import build_spin_case, central_diff, random_density

SWEEP_SEED = 0
SWEEP_SIZE = 100
BASE_STEPS = 20000


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@dataclass
class SweepPoint:
    params: SpinParams
    state_error: float
    state_error_half_dt: float
    geometric_numeric: dict
    runtime: float


def draw_params(rng: np.random.Generator) -> SpinParams:
    return SpinParams(
        mu_b=rng.uniform(0.1, 10.0),
        omega=rng.uniform(0.1, 10.0),
        theta=rng.uniform(1e-3, np.pi - 1e-3),
    )


@pytest.fixture(scope="module")
def sweep():
    rng = np.random.default_rng(SWEEP_SEED)
    points = []
    for _ in range(SWEEP_SIZE):
        p = draw_params(rng)
        start = time.perf_counter()
        grid = TimeGrid(0.0, p.period, BASE_STEPS)
        H = spin_model.hamiltonian(p)
        U = propagate(H, grid)
        w_plus, w_minus = spin_model.w_basis(p, 0.0)
        exact_plus, exact_minus = spin_model.exact_amplitudes(p, p.period)
        paths = PathStack(grid, member_paths(U, np.array([w_plus, w_minus])))
        err = max(
            float(np.linalg.norm(paths.states[-1, :, 0] - exact_plus)),
            float(np.linalg.norm(paths.states[-1, :, 1] - exact_minus)),
        )
        fine = propagate(H, TimeGrid(0.0, p.period, 2 * BASE_STEPS))
        err_half = max(
            float(np.linalg.norm(fine.matrices[-1] @ w_plus - exact_plus)),
            float(np.linalg.norm(fine.matrices[-1] @ w_minus - exact_minus)),
        )
        criterion1_runtime = time.perf_counter() - start
        geometric = dict(zip("+-", np.angle(paths.holonomies)))
        points.append(SweepPoint(p, err, err_half, geometric, criterion1_runtime))
    return points


def test_criterion_1_oracle_agreement_and_convergence(sweep):
    worst = max(point.state_error for point in sweep)
    total_runtime = sum(point.runtime for point in sweep)
    ratios_ok = True
    for point in sweep:
        # the ratio is only meaningful where truncation dominates roundoff;
        # below 1e-10 the product of 4e4 unitaries is pure float noise
        if point.state_error_half_dt > 1e-10:
            ratio = point.state_error / point.state_error_half_dt
            ratios_ok = ratios_ok and 3.2 < ratio < 4.8
    passed = worst <= 1e-6 and ratios_ok and total_runtime <= 60.0
    report(
        1,
        passed,
        f"state error <= 1e-6 at N={BASE_STEPS} (worst {worst:.3e}), "
        f"dt-halving ratio in 4 +/- 20%, runtime {total_runtime:.1f}s <= 60s",
    )


def test_criterion_2_geometric_phase_and_solid_angle(sweep):
    worst_phase = 0.0
    for point in sweep:
        for branch in "+-":
            exact = spin_model.geometric_phase(point.params, branch)
            delta = abs(wrap_angle(point.geometric_numeric[branch] - exact))
            worst_phase = max(worst_phase, float(delta))
    worst_area = 0.0
    for point in sweep[::5]:
        p = point.params
        grid = TimeGrid(0.0, p.period, 4000)
        w_plus, _ = spin_model.w_basis(p, grid.nodes)
        area = spin_model.spherical_polygon_area(spin_model.bloch_vector(w_plus))
        worst_area = max(worst_area, abs(area - spin_model.solid_angle(p)))
    passed = worst_phase <= 1e-5 and worst_area <= 1e-4
    report(
        2,
        passed,
        f"geometric phase matches -pi(1 -/+ cos(theta-alpha)) to 1e-5 "
        f"(worst {worst_phase:.3e}); Bloch-path polygon area matches the "
        f"solid angle to 1e-4 (worst {worst_area:.3e})",
    )


def test_criterion_3_interference_formula(sweep):
    worst = 0.0
    for point in sweep:
        p = point.params
        psi0, _ = spin_model.exact_amplitudes(p, 0.0)
        psiT, _ = spin_model.exact_amplitudes(p, p.period)
        direct = 0.5 * np.linalg.norm(psiT + psi0) ** 2
        worst = max(worst, abs(direct - spin_model.interference_value(p)))
    passed = worst <= 1e-8
    report(3, passed, f"1/2 |psi(T)+psi(0)|^2 = 1 + cos[...] to 1e-8 (worst {worst:.3e})")


def test_criterion_4_hidden_gauge_invariance():
    case = build_spin_case(1.0, 1.0, np.pi / 3, big_theta=np.pi / 4, steps=BASE_STEPS)
    rng = np.random.default_rng(SWEEP_SEED)
    frame = frame_from_amplitudes(case.members)
    weights = case.weights
    rho0 = density_from_ensemble(case.ensemble)
    nodes = case.grid.nodes
    samples = case.H.sample(nodes)

    base_trace = frame_trace(frame, samples, weights)
    base_singh = singh_phase(weights, case.members)
    base_gamma, _ = mixed_total_phase(rho0, case.U.matrices[-1])
    base_dyn = transport_conditions(weights, case.members)[2]
    diag_UT = np.array([np.vdot(s, case.U.matrices[-1] @ s) for s in case.ensemble.states])

    worst_invariant = 0.0
    worst_gamma_mismatch = 0.0
    worst_dyn_mismatch = 0.0
    naive_moved = 0.0
    for _ in range(50):
        periodic = GaugeFunction.random(2, case.grid.span, rng, scale=0.1)
        gauged = transform_evolution(frame, periodic.value(nodes))
        tr = frame_trace(gauged, samples, weights)
        worst_invariant = max(
            worst_invariant,
            abs(wrap_angle(np.angle(tr) - np.angle(base_trace))),
            abs(abs(tr) - abs(base_trace)),
            float(np.max(np.abs(gauged.holonomies - frame.holonomies))),
        )
        ramped = GaugeFunction.random(2, case.grid.span, rng, scale=0.1, slope_scale=0.2)
        # psi_k -> e^{i theta_k} psi_k
        shifted = transform_evolution(case.members, ramped.value(nodes))
        worst_invariant = max(
            worst_invariant, abs(wrap_angle(singh_phase(weights, shifted) - base_singh))
        )

        theta_T = ramped.value(case.grid.t_end)
        theta_0 = ramped.value(0.0)
        predicted = float(np.angle(np.sum(weights * diag_UT * np.exp(1j * theta_T))))
        # U'(T) = sum_k psi'_k(T) <k| over the complete basis
        observed, _ = mixed_total_phase(rho0, shifted.states[-1] @ np.conj(case.ensemble.states))
        worst_gamma_mismatch = max(
            worst_gamma_mismatch, abs(wrap_angle(observed - predicted))
        )
        naive_moved = max(naive_moved, abs(wrap_angle(observed - base_gamma)))
        observed_dyn = transport_conditions(weights, shifted)[2]
        predicted_dyn = base_dyn + float(np.sum(weights * (theta_T - theta_0)))
        worst_dyn_mismatch = max(worst_dyn_mismatch, abs(observed_dyn - predicted_dyn))

    passed = (
        worst_invariant <= 1e-7
        and worst_gamma_mismatch <= 1e-7
        and worst_dyn_mismatch <= 1e-7
        and naive_moved > 1e-3
    )
    report(
        4,
        passed,
        f"50 random gauges: invariants move <= 1e-7 (worst {worst_invariant:.3e}); "
        f"equivalence-class non-invariance reproduced to 1e-7 "
        f"(gamma {worst_gamma_mismatch:.3e}, dyn {worst_dyn_mismatch:.3e})",
    )


def test_criterion_5_special_case():
    case = build_spin_case(1.0, 4.0, 2.0 * np.pi / 3, big_theta=np.pi / 2, steps=BASE_STEPS)
    _, strong, dyn = transport_conditions(case.weights, case.members)
    rho0 = density_from_ensemble(case.ensemble)
    gamma, vis = mixed_total_phase(rho0, case.U.matrices[-1])
    singh = singh_phase(case.weights, case.members)
    c = np.cos(case.p.theta - case.p.alpha)
    expected_trace = np.cos(case.p.big_theta / 2) ** 2 * np.exp(
        -1j * np.pi * (1 + c)
    ) + np.sin(case.p.big_theta / 2) ** 2 * np.exp(-1j * np.pi * (1 - c))
    trace_error = abs(vis * np.exp(1j * gamma) - expected_trace)
    passed = (
        float(np.max(strong)) <= 1e-6
        and abs(dyn) <= 1e-6
        and abs(wrap_angle(singh - gamma)) <= 1e-6
        and trace_error <= 1e-6
    )
    report(
        5,
        passed,
        f"alpha = pi/2: strong residuals {np.max(strong):.2e} <= 1e-6, "
        f"mixed dynamical {abs(dyn):.2e} <= 1e-6, Singh = gamma_T to "
        f"{abs(wrap_angle(singh - gamma)):.2e}, trace matches closed form to {trace_error:.2e}",
    )


def test_criterion_6_purification_round_trip():
    rng = np.random.default_rng(SWEEP_SEED)
    worst_round = worst_trace = worst_psd = worst_gauge = 0.0
    for k in range(50):
        dim = int(rng.integers(2, 5))
        rho = random_density(rng, dim)
        pure = purify(rho, dim)
        back = reduce(pure)
        worst_round = max(worst_round, float(np.max(np.abs(back.matrix - rho.matrix))))
        worst_trace = max(worst_trace, abs(float(np.trace(back.matrix).real) - 1.0))
        worst_psd = max(worst_psd, max(0.0, -float(np.min(np.linalg.eigvalsh(back.matrix)))))
        _, vecs = np.linalg.eigh(rho.matrix)
        phases = rng.uniform(-np.pi, np.pi, size=dim)
        shifted = hidden_gauge_transform(pure, phases, vecs)
        worst_gauge = max(
            worst_gauge, float(np.max(np.abs(reduce(shifted).matrix - rho.matrix)))
        )
    passed = (
        worst_round <= 1e-10
        and worst_trace <= 1e-12
        and worst_psd <= 1e-12
        and worst_gauge <= 1e-12
    )
    report(
        6,
        passed,
        f"reduce(purify(rho)) = rho to 1e-10 (worst {worst_round:.2e}); unit trace/PSD "
        f"to 1e-12; constant-phase gauge leaves rho unchanged (worst {worst_gauge:.2e})",
    )


def test_criterion_7_universal_hamiltonian_constraint():
    p = SpinParams(1.0, 1.0, np.pi / 3)
    grid = TimeGrid(0.0, p.period, BASE_STEPS)
    paths = spin_model.amplitude_paths(p, grid)
    H_samples = spin_model.hamiltonian(p).sample(grid.nodes)
    nodes = grid.nodes
    rng = np.random.default_rng(SWEEP_SEED)

    def residual(paths, shift):
        psi = paths.states
        r = 1j * central_diff(psi, grid.dt) - np.einsum("jab,jbk->jak", H_samples, psi)
        r += shift[:, None, None] * psi
        return float(np.max(np.linalg.norm(r[1:-1], axis=1)))

    passed = True
    for _ in range(20):
        theta = GaugeFunction.random(2, grid.span, rng, scale=0.5, slope_scale=1.0)
        shift = theta.derivative(nodes)[0]
        spread = float(np.max(np.abs(theta.derivative(nodes)[1] - theta.derivative(nodes)[0])))
        broken = residual(transform_evolution(paths, theta.value(nodes)), shift)
        equal = GaugeFunction(
            grid.span,
            const=rng.uniform(-np.pi, np.pi, size=2),
            cos_coeffs=np.tile(theta.cos_coeffs[0], (2, 1)),
            sin_coeffs=np.tile(theta.sin_coeffs[0], (2, 1)),
            slope=np.array([theta.slope[0], theta.slope[0]]),
        )
        kept = residual(transform_evolution(paths, equal.value(nodes)), equal.derivative(nodes)[0])
        passed = passed and broken >= spread * (1.0 - 1e-3) and kept < 1e-2 * max(spread, 1.0)
    report(
        7,
        passed,
        "unequal gauge derivatives break the discrete Schroedinger residual by the "
        "predicted margin on 20 seeded cases; equal derivatives stay at integrator level",
    )


def test_criterion_8_adiabatic_limit():
    theta = np.pi / 3
    omega = 1.0
    gaps = []
    for mu_b in (50.0, 500.0, 5000.0):  # omega/mu_B spans three decades
        p = SpinParams(mu_b, omega, theta)
        grid = TimeGrid(0.0, p.period, BASE_STEPS)
        geo, _ = adiabatic_phase(spin_model.hamiltonian(p).sample(grid.nodes), grid, level=0)
        exact = spin_model.geometric_phase(p, "+")
        gaps.append(abs(float(wrap_angle(geo - exact))))
    exact_ref = abs(spin_model.geometric_phase(SpinParams(50.0, omega, theta), "+"))
    passed = gaps[0] <= 0.02 * exact_ref and gaps[0] > gaps[1] > gaps[2]
    report(
        8,
        passed,
        f"adiabatic phase within 2% at omega/mu_B = 0.02 (gap {gaps[0]:.2e}); "
        f"discrepancy shrinks monotonically over three decades {gaps}",
    )


def test_criterion_9_byte_determinism(tmp_path):
    from phaselab import cli

    scenarios = [
        (
            "simulate.csv",
            ["simulate", "--mu-b", "1", "--omega", "4", "--theta", str(2 * np.pi / 3),
             "--steps", "2000", "--seed", "5"],
        ),
        (
            "simulate.json",
            ["simulate", "--mu-b", "1", "--omega", "1", "--theta", "1.0",
             "--steps", "1500", "--format", "json"],
        ),
        (
            "sweep.csv",
            ["sweep", "--axis", "theta", "--values", "0.4,0.9,1.4", "--steps", "500"],
        ),
        (
            "verify.csv",
            ["verify-gauge", "--steps", "1500", "--trials", "3", "--seed", "21"],
        ),
    ]
    passed = True
    for name, args in scenarios:
        first = tmp_path / f"one_{name}"
        second = tmp_path / f"two_{name}"
        assert cli.main([*args, "--out", str(first)]) == 0
        assert cli.main([*args, "--out", str(second)]) == 0
        passed = passed and first.read_bytes() == second.read_bytes()
    report(9, passed, "identical config + seed give byte-identical CSV/JSON outputs")
