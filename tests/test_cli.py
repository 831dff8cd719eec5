"""End-to-end CLI behavior: commands, config grammar, exit codes, determinism."""
import argparse
import ctypes
import ctypes.util
import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phaselab import cli, gauge, linalg, mixed, phases, spin_model
from phaselab.evolution import HamiltonianTrajectory, TimeGrid, member_paths, propagate
from phaselab.numerics import wrap_angle

from conftest import density_of, trace_phase
from test_golden import CASES as GOLDEN_CASES, GOLDEN, assert_close


def run(argv):
    return cli.main(argv)


def read_records(path):
    """Parse the long-format CSV into {(observable, label): value-string}."""
    out = {}
    for line in path.read_text().splitlines():
        if line.startswith("#") or line == "observable,label,value":
            continue
        name, label, value = line.split(",")
        out[(name, label)] = value
    return out


SPECIAL_ARGS = ["--mu-b", "1", "--omega", "4", "--theta", str(2 * np.pi / 3)]


def test_simulate_special_case(tmp_path):
    out = tmp_path / "report.csv"
    code = run(
        ["simulate", *SPECIAL_ARGS, "--big-theta", "1.0471975511965976",
         "--steps", "4000", "--out", str(out)]
    )
    assert code == 0
    records = read_records(out)
    assert records[("strong_transport_satisfied", "")] == "true"
    singh = float(records[("singh_phase", "")])
    gamma = float(records[("gamma_total", "")])
    assert abs(singh - gamma) < 1e-6
    # branch '+' at theta = alpha would carry zero geometric phase; here it is
    # the quarter-cone value, so just confirm both branches are present
    assert ("phi_g", "+") in records and ("phi_g", "-") in records


def test_simulate_theta_equals_alpha_zero_geometric(tmp_path):
    out = tmp_path / "flat.csv"
    code = run(
        ["simulate", "--mu-b", "1", "--omega", "1", "--theta", "0", "--big-theta",
         "0.7", "--out", str(out)]
    )
    assert code == 0
    records = read_records(out)
    assert abs(float(records[("phi_g", "+")])) < 1e-6


def test_simulate_json_format(tmp_path):
    out = tmp_path / "report.json"
    code = run(
        ["simulate", *SPECIAL_ARGS, "--steps", "2000", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    names = {record["observable"] for record in payload["records"]}
    assert {"gamma_total", "visibility", "singh_phase"} <= names
    assert payload["header"]["rng"] == "numpy PCG64 seed=0"


def test_config_file_and_flag_override(tmp_path):
    config = tmp_path / "scenario.cfg"
    config.write_text(
        "# demo scenario\n"
        "model = spin\n"
        "mu_b = 1.0\n"
        "omega = 4.0\n"
        f"theta = {2 * np.pi / 3}\n"
        "big_theta = 1.0\n"
        "steps = 2000\n"
        "weights = 0.7,0.3\n"
        "states = +,-\n"
        "gauge_seed = 9\n"
    )
    out = tmp_path / "out.csv"
    code = run(["simulate", "--config", str(config), "--steps", "1500", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "# steps = 1500" in text  # flag overrides file
    assert "seed=9" in text  # gauge_seed alias honored


def test_malformed_weights_exit_2(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("weights = 0.5,0.4\n")
    assert run(["simulate", "--config", str(config)]) == 2
    assert "weights" in capsys.readouterr().err


def test_unknown_config_key_has_line_diagnostic(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("mu_b = 1.0\nnonsense = 3\n")
    assert run(["simulate", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "bad.cfg:2" in err and "nonsense" in err


@pytest.mark.parametrize(
    "text, where",
    [("mu_b = 1\nmu_b = 2\n", "twice.cfg:2: field 'mu_b'"),
     ("seed = 3\n\ngauge_seed = 4\n", "twice.cfg:3: field 'seed'")],
    ids=["mu_b", "gauge_seed"],
)
def test_repeated_config_key_has_line_diagnostic(tmp_path, capsys, text, where):
    config = tmp_path / "twice.cfg"
    config.write_text(text)
    assert run(["simulate", "--config", str(config)]) == 2
    assert f"{where} already set on line 1" in capsys.readouterr().err


def test_steps_floor_exit_2():
    assert run(["simulate", "--steps", "5"]) == 2


@pytest.mark.parametrize(
    "argv, config, name",
    [
        (["sweep", "--axis", "theta", "--values", "a,b"], None, "--values"),
        (["sweep", "--axis", "theta", "--linspace", "0", "1", "x"], None, "--linspace"),
        (["sweep", "--axis", "theta", "--linspace", "0", "1", "-2"], None, "--linspace"),
        (["sweep", "--axis", "theta", "--values", "0.5,nan"], None, "theta"),
        (["simulate", "--mu-b", "nan"], None, "mu_b"),
        (["simulate", "--theta", "inf"], None, "theta"),
        (["simulate"], "horizon = explicit\nt_end = -1\n", "t_end"),
        (["simulate"], "horizon = explicit\nt_end = nan\n", "t_end"),
        (["simulate"], "weights = nan,0.5\n", "weights"),
        (["spin-report", "--omega", "nan"], None, "omega"),
        (["purify-demo", "--dim", "0"], None, "--dim"),
        # Hermitian to 1e-10 elementwise, but not to the propagator's 1e-12
        (["simulate"], "model = custom-sampled\nhorizon = explicit\nt_end = 1\n"
         "weights = 1.0\nstates = 0\nhamiltonian_file = {tmp}/asym.txt\n", "hamiltonian_file"),
        (["simulate", "--seed", "-1"], None, "seed"),
        (["verify-gauge", "--seed", "-1"], None, "seed"),
        (["purify-demo", "--seed", "-1"], None, "seed"),
        (["simulate"], "states = +,+\n", "states"),
        (["simulate"], "model = custom-sampled\nhorizon = explicit\nt_end = 1\n"
         "states = 0,0\nhamiltonian_file = {tmp}/herm.txt\n", "states"),
        # a one-period horizon of 2 pi / omega < 0 would end before it starts
        (["simulate", "--omega", "-1"], None, "omega"),
        (["sweep", "--axis", "omega", "--values", "1,-1"], None, "omega"),
        (["verify-gauge", "--omega", "-2"], None, "omega"),
        (["simulate"], "out = {tmp}/missing/report.csv\n", "out"),
        # explicit weights would hold still while big_theta moves
        (["sweep", "--axis", "big_theta", "--values", "0.1,1.5"], "weights = 0.5,0.5\n",
         "weights"),
        # a sum 1e-10 off 1: the config check and the ensemble share one tolerance
        (["simulate"], "weights = 0.5,0.4999999999\n", "weights"),
        # a one-period horizon of 2 pi / omega = inf would never end
        (["simulate", "--omega", "1e-310"], None, "omega"),
        (["sweep", "--axis", "omega", "--values", "1,1e-310"], None, "omega"),
        (["verify-gauge", "--omega", "1e-310"], None, "omega"),
        (["spin-report", "--omega", "1e-310"], None, "omega"),  # it printed period = inf
        # and one would ignore t_end
        (["simulate"], "t_end = 3\n", "t_end"),
        (["simulate"], "horizon = one-period\nt_end = 3\n", "t_end"),
        # a finite horizon whose midpoints overflow: t_j + t_{j+1} passes 2 t_end
        (["simulate", "--omega", "5e-308"], None, "omega"),
        (["sweep", "--axis", "theta", "--values", "0.5", "--omega", "5e-308"], None, "omega"),
        (["sweep", "--axis", "omega", "--values", "1,5e-308"], None, "omega"),
        (["verify-gauge", "--omega", "5e-308"], None, "omega"),
        (["simulate"], "horizon = explicit\nt_end = 1e308\n", "t_end"),
    ],
)
def test_out_of_range_input_exit_2(tmp_path, capsys, argv, config, name):
    if config is not None:
        (tmp_path / "asym.txt").write_text(
            "dim 2 steps 1\n" + "1 0 0.5 0 0.50000000001 0 -1 0\n" * 2
        )
        (tmp_path / "herm.txt").write_text("dim 2 steps 1\n" + "1 0 0.5 0 0.5 0 -1 0\n" * 2)
        path = tmp_path / "range.cfg"
        path.write_text(config.replace("{tmp}", str(tmp_path)))
        argv = [*argv, "--config", str(path)]
    assert run([*argv, "--steps", "100"]) == 2
    assert f"'{name}'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sweep", "--axis", "theta", "--values", "0.2,0.9,1.6"],
    ["verify-gauge", "--trials", "2"],
])
@pytest.mark.parametrize("target", ["missing/x.csv", "a-directory"])
def test_unwritable_out_fails_before_any_work(tmp_path, monkeypatch, capsys, argv, target):
    def never(*args, **kwargs):
        raise AssertionError("the scenario ran before `out` was checked")

    monkeypatch.setattr(cli, "observables", never)
    monkeypatch.setattr(cli, "gauge_campaign", never)
    (tmp_path / "a-directory").mkdir()
    before = sorted(tmp_path.rglob("*"))
    assert run([*argv, "--steps", "100", "--out", str(tmp_path / target)]) == 2
    assert capsys.readouterr().err.startswith("config error: field 'out': cannot write:")
    assert sorted(tmp_path.rglob("*")) == before


def sampled_file(tmp_path, dim, steps, matrix_fn):
    lines = [f"dim {dim} steps {steps}"]
    for j in range(steps + 1):
        M = matrix_fn(j / steps)
        row = []
        for a in range(dim):
            for b in range(dim):
                row += [f"{float(M[a, b].real):.17g}", f"{float(M[a, b].imag):.17g}"]
        lines.append(" ".join(row))
    path = tmp_path / "hamiltonian.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("flag, value", [("--omega", "1e-300"), ("--mu-b", "1e200")])
def test_overflowing_scenario_raises_instead_of_printing_nan(flag, value, capsys):
    # --omega 1e-300 fails the unitarity gate on a 0.249 defect (np.sinc and cos
    # round their huge arguments differently); --mu-b 1e200 overflows the
    # samples' Frobenius norm, which fails the Hermiticity check.  Either is bad
    # input: exit 2 naming 'steps' and the documented box, and no output
    with np.errstate(all="ignore"):
        assert run(["simulate", flag, value, "--steps", "20"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'steps'" in captured.err and "mu_b, omega in [0.1, 10]" in captured.err


@pytest.mark.parametrize("t_end, code", [("1e3", 0), ("1e8", 2), ("1e200", 2)])
def test_sampled_grid_beyond_the_squaring_cap_exits_2(tmp_path, capsys, t_end, code):
    # 10 steps over the golden dim-3 file, whose ||H||_1 is about 4.5: dt ||H||_1
    # is about 450 at t_end = 1e3, inside the step exponential's cap of 2^16,
    # and 4.5e7 or 4.5e199 beyond it, where the kernel refuses to square
    hfile = Path(__file__).parent / "golden" / "hamiltonian_dim3.txt"
    config = tmp_path / "coarse.cfg"
    config.write_text(
        f"model = custom-sampled\nhamiltonian_file = {hfile}\nhorizon = explicit\n"
        f"t_end = {t_end}\nsteps = 10\nweights = 0.5,0.3,0.2\nstates = 0,1,2\n"
    )
    assert run(["simulate", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == code
    err = capsys.readouterr().err
    assert ("'steps'" in err and "exceeds 2^16" in err) == bool(code)


@pytest.mark.parametrize("case", [(0.1, 0.1), (0.1, 10.0), (10.0, 0.1), (10.0, 10.0), "custom"])
def test_observables_match_the_per_path_functions(case, monkeypatch):
    # the one member pass against each member path psi_k = U|k> stacked alone
    # (k = 1) and a fresh stack of them all, every phase read off the step
    # energies on the propagator's own midpoint samples: the four box corners
    # at the default steps and the golden dim-3 custom-sampled scenario; at
    # d = 2 the member paths are read off the propagator `observables` runs,
    # the one started from the frame of the canonical '+' ket
    if case == "custom":
        monkeypatch.chdir(Path(__file__).parent / "golden")
        cfg = cli.parse_config_file("custom.cfg")
    else:
        cfg = cli.ScenarioConfig(mu_b=case[0], omega=case[1])
    sc = cli.build_scenario(cfg)
    obs = cli.observables(sc)

    U = propagate(sc.H, sc.grid, sc.ensemble.states[0] if sc.H.dim == 2 else None)
    samples = U.samples
    stack = phases.PathStack(sc.grid, member_paths(U, sc.ensemble.states))
    weights = sc.ensemble.weights
    for k in range(sc.ensemble.size):
        alone = phases.PathStack(sc.grid, stack.states[..., k:k + 1])
        (total,), (overlap,) = alone.totals()
        energies = alone.step_energies(samples)
        (dynamical,), (geometric,) = alone.curve_phases(energies)
        for name, got, want in (("phi_t", obs.phi_t, total), ("overlap", obs.overlap, overlap),
                                ("phi_d", obs.phi_d, dynamical),
                                ("phi_g", obs.phi_g, geometric),
                                ("transport_strong", obs.transport_strong,
                                 np.max(np.abs(energies)))):
            assert abs(got[k] - want) <= 1e-13, (k, name)
    energies = stack.step_energies(samples)
    phi_d, phi_g = stack.curve_phases(energies)
    assert abs(obs.singh_phase - mixed.singh_phase(weights, stack, phi_g)) <= 1e-13
    assert abs(obs.transport_weak - np.max(np.abs(weights @ energies))) <= 1e-13
    assert abs(obs.mixed_dynamical - weights @ phi_d) <= 1e-13
    # the library's transport conditions, on the step energies the observables
    # read (at d = 2 the frame's, 1e-13 from those above), are the printed
    # residuals, bit for bit
    weak, strong = mixed.transport_conditions(weights, stack, cli._propagate(sc)[2])
    assert weak == obs.transport_weak
    assert strong.tobytes() == obs.transport_strong.tobytes()
    U_T = propagate(sc.H, sc.grid).matrices[-1]  # U(T) itself, not U(T) W
    gamma_total, visibility = trace_phase(U_T, density_of(sc.ensemble))
    assert abs(obs.gamma_total - gamma_total) <= 1e-13
    assert abs(obs.visibility - visibility) <= 1e-13


@pytest.mark.parametrize("case", ["spin", "spin-incomplete", "custom", "custom-incomplete"])
def test_mixed_trace_is_the_partial_map_of_the_member_paths(case, monkeypatch):
    # gamma_T and the visibility come from Tr[U(T) rho0] = sum_k w_k <k|psi_k(T)>,
    # the ensemble average over the member paths, for complete and incomplete
    # orthonormal ensembles alike: they match the trace of U(T) itself with rho0
    if case.startswith("custom"):
        monkeypatch.chdir(Path(__file__).parent / "golden")
        cfg = cli.parse_config_file("custom.cfg")
    else:
        cfg = cli.ScenarioConfig()
    if case == "spin-incomplete":
        cfg = dataclasses.replace(cfg, states=("+",), weights=(1.0,))
    elif case == "custom-incomplete":
        cfg = dataclasses.replace(cfg, states=("0", "2"), weights=(0.6, 0.4))
    sc = cli.build_scenario(cli.validate_config(cfg))
    obs = cli.observables(sc)
    U = propagate(sc.H, sc.grid)
    gamma_total, visibility = trace_phase(U.matrices[-1], density_of(sc.ensemble))
    assert abs(obs.gamma_total - gamma_total) <= 1e-14
    assert abs(obs.visibility - visibility) <= 1e-14


@pytest.mark.parametrize("argv", [
    ["simulate"],
    ["sweep", "--axis", "theta", "--values", "0.5,1.5"],
    ["verify-gauge", "--trials", "2"],
])
def test_scenario_commands_build_no_density_matrix(argv, monkeypatch, capsys):
    # gamma_T and the visibility are the ensemble average over the member
    # paths: no scenario forms rho0, nor checks or decomposes it
    built, check = [], mixed.DensityMatrix.__post_init__
    monkeypatch.setattr(mixed.DensityMatrix, "__post_init__",
                        lambda self: built.append(1) or check(self))
    assert run([*argv, "--steps", "200"]) == 0
    assert "gamma_total" in capsys.readouterr().out
    assert not built


BOX_CORNERS = [(0.1, 0.1), (0.1, 10.0), (10.0, 0.1), (10.0, 10.0)]


@pytest.mark.parametrize("theta", [0.3, np.pi / 2, 2.8])
@pytest.mark.parametrize("mu_b, omega", BOX_CORNERS)
def test_box_corner_phases_match_the_closed_forms(mu_b, omega, theta):
    # at the default steps, where mu_B T is largest (10, 0.1) the step phases
    # carry a fast dynamical phase of E dt ~ 0.03 rad, which a derivative
    # estimator would turn into an O((E dt)^2) bias of the geometric phase
    sc = cli.build_scenario(cli.ScenarioConfig(mu_b=mu_b, omega=omega, theta=theta))
    obs = cli.observables(sc)
    exact = np.array([spin_model.geometric_phase(sc.params, label) for label in sc.cfg.states])
    assert np.max(np.abs(wrap_angle(obs.phi_g - exact))) <= 1e-5
    singh = np.angle(np.sum(sc.ensemble.weights * np.exp(1j * exact)))
    assert abs(wrap_angle(obs.singh_phase - singh)) <= 1e-5


@pytest.mark.parametrize("mu_b, omega", [(10.0, 0.1), (0.1, 0.1)])
def test_box_corner_gauge_invariants_hold(mu_b, omega, tmp_path):
    out = tmp_path / "verify.csv"
    assert run(["verify-gauge", "--mu-b", str(mu_b), "--omega", str(omega), "--trials", "3",
                "--out", str(out)]) == 0
    records = read_records(out)
    for name in ("max_gamma_total_deviation", "max_visibility_deviation",
                 "max_holonomy_deviation", "max_singh_deviation"):
        assert float(records[(name, "")]) <= 1e-7, name


BOX_AXIS = (0.1, 0.3, 1.0, 3.0, 10.0)


def test_box_grid_geometric_phases_at_the_default_steps():
    # the 5 x 5 x 6 grid of the documented box at the default steps: every
    # phi_g and the Singh phase, read off the propagated curve's own step
    # connection, match the closed forms to 1e-7 (worst 7.5e-9 and 9.3e-9 rad,
    # at mu_B = 10, omega = 0.1; the Bargmann polygon read 4.7e-6)
    worst = 0.0
    for mu_b, omega, theta in itertools.product(BOX_AXIS, BOX_AXIS,
                                                np.linspace(1e-3, np.pi - 1e-3, 6)):
        sc = cli.build_scenario(cli.validate_config(
            cli.ScenarioConfig(mu_b=mu_b, omega=omega, theta=float(theta))))
        obs = cli.observables(sc)
        exact = np.array([spin_model.geometric_phase(sc.params, label) for label in sc.cfg.states])
        singh = np.angle(np.sum(sc.ensemble.weights * np.exp(1j * exact)))
        worst = max(worst, np.max(np.abs(wrap_angle(obs.phi_g - exact))),
                    abs(wrap_angle(obs.singh_phase - singh)))
    assert worst <= 1e-7


def recorded_samplings(monkeypatch) -> list:
    """The times of every `HamiltonianTrajectory.sample` call, and a
    `phases.step_overlaps` that must not be called."""
    times, sample = [], HamiltonianTrajectory.sample
    monkeypatch.setattr(HamiltonianTrajectory, "sample",
                        lambda self, t: times.append(t) or sample(self, t))
    return times


def forbid_step_overlaps(monkeypatch) -> None:
    def never(states):
        raise AssertionError("a step-overlap pass was formed")

    for module in (cli, phases, mixed, gauge):
        monkeypatch.setattr(module, "step_overlaps", never, raising=False)


@pytest.mark.parametrize("model", ["spin", "custom"])
def test_each_scenario_samples_h_once_on_the_propagators_midpoints(model, monkeypatch, capsys):
    # d = 2 and the golden dim-3 file: simulate, and every point of a sweep
    # (spin only), sample H once, on the grid midpoints that the propagator
    # and the step energies read, and form no step overlaps; verify-gauge
    # samples H once too (its Bargmann holonomy checks form step overlaps)
    if model == "custom":
        monkeypatch.chdir(Path(__file__).parent / "golden")
        argv, grid = ["--config", "custom.cfg"], TimeGrid(0.0, 2.5, 800)
    else:
        argv, grid = ["--steps", "300"], TimeGrid(0.0, 2.0 * np.pi, 300)
    commands = [["simulate"], ["verify-gauge", "--trials", "2"]]
    if model == "spin":
        commands.append(["sweep", "--axis", "theta", "--values", "0.5,1.5,2.5"])
    for command in commands:
        with monkeypatch.context() as patch:
            times = recorded_samplings(patch)
            if command[0] != "verify-gauge":
                forbid_step_overlaps(patch)
            assert run([*command, *argv]) == 0, command
        capsys.readouterr()
        assert len(times) == (3 if command[0] == "sweep" else 1), command
        for t in times:
            assert t.tobytes() == grid.midpoints.tobytes(), command


SPIN_FIELD_CASES = [
    (["--omega", "3"], None, "flag '--omega': the custom-sampled model ignores field 'omega'"),
    (["--mu-b", "5"], None, "flag '--mu-b': the custom-sampled model ignores field 'mu_b'"),
    (["--theta", "2"], None, "flag '--theta': the custom-sampled model ignores field 'theta'"),
    (["--omega", "3", "--theta", "2", "--mu-b", "5"], None,
     "flag '--mu-b': the custom-sampled model ignores field 'mu_b'"),
    ([], "omega = 3", "{config}:8: field 'omega': the custom-sampled model ignores it"),
    ([], "mu_b = 1", "{config}:8: field 'mu_b': the custom-sampled model ignores it"),
    ([], "theta = 0.5", "{config}:8: field 'theta': the custom-sampled model ignores it"),
]


@pytest.mark.parametrize("command", ["simulate", "verify-gauge"])
@pytest.mark.parametrize("flags, line, message", SPIN_FIELD_CASES)
def test_a_custom_sampled_model_refuses_the_spin_fields(command, flags, line, message, tmp_path,
                                                        monkeypatch, capsys):
    # mu_b, omega and theta shape the rotating field only: set for a
    # custom-sampled model, by a flag or by a config line, they exit 2 and name
    # the field (and the line); big_theta sets a two-state ensemble's default
    # weights, so it is still taken
    golden = Path(__file__).parent / "golden"
    monkeypatch.chdir(golden)
    config = tmp_path / "custom.cfg"
    text = (golden / "custom.cfg").read_text()
    config.write_text(text + (line + "\n" if line else ""))
    assert len(text.splitlines()) == 7
    assert run([command, "--config", str(config), "--steps", "200", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message.format(config=config)}\n"


def test_a_custom_sampled_model_takes_big_theta(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(Path(__file__).parent / "golden")
    config = tmp_path / "two.cfg"
    config.write_text("model = custom-sampled\nhamiltonian_file = hamiltonian_dim3.txt\n"
                      "horizon = explicit\nt_end = 2.5\nstates = 0,1\n")
    outputs = []
    for value in ("0.5", "2.0"):
        assert run(["simulate", "--config", str(config), "--steps", "200",
                    "--big-theta", value]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] != outputs[1]  # the default weights follow big_theta


@pytest.mark.parametrize("libc", ["not-found", "no-mallopt"])
def test_heap_retention_is_a_silent_no_op_without_mallopt(libc, monkeypatch, capsys):
    argv = ["simulate", "--steps", "300", "--format", "json"]
    cli._retain_heap.cache_clear()
    assert run(argv) == 0
    retained = capsys.readouterr()
    loaded = []

    def cdll(name):
        loaded.append(name)
        return object()  # a C library without mallopt

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    if libc == "not-found":
        monkeypatch.setattr(ctypes.util, "find_library", lambda name: None)
    cli._retain_heap.cache_clear()
    try:
        assert run(argv) == 0
        assert run(argv) == 0  # cached: the library is looked up once per process
    finally:
        cli._retain_heap.cache_clear()
    assert len(loaded) == (0 if libc == "not-found" else 1)
    assert capsys.readouterr() == (retained.out * 2, "")


def test_custom_sampled_model(tmp_path):
    # constant diagonal H: exactly solvable, exercises the file pipeline
    H = np.diag([0.25, 1.75]).astype(complex)
    hfile = sampled_file(tmp_path, 2, 50, lambda s: H)
    config = tmp_path / "custom.cfg"
    config.write_text(
        "model = custom-sampled\n"
        f"hamiltonian_file = {hfile}\n"
        "horizon = explicit\n"
        "t_end = 2.0\n"
        "steps = 400\n"
        "weights = 0.5,0.5\n"
        "states = 0,1\n"
    )
    out = tmp_path / "custom.csv"
    assert run(["simulate", "--config", str(config), "--out", str(out)]) == 0
    records = read_records(out)
    assert abs(float(records[("phi_d", "0")]) - (-0.5)) < 1e-8
    assert abs(float(records[("phi_d", "1")]) - (-3.5)) < 1e-8


def test_sampled_interpolant_is_the_linear_formula_bitwise():
    # (1 - frac) H[lo] + frac H[lo + 1] as written, bit for bit, at the nodes and
    # midpoints of the golden dim-3 file and of the golden scenario's grid
    path = Path(__file__).parent / "golden" / "hamiltonian_dim3.txt"
    t_end, steps = 2.5, 40
    rows = np.loadtxt(path, skiprows=1)
    samples = (rows[:, 0::2] + 1j * rows[:, 1::2]).reshape(steps + 1, 3, 3)
    samples = 0.5 * (samples + np.conj(np.swapaxes(samples, -2, -1)))
    H = cli.load_sampled_hamiltonian(str(path), t_end)
    for n in (steps, 800):
        nodes = np.linspace(0.0, t_end, n + 1)
        for times in (nodes, 0.5 * (nodes[:-1] + nodes[1:])):
            pos = times / t_end * steps
            lo = np.minimum(pos.astype(int), steps - 1)
            frac = (pos - lo)[:, None, None]
            expected = (1.0 - frac) * samples[lo] + frac * samples[lo + 1]
            assert H.evaluate(times).tobytes() == expected.tobytes()


def test_trace_carrying_two_level_file_runs_the_phase_channel(tmp_path):
    # H(t) = c(t) I + h.sigma with c linear in t and h constant: the loader's
    # linear interpolant and the midpoint rule are exact, and c I commutes
    # with h.sigma, so U(T) = exp(-i int c dt) exp(-i T h.sigma)
    c0, c1, t_end = 0.3, 1.7, 2.0
    h_sigma = np.array([[0.5, 0.4 + 0.2j], [0.4 - 0.2j, -0.5]])
    hfile = sampled_file(tmp_path, 2, 8, lambda s: (c0 + c1 * t_end * s) * np.eye(2) + h_sigma)
    config = tmp_path / "trace.cfg"
    config.write_text(
        f"model = custom-sampled\nhamiltonian_file = {hfile}\nhorizon = explicit\n"
        f"t_end = {t_end}\nsteps = 500\nweights = 0.7,0.3\nstates = 0,1\n"
    )
    out = tmp_path / "trace.csv"
    assert run(["simulate", "--config", str(config), "--out", str(out)]) == 0
    vals, vecs = np.linalg.eigh(h_sigma)
    U = np.exp(-1j * (c0 * t_end + 0.5 * c1 * t_end**2)) * (
        (vecs * np.exp(-1j * t_end * vals)) @ np.conj(vecs.T))
    expected = np.angle(np.trace(U @ np.diag([0.7, 0.3])))
    got = float(read_records(out)[("gamma_total", "")])
    assert abs(np.angle(np.exp(1j * (got - expected)))) < 1e-10


def test_zero_visibility_exit_3(tmp_path, capsys):
    # (E1 - E0) * T = pi with equal weights: Tr[U(T) rho] = 0 exactly
    H = np.diag([0.0, np.pi]).astype(complex)
    hfile = sampled_file(tmp_path, 2, 10, lambda s: H)
    config = tmp_path / "dark.cfg"
    config.write_text(
        "model = custom-sampled\n"
        f"hamiltonian_file = {hfile}\n"
        "horizon = explicit\n"
        "t_end = 1.0\n"
        "steps = 100\n"
        "weights = 0.5,0.5\n"
        "states = 0,1\n"
    )
    assert run(["simulate", "--config", str(config)]) == 3
    assert "zero visibility" in capsys.readouterr().err


def test_undefined_total_phase_exit_3_names_its_cause(tmp_path, capsys):
    # H = sigma_x on |0>, |1> with |2> at rest, for t_end = pi/2: U(T)|0> = -i|1>,
    # so phi_t of state 0 is undefined while the visibility is its weight-0.2
    # share of |2>; the message names the endpoint overlap, not a flat fringe
    H = np.zeros((3, 3), dtype=complex)
    H[0, 1] = H[1, 0] = 1.0
    hfile = sampled_file(tmp_path, 3, 2, lambda s: H)
    config = tmp_path / "half.cfg"
    config.write_text(f"model = custom-sampled\nhamiltonian_file = {hfile}\n"
                      f"horizon = explicit\nt_end = {np.pi / 2!r}\nsteps = 400\n"
                      "weights = 0.5,0.3,0.2\nstates = 0,1,2\n")
    assert run(["simulate", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("undefined phase: endpoint overlap magnitude ")
    assert "zero visibility" not in err
    out = tmp_path / "verify.csv"
    assert run(["verify-gauge", "--config", str(config), "--trials", "1", "--out", str(out)]) == 0
    assert float(read_records(out)[("visibility", "")]) == pytest.approx(0.2, abs=1e-12)


def test_sampled_file_validation(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("dim 2 steps 2\n1 0 0 0 0 0 1 0\n")  # missing rows
    config = tmp_path / "c.cfg"
    config.write_text(
        f"model = custom-sampled\nhamiltonian_file = {bad}\nhorizon = explicit\n"
        "t_end = 1.0\nsteps = 100\nweights = 1.0\nstates = 0\n"
    )
    assert run(["simulate", "--config", str(config)]) == 2
    assert "sample rows" in capsys.readouterr().err


def test_sampled_file_row_width_checked_before_allocation(tmp_path, capsys):
    # a stack of the header's dim would take about 300 GiB; the rows' width
    # must be rejected before any such array is built
    huge = tmp_path / "huge.txt"
    huge.write_text("dim 100000 steps 1\n" + "1 0 0 0 0 0 1 0\n" * 2)
    config = tmp_path / "c.cfg"
    config.write_text(
        f"model = custom-sampled\nhamiltonian_file = {huge}\nhorizon = explicit\n"
        "t_end = 1.0\nsteps = 100\nweights = 1.0\nstates = 0\n"
    )
    assert run(["simulate", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"{huge}:2" in err and "expected" in err


GOOD_ROW = "1 0 0.5 0 0.5 0 -1 0"


@pytest.mark.parametrize("rows, message", [
    ([GOOD_ROW, "1 0 0.5 0 x 0 -1 0", GOOD_ROW], "3: could not convert string to float: 'x'"),
    ([GOOD_ROW, "1 0 0.5 0 0.5 0 -1", "1 0 0.5 0 x 0 -1 0"], "3: expected 8 numbers, found 7"),
    (["1 0 0.5 0 x 0 -1", GOOD_ROW, GOOD_ROW], "2: could not convert string to float: 'x'"),
    (["1 0 0.5 0 0.5 0 -1 0 9", GOOD_ROW, "0x1p3 0 0 0 0 0 0 0"],
     "2: expected 8 numbers, found 9"),
    ([GOOD_ROW, GOOD_ROW, "0x1p3 0 0 0 0 0 0 0"], "4: could not convert string to float: '0x1p3'"),
    ([GOOD_ROW + " 0"] * 3, "2: expected 8 numbers, found 9"),  # one width, not the header's
    ([GOOD_ROW, GOOD_ROW, GOOD_ROW.replace("-1", "-1_0")], None),  # float() reads 1_0
    # lines are numbered as in the file, comment and blank lines included
    (["# rows at t = 0, 0.5, 1", "", GOOD_ROW, "1 0 0.5 0 x 0 -1 0", GOOD_ROW],
     "5: could not convert string to float: 'x'"),
], ids=["token", "width-first", "token-before-width", "width-before-token", "hex", "consistent",
        "underscore", "commented"])
def test_sampled_file_rows_are_read_as_float_reads_them(tmp_path, capsys, rows, message):
    # every row is read token by token with float(), the syntax of config
    # values, and the first bad line is named
    hfile = tmp_path / "rows.txt"
    hfile.write_text("dim 2 steps 2\n" + "\n".join(rows) + "\n")
    config = tmp_path / "c.cfg"
    config.write_text(
        f"model = custom-sampled\nhamiltonian_file = {hfile}\nhorizon = explicit\n"
        "t_end = 1.0\nsteps = 10\nweights = 0.5,0.5\nstates = 0,1\n"
    )
    code = run(["simulate", "--config", str(config), "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    if message is None:
        assert code == 0 and err == ""
    else:
        assert code == 2 and err == f"config error: {hfile}:{message}\n"


@pytest.mark.parametrize("header, message", [
    ("dim 2 step 2", "header must read 'dim <d> steps <n>'"),
    ("dim 2 steps 0", "dim and steps must be positive"),
])
def test_sampled_file_header_is_named_by_its_line(tmp_path, capsys, header, message):
    hfile = tmp_path / "h.txt"
    hfile.write_text(f"# a sampled H\n\n{header}\n" + f"{GOOD_ROW}\n" * 3)
    config = tmp_path / "c.cfg"
    config.write_text(
        f"model = custom-sampled\nhamiltonian_file = {hfile}\nhorizon = explicit\n"
        "t_end = 1.0\nweights = 0.5,0.5\nstates = 0,1\n"
    )
    assert run(["simulate", "--config", str(config), "--steps", "10"]) == 2
    assert capsys.readouterr().err == f"config error: {hfile}:3: {message}\n"


EXPLICIT_SPIN = "horizon = explicit\nt_end = 1\n"


def custom_config(hfile: str, states: str = "0,1") -> str:
    return (f"model = custom-sampled\nhamiltonian_file = {hfile}\nhorizon = explicit\n"
            f"t_end = 1\nweights = 0.5,0.5\nstates = {states}\n")


@pytest.mark.parametrize("argv, config, message", [
    (["simulate", "--config", "missing.cfg"], None,
     "cannot read config file missing.cfg: [Errno 2] No such file or directory: 'missing.cfg'"),
    (["simulate"], "mu_b 1\n", "c.cfg:1: expected 'key = value', got 'mu_b 1'"),
    (["simulate"], "\nmu_b = x\n", "c.cfg:2: field 'mu_b': could not convert string to float: 'x'"),
    (["simulate"], "model = foo\n", "field 'model': unknown model 'foo'"),
    (["simulate"], "horizon = explicit\n", "field 't_end': required for an explicit horizon"),
    (["simulate"], "model = custom-sampled\nhorizon = explicit\nt_end = 1\n",
     "field 'hamiltonian_file': required for custom-sampled model"),
    (["simulate"], "model = custom-sampled\nhamiltonian_file = h.txt\n",
     "field 'horizon': custom-sampled model needs an explicit t_end"),
    (["simulate"], "weights = 0.5,0.3,0.2\n", "field 'weights': 3 weights for 2 states"),
    (["simulate"], custom_config("missing.txt"),
     "cannot read Hamiltonian file missing.txt: [Errno 2] No such file or directory: "
     "'missing.txt'"),
    (["simulate"], custom_config("empty.txt"), "empty.txt: empty Hamiltonian file"),
    (["simulate"], custom_config("header.txt"),
     "header.txt:1: invalid literal for int() with base 10: 'two'"),
    (["simulate"], custom_config("nan.txt"), "nan.txt: non-finite entries"),
    (["simulate"], "states = +,x\n", "field 'states': spin selectors are '+'/'-', got 'x'"),
    (["simulate"], custom_config("h.txt", "0,a"),
     "field 'states': custom selectors are basis indices, got 'a'"),
    (["simulate"], custom_config("h.txt", "0,5"), "field 'states': index 5 outside 0..1"),
    (["sweep", "--axis", "theta", "--values", "0.5"], custom_config("h.txt"),
     "sweep supports the spin model only"),
    (["sweep", "--axis", "theta", "--values", "0.5"], "states = +\nweights = 1\n",
     "field 'states': a sweep needs both branches '+' and '-', got +"),
    (["spin-report"], custom_config("h.txt"), "spin-report supports the spin model only"),
    (["spin-report"], "states = +,x\n", "field 'states': spin selectors are '+'/'-', got 'x'"),
    (["simulate", "--out", "file.txt/x.csv"], None,
     "field 'out': cannot write: [Errno 20] Not a directory: 'file.txt/x.csv'"),
    (["simulate"], "hamiltonian_file = missing.txt\n",
     "field 'hamiltonian_file': the spin model ignores it; set model = custom-sampled"),
    (["simulate"], "horizon = explicit\nt_end = 1e308\n",
     "field 't_end': 1e+308 overflows the grid's midpoints"),
    (["simulate", "--steps", "10000000000000"], None,
     "field 'steps': at most 6710886 steps fit the 2 GiB working-set limit at dimension 2, "
     "got 10000000000000"),
    (["simulate", "--steps", "10000000000000"], custom_config("h3.txt", "0,2"),
     "field 'steps': at most 2982616 steps fit the 2 GiB working-set limit at dimension 3, "
     "got 10000000000000"),
    (["purify-demo", "--dim", "100000000"], None,
     "flag '--dim': at most 3276 fits the 2 GiB working-set limit, got 100000000"),
    (["sweep", "--axis", "theta", "--linspace", "0", "1", "1000000000000000"], None,
     "flag '--linspace': at most 268435 points fit the 2 GiB working-set limit, "
     "got 1000000000000000"),
    # spin-report and sweep print one-period closed forms, whatever the horizon
    (["spin-report", "--omega", "0"], EXPLICIT_SPIN,
     "field 'omega': spin-report needs omega > 0, got 0.0"),
    (["spin-report", "--omega", "-1"], EXPLICIT_SPIN,
     "field 'omega': spin-report needs omega > 0, got -1.0"),
    (["sweep", "--omega", "0", "--axis", "theta", "--values", "1", "--steps", "100"],
     EXPLICIT_SPIN, "field 'omega': sweep needs omega > 0, got 0.0"),
    (["sweep", "--axis", "omega", "--values", "0,1", "--steps", "100"], EXPLICIT_SPIN,
     "field 'omega': sweep needs omega > 0, got 0.0"),
    # 2 |mu_b| T overflows, T the horizon or the period 2 pi / omega
    (["spin-report", "--mu-b", "1e300", "--omega", "1e-8"], None,
     "field 'mu_b': 2 |mu_b| T overflows at T = 628318530.718"),
    (["spin-report", "--mu-b", "1e308"], None,
     "field 'mu_b': 2 |mu_b| T overflows at T = 6.28318530718"),
    (["spin-report", "--mu-b", "1e308", "--omega", "1000"], None,
     "field 'mu_b': 2 |mu_b| T overflows at T = 0.00628318530718"),
    (["simulate", "--omega", "1e-300", "--mu-b", "1e10", "--steps", "20"], None,
     "field 'mu_b': 2 |mu_b| T overflows at T = 6.28318530718e+300"),
    (["simulate", "--mu-b", "1e308"], None,
     "field 'mu_b': 2 |mu_b| T overflows at T = 6.28318530718"),
    # a drawn angle beyond 2^26 rad, where e^{i theta} keeps its phase to about 1e-8
    (["verify-gauge", "--gauge-scale", "5e307", "--steps", "100", "--trials", "1"], None,
     "field 'gauge_scale': 5e+307 draws angles beyond 2^26 rad at T = 6.28318530718"),
    (["verify-gauge", "--gauge-scale", "1e307", "--steps", "100", "--trials", "1"], None,
     "field 'gauge_scale': 1e+307 draws angles beyond 2^26 rad at T = 6.28318530718"),
    (["verify-gauge", "--gauge-scale", "1e8", "--steps", "2000", "--trials", "3"], None,
     "field 'gauge_scale': 100000000.0 draws angles beyond 2^26 rad at T = 6.28318530718"),
], ids=["config-unreadable", "no-equals", "unconvertible", "model", "t_end-missing",
        "hamiltonian_file-missing", "custom-one-period", "weight-count", "hamiltonian-unreadable",
        "hamiltonian-empty", "header-not-integer", "non-finite", "spin-selector",
        "custom-selector", "custom-index", "sweep-custom", "sweep-one-branch",
        "spin-report-custom", "spin-report-selector", "out-under-a-file", "spin-hamiltonian_file",
        "t_end-overflow",
        "steps-working-set", "steps-working-set-custom", "dim-working-set",
        "linspace-working-set", "spin-report-explicit-omega-0",
        "spin-report-explicit-omega-negative", "sweep-explicit-omega-0",
        "sweep-explicit-omega-axis", "spin-report-mu_b-T-overflow", "spin-report-mu_b-overflow",
        "spin-report-mu_b-overflow-short-period", "simulate-mu_b-T-overflow",
        "simulate-mu_b-overflow", "gauge_scale-uniform-overflow", "gauge_scale-nan",
        "gauge_scale-unresolved"])
def test_exit_2_messages_word_for_word(tmp_path, monkeypatch, capsys, argv, config, message):
    # every message names what to mend; the files are named relative to the
    # working directory, so each stderr line is pinned whole
    monkeypatch.chdir(tmp_path)
    rows = f"{GOOD_ROW}\n" * 2
    Path("h.txt").write_text("dim 2 steps 1\n" + rows)
    Path("empty.txt").write_text("# no samples\n\n")
    Path("header.txt").write_text("dim two steps 1\n" + rows)
    Path("nan.txt").write_text(f"dim 2 steps 1\nnan{GOOD_ROW[1:]}\n{GOOD_ROW}\n")
    Path("file.txt").write_text("")
    Path("h3.txt").write_text("dim 3 steps 1\n" + f"{' '.join(['0'] * 18)}\n" * 2)
    if config is not None:
        Path("c.cfg").write_text(config)
        argv = [*argv, "--config", "c.cfg"]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("command", ["simulate", "verify-gauge"])
def test_a_static_field_runs_on_an_explicit_horizon(tmp_path, monkeypatch, capsys, command):
    # omega = 0 has no period, which only spin-report and sweep need
    monkeypatch.chdir(tmp_path)
    Path("c.cfg").write_text(EXPLICIT_SPIN)
    argv = [command, "--config", "c.cfg", "--omega", "0", "--steps", "100", "--trials", "1"]
    assert run(argv) == 0
    assert capsys.readouterr().err == ""


def test_a_gauge_scale_inside_the_angle_bound_still_runs(tmp_path):
    # scale 1e6 over one period draws angles below 1.6e7 rad, inside 2^26, and
    # every invariant and prediction holds to criterion 4's 1e-7
    out = tmp_path / "verify.csv"
    assert run(["verify-gauge", "--gauge-scale", "1e6", "--steps", "2000", "--trials", "3",
                "--out", str(out)]) == 0
    records = read_records(out)
    for name in ("gamma_total_deviation", "visibility_deviation", "holonomy_deviation",
                 "singh_deviation", "total_phase_prediction_mismatch",
                 "dynamical_phase_prediction_mismatch"):
        assert float(records[(f"max_{name}", "")]) <= 1e-7, name


TWO_LEVEL_FILE = "dim 2 steps 1\n" + f"{GOOD_ROW}\n" * 2
# the same file with one digit rewritten: h00 = 2 at t = 0, still Hermitian
EDITED_TWO_LEVEL_FILE = TWO_LEVEL_FILE.replace("\n1 ", "\n2 ", 1)


def test_relative_hamiltonian_file_opens_against_the_working_directory(tmp_path, monkeypatch,
                                                                     capsys):
    # not against the config's directory: the config sits in one directory
    # and the samples in another; a second directory holds another h.txt, and
    # each call reads the file of its own working directory, memo or not
    for name in ("configs", "samples", "other"):
        (tmp_path / name).mkdir()
    (tmp_path / "configs" / "c.cfg").write_text(custom_config("h.txt"))
    (tmp_path / "samples" / "h.txt").write_text(TWO_LEVEL_FILE)
    (tmp_path / "other" / "h.txt").write_text(EDITED_TWO_LEVEL_FILE)
    argv = ["simulate", "--config", str(tmp_path / "configs" / "c.cfg"), "--steps", "20"]
    outputs = []
    for name in ("samples", "other", "samples", "other"):
        monkeypatch.chdir(tmp_path / name)
        assert run(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] != outputs[1]
    assert outputs[2:] == outputs[:2]
    monkeypatch.chdir(tmp_path / "configs")
    assert run(argv) == 2
    assert capsys.readouterr().err == ("config error: cannot read Hamiltonian file h.txt: "
                                       "[Errno 2] No such file or directory: 'h.txt'\n")


@pytest.fixture
def counted_parses():
    """An empty loader memo, and a count of the parses made from then on."""
    cli._parse_sampled.cache_clear()
    return lambda: cli._parse_sampled.cache_info().misses


def two_level_run(tmp_path, text):
    """simulate on a two-level sampled file holding `text`: (argv, its path)."""
    hfile = tmp_path / "h.txt"
    hfile.write_text(text)
    (tmp_path / "c.cfg").write_text(custom_config(str(hfile)))
    return ["simulate", "--config", str(tmp_path / "c.cfg"), "--steps", "20"], hfile


def test_an_unchanged_sampled_file_is_parsed_once(tmp_path, capsys, counted_parses):
    # the file is read on every call, and its parse kept on (path, text, t_end)
    argv, _ = two_level_run(tmp_path, TWO_LEVEL_FILE)
    outputs = []
    for _ in range(2):
        assert run(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert counted_parses() == 1
    assert outputs[0] == outputs[1]


def test_an_edited_sampled_file_is_parsed_again(tmp_path, capsys, counted_parses):
    # the memo is keyed on the text, so an edit that keeps the file's size
    # and mtime is still seen
    argv, hfile = two_level_run(tmp_path, TWO_LEVEL_FILE)
    assert run(argv) == 0
    before, stat = capsys.readouterr().out, hfile.stat()
    hfile.write_text(EDITED_TWO_LEVEL_FILE)
    os.utime(hfile, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert (hfile.stat().st_size, hfile.stat().st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
    assert run(argv) == 0
    edited = capsys.readouterr().out
    assert counted_parses() == 2
    cli._parse_sampled.cache_clear()
    assert run(argv) == 0
    assert capsys.readouterr().out == edited != before


def test_sampled_rows_are_read_without_np_loadtxt(monkeypatch, capsys):
    # every row is read with float(): with np.loadtxt refused, a fresh parse
    # of the golden dim-3 file still prints custom.csv byte for byte
    def refuse(*args, **kwargs):
        raise AssertionError("np.loadtxt called")

    cli._parse_sampled.cache_clear()
    monkeypatch.setattr(np, "loadtxt", refuse)
    monkeypatch.chdir(GOLDEN)
    assert run(GOLDEN_CASES["custom.csv"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "custom.csv").read_text()
    assert cli._parse_sampled.cache_info().misses == 1


def test_a_failing_sampled_file_fails_on_every_call(tmp_path, capsys):
    # errors are not kept: each call parses the file again, exits 2 with the
    # same message, and the fixed file runs
    argv, hfile = two_level_run(tmp_path, TWO_LEVEL_FILE.replace("-1", "x", 1))
    errors = []
    for _ in range(2):
        assert run(argv) == 2
        errors.append(capsys.readouterr().err)
    assert errors == [f"config error: {hfile}:2: could not convert string to float: 'x'\n"] * 2
    hfile.write_text(TWO_LEVEL_FILE)
    assert run(argv) == 0


@pytest.mark.parametrize("option, message", [
    (["--workers", "2"], "phaselab: error: unrecognized arguments: --workers 2"),
    (["--config", "c.cfg"], "config error: c.cfg:1: unknown field 'workers'"),
], ids=["workers-flag", "workers-field"])
def test_sweep_worker_count_exits_2(tmp_path, monkeypatch, capsys, option, message):
    # a sweep runs its points in one process: a worker count is an unknown
    # option or field like any other, and the last stderr line is pinned whole
    monkeypatch.chdir(tmp_path)
    Path("c.cfg").write_text("workers = 2\n")
    try:
        code = run(["sweep", "--axis", "theta", "--values", "0.5", "--steps", "50", *option])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert capsys.readouterr().err.splitlines()[-1] == message


def test_steps_ceiling_is_checked_before_any_grid_exists(capsys):
    most = cli.WORKING_SET_BYTES // (cli.STEP_BYTES * 2 * 2)
    assert most >= 100 * 40000  # criterion 1's grids sit far inside the ceiling
    assert cli.validate_config(cli.ScenarioConfig(steps=most)).steps == most
    with pytest.raises(cli.ConfigError, match="field 'steps'"):
        cli.validate_config(cli.ScenarioConfig(steps=most + 1))
    # a sweep is refused before its rotating-field table is built
    tracemalloc.start()
    try:
        for command in (["simulate"], ["sweep", "--axis", "theta", "--values", "1"]):
            assert run([*command, "--steps", "10000000000000"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert capsys.readouterr().err.count("field 'steps': at most 6710886 steps") == 2


def test_dim_ceiling_is_checked_before_any_allocation(capsys):
    assert cli.MAX_PURIFY_DIM >= 8  # every benchmark density matrix fits
    with pytest.raises(cli.ConfigError, match="flag '--dim'"):
        cli.run_purify_demo(cli.ScenarioConfig(), cli.MAX_PURIFY_DIM + 1)
    tracemalloc.start()
    try:
        assert run(["purify-demo", "--dim", "100000000"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert capsys.readouterr().err.startswith("config error: flag '--dim': at most")


def test_linspace_ceiling_is_checked_before_any_allocation(capsys):
    assert cli.MAX_SWEEP_POINTS >= 100  # criterion 1's sweep fits
    with pytest.raises(cli.ConfigError, match="flag '--linspace'"):
        cli._sweep_values(argparse.Namespace(
            values=None, linspace=["0", "1", str(cli.MAX_SWEEP_POINTS + 1)]))
    tracemalloc.start()
    try:
        assert run(["sweep", "--axis", "theta", "--linspace", "0", "1", "1000000000000000"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert capsys.readouterr().err.startswith("config error: flag '--linspace': at most")


@pytest.mark.parametrize("kind, name, position", [("config", "c.cfg", 9),
                                                  ("Hamiltonian", "h.txt", 0)])
def test_a_file_that_is_not_utf8_exits_2(tmp_path, monkeypatch, capsys, kind, name, position):
    # both text formats are read as UTF-8, whatever the locale, and a byte that
    # does not decode makes the file unreadable input, not a traceback
    monkeypatch.chdir(tmp_path)
    Path("h.txt").write_bytes(b"\xff" + f"dim 2 steps 1\n{GOOD_ROW}\n{GOOD_ROW}\n".encode())
    if kind == "config":
        Path("c.cfg").write_bytes(b"mu_b = 1\n\xff\xfe\n")
    else:
        Path("c.cfg").write_text(custom_config("h.txt"))
    assert run(["simulate", "--config", "c.cfg"]) == 2
    assert capsys.readouterr().err == (
        f"config error: cannot read {kind} file {name}: 'utf-8' codec can't decode byte 0xff "
        f"in position {position}: invalid start byte\n")


@pytest.mark.parametrize("kind", ["config", "Hamiltonian"])
def test_a_byte_order_mark_is_not_part_of_the_first_line(tmp_path, monkeypatch, capsys, kind):
    # an editor's UTF-8 byte-order mark is dropped, so the first key or the
    # header reads as it does without one, and the output is the same
    monkeypatch.chdir(tmp_path)
    model = f"dim 2 steps 1\n{GOOD_ROW}\n{GOOD_ROW}\n"
    config = custom_config("h.txt") + "steps = 40\n"
    for name, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        Path(f"{name}.txt").write_bytes((bom if kind == "Hamiltonian" else b"") + model.encode())
        text = config.replace("h.txt", f"{name}.txt")
        Path(f"{name}.cfg").write_bytes((bom if kind == "config" else b"") + text.encode())
    assert run(["simulate", "--config", "plain.cfg"]) == 0
    plain = capsys.readouterr().out
    assert run(["simulate", "--config", "bom.cfg"]) == 0
    assert capsys.readouterr().out == plain.replace("plain.txt", "bom.txt")


def test_sampled_file_that_loads_runs(tmp_path):
    # every row is Hermitian only to 1e-11, which passes the loader's test
    # because of the spike's norm at node 3; the 10-step grid never samples
    # the spike, so its interpolants must be Hermitian on their own scale
    rows = ["1 0 0.5 0 0.50000000001 0 -1 0"] * 1001
    rows[3] = "100 0 0 0 0 0 -100 0"
    hfile = tmp_path / "spike.txt"
    hfile.write_text("dim 2 steps 1000\n" + "\n".join(rows) + "\n")
    config = tmp_path / "spike.cfg"
    config.write_text(
        f"model = custom-sampled\nhamiltonian_file = {hfile}\nhorizon = explicit\n"
        "t_end = 1.0\nsteps = 10\nweights = 0.5,0.5\nstates = 0,1\n"
    )
    out = tmp_path / "spike.csv"
    assert run(["simulate", "--config", str(config), "--out", str(out)]) == 0
    assert ("gamma_total", "") in read_records(out)


def test_sweep_csv_schema_and_monotone_solid_angle(tmp_path):
    out = tmp_path / "sweep.csv"
    values = np.linspace(0.2, np.pi - 0.2, 32)
    code = run(
        ["sweep", "--axis", "theta", "--values", ",".join(f"{v}" for v in values),
         "--mu-b", "1", "--omega", "1", "--steps", "500", "--out", str(out)]
    )
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == ",".join(cli.SWEEP_COLUMNS)
    assert len(lines) == 33
    table = np.array([l.split(",") for l in lines[1:]], dtype=object)
    solid = table[:, list(cli.SWEEP_COLUMNS).index("solid_angle")].astype(float)
    theta_alpha_cos = np.cos(
        table[:, 2].astype(float) * 0.0
        + np.array([float(r[list(cli.SWEEP_COLUMNS).index("theta")]) for r in table])
        - table[:, list(cli.SWEEP_COLUMNS).index("alpha")].astype(float)
    )
    # solid angle = 2 pi (1 - cos(theta - alpha)) is monotone against the cosine
    order = np.argsort(theta_alpha_cos)
    assert np.all(np.diff(solid[order]) <= 1e-12)


def test_sweep_dynamical_phase_crosses_zero(tmp_path):
    # sweep omega through 2 mu_B + omega cos(theta) = 0 (omega = 4 at theta = 2pi/3)
    out = tmp_path / "omega.csv"
    code = run(
        ["sweep", "--axis", "omega", "--values", "3.0,4.0,5.0", "--mu-b", "1",
         "--theta", str(2 * np.pi / 3), "--steps", "3000", "--out", str(out)]
    )
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    idx = list(cli.SWEEP_COLUMNS).index("dynamical_plus")
    dyn = [float(l.split(",")[idx]) for l in lines[1:]]
    assert dyn[0] > 0 and abs(dyn[1]) < 1e-5 and dyn[2] < 0


def test_sweep_other_axis_keeps_explicit_weights(tmp_path):
    config = tmp_path / "weights.cfg"
    config.write_text("weights = 0.5,0.5\n")
    argv = ["sweep", "--axis", "theta", "--values", "0.5", "--steps", "100"]
    assert run([*argv, "--config", str(config)]) == 0


def test_sweep_empty_values_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    assert run(["sweep", "--axis", "theta", "--values", "", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[-1] == ",".join(cli.SWEEP_COLUMNS)


def test_sweep_unknown_axis_exit_2(capsys):
    assert run(["sweep", "--axis", "bogus", "--values", "1.0"]) == 2
    assert "axis" in capsys.readouterr().err


def test_sweep_validates_every_point_before_any_runs(monkeypatch, capsys):
    # omega = 0 leaves the one-period horizon undefined; the point list is
    # validated as it is built, so no point runs
    calls = []
    observables = cli.observables
    monkeypatch.setattr(cli, "observables", lambda sc: calls.append(sc) or observables(sc))
    assert run(["sweep", "--axis", "omega", "--values", "1,0", "--steps", "100"]) == 2
    assert "'omega'" in capsys.readouterr().err
    assert calls == []


def test_importing_the_cli_loads_no_process_pool():
    # a sweep runs its points in this process: neither the import nor a run
    # loads the standard library's process pool
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, phaselab.cli as cli; "
            "cli.main(['sweep', '--axis', 'theta', '--values', '0.5,1.5', '--steps', '50']); "
            "print('concurrent.futures' in sys.modules, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "False\n")


def test_observables_working_set_at_the_default_steps():
    # at 20000 steps and d = 2 the peak, about 210 bytes per step (4.18 MB),
    # is the pair scan's: the samples, the steps, the pairs and the scan's
    # scratch.  The frame's step energies are read off the pairs and their
    # rows freed before the member paths are formed; U is released once those
    # exist.  The bound is that peak plus 10%: reading the energies after the
    # member stack is formed read 4.33 MB, and holding U as matrices together
    # with the samples read 6.25 MB
    sc = cli.build_scenario(cli.validate_config(cli.ScenarioConfig()))
    sc.grid.nodes, sc.grid.midpoints  # cached on the grid, so they outlive the call
    tracemalloc.start()
    try:
        cli.observables(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.6e6


@pytest.mark.parametrize("command", ["simulate", "verify-gauge"])
def test_two_level_runs_never_form_the_propagator_stack(command, monkeypatch, capsys):
    # at d = 2 every observable, and the gauge campaign, reads the member paths
    # off the scan's Cayley-Klein pairs: U is never formed as matrices
    def never(*args):
        raise AssertionError("the (N+1, 2, 2) propagator stack was formed")

    monkeypatch.setattr(linalg, "_two_level_matrices", never)
    assert run([command, "--steps", "300", "--trials", "2"]) == 0
    assert capsys.readouterr().err == ""


def counted_field_rows(monkeypatch):
    """Count the rotating field's cos/sin evaluations, `spin_model.field_rows`."""
    calls = []
    field_rows = spin_model.field_rows

    def counted(omega, times, cos, sin):
        calls.append(len(times))
        field_rows(omega, times, cos, sin)

    monkeypatch.setattr(spin_model, "field_rows", counted)
    return calls


@pytest.mark.parametrize("axis, values", [
    ("theta", [0.3, 1.1, 2.9]), ("mu_b", [0.1, 10.0]), ("big_theta", [0.3, 2.9]),
    ("omega", [0.1, 10.0]),
])
def test_sweep_points_share_one_rotating_field_unless_omega_moves(axis, values, monkeypatch):
    # the rows of a sweep equal each point run alone, byte for byte; cos and
    # sin are taken once on the shared grid's midpoints, the only times a
    # scenario samples, and for an omega sweep once per point
    cfg = cli.validate_config(cli.ScenarioConfig(steps=300, mu_b=2.0))
    alone = [cli._sweep_rows([(index, value, cli.validate_config(dataclasses.replace(
        cfg, **{axis: value})))])[0] for index, value in enumerate(values)]
    calls = counted_field_rows(monkeypatch)
    rows, _ = cli.run_sweep(cfg, axis, values)
    assert repr(rows) == repr(alone)
    assert calls == [300] * (len(values) if axis == "omega" else 1)


def test_no_rotating_field_outlives_its_sweep(monkeypatch):
    # the table lives for one `run_sweep` call: no cache holds it afterwards
    fields, arrays = [], []

    class Recorded(spin_model.RotatingField):
        def __init__(self, omega, grid):
            super().__init__(omega, grid)
            fields.append(weakref.ref(self))
            arrays.append(weakref.ref(self.rows(omega, grid.midpoints)))

    monkeypatch.setattr(spin_model, "RotatingField", Recorded)
    cfg = cli.validate_config(cli.ScenarioConfig(steps=200))
    rows, _ = cli.run_sweep(cfg, "theta", [0.5, 1.5])
    assert len(rows) == 2 and len(fields) == 1 and len(arrays) == 1
    assert fields[0]() is None and all(ref() is None for ref in arrays)


SWEEP_PER_BRANCH = {"total": "phi_t", "dynamical": "phi_d", "geometric": "phi_g",
                    "residual": "transport_strong"}
SWEEP_MIXED = {"gamma_total": "gamma_total", "visibility": "visibility",
               "singh_phase": "singh_phase", "mixed_dynamical": "mixed_dynamical",
               "weak_residual": "transport_weak"}


@pytest.mark.parametrize("weights", [None, (0.7, 0.3)])
@pytest.mark.parametrize("states", [("-", "+"), ("+", "-")])
@pytest.mark.parametrize("axis, value", [("theta", 1.0), ("omega", 2.5)])
def test_sweep_rows_are_simulate_label_by_label(axis, value, states, weights):
    # a sweep point is the scenario simulate runs for the same config: the
    # weights stay with their states, and each branch's columns are read by
    # its label, so every value equals simulate's to the bit
    cfg = cli.validate_config(cli.ScenarioConfig(steps=100, states=states, weights=weights))
    rows, _ = cli.run_sweep(cfg, axis, [value])
    row = dict(zip(cli.SWEEP_COLUMNS, rows[0]))
    records, _ = cli.run_scenario(cli.validate_config(dataclasses.replace(cfg, **{axis: value})))
    records = {(name, label): v for name, label, v in records}
    for column, name in SWEEP_MIXED.items():
        assert row[column] == records[(name, "")], column
    for branch, label in (("plus", "+"), ("minus", "-")):
        for column, name in SWEEP_PER_BRANCH.items():
            assert row[f"{column}_{branch}"] == records[(name, label)], (column, branch)


@pytest.mark.parametrize("states", ["+,-", "-,+"])
@pytest.mark.parametrize("axis, values", [
    ("theta", "0.5,1.5,2.5"), ("mu_b", "0.5,2"), ("omega", "0.5,1.5,2.5"), ("big_theta", "0.3,2.9"),
])
def test_sweep_rows_equal_each_point_swept_alone(axis, values, states, tmp_path, capsys):
    # the points of a sweep share one rotating-field table per run of equal
    # omega; past the index column, its CSV rows are those of each point swept
    # alone, byte for byte, with the branches in either order
    config = tmp_path / "states.cfg"
    config.write_text(f"states = {states}\n")

    def rows(values):
        assert run(["sweep", "--config", str(config), "--axis", axis, "--values", values,
                    "--steps", "100"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line[0] != "#"]
        return [line.split(",", 1)[1] for line in lines[1:]]

    assert rows(values) == [row for value in values.split(",") for row in rows(value)]


def test_default_weights_follow_the_branch_labels(tmp_path, capsys):
    # without weights, '+' takes cos^2(big_theta / 2) and '-' the rest in
    # either order, so states = -,+ runs the default order's ensemble: the
    # per-branch values to the bit, the mixed ones to the rounding of their sums
    default = cli.validate_config(cli.ScenarioConfig(steps=2000))
    swapped = dataclasses.replace(default, states=("-", "+"))
    plus_first, minus_first = ({(name, label): v for name, label, v in cli.run_scenario(cfg)[0]}
                               for cfg in (default, swapped))
    assert plus_first.keys() == minus_first.keys()
    for (name, label), value in plus_first.items():
        if label:
            assert minus_first[(name, label)] == value, (name, label)
        else:
            assert abs(minus_first[(name, label)] - value) <= 1e-12, name
    plus_rows, minus_rows = (cli.run_sweep(dataclasses.replace(cfg, steps=500), "big_theta",
                                           [0.3, 1.1, 2.9])[0] for cfg in (default, swapped))
    for plus_row, minus_row in zip(plus_rows, minus_rows, strict=True):
        for column, plus, minus in zip(cli.SWEEP_COLUMNS, plus_row, minus_row):
            if column in SWEEP_MIXED:
                assert abs(minus - plus) <= 1e-12, column
            else:
                assert minus == plus, column
    # spin-report's closed-form trace sums the same two terms, so its bytes match
    config = tmp_path / "minus_first.cfg"
    config.write_text("states = -,+\n")

    def trace_lines(*argv):
        assert run(["spin-report", *argv]) == 0
        return [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("mixed_trace_")]

    assert len(trace_lines()) == 4
    assert trace_lines("--config", str(config)) == trace_lines()


def test_reused_parser_keeps_no_state(capsys):
    cli.build_parser.cache_clear()
    assert run(["purify-demo"]) == 0
    first = capsys.readouterr().out
    assert run(["purify-demo", "--dim", "3"]) == 0
    assert "schmidt_coefficient,2," in capsys.readouterr().out
    assert run(["purify-demo"]) == 0
    assert capsys.readouterr().out == first
    assert cli.build_parser.cache_info().misses == 1


def _parsed(parse, argv, capsys):
    """What a parse leaves: its namespace, or its exit status and output."""
    try:
        return parse(argv)
    except SystemExit as exc:
        return exc.code, *capsys.readouterr()


@pytest.mark.parametrize("argv, code", [
    (["simulate", "--steps", "300", "--format", "json"], None),
    (["sweep", "--axis", "theta", "--linspace", "0", "1", "3", "--seed", "4"], None),
    (["purify-demo", "--dim=3"], None),
    (["spin-report"], None),
    (["-h"], 0),
    (["simulate", "-h"], 0),
    ([], 2),
    (["bogus"], 2),
    (["simulate", "--bogus", "1"], 2),
    (["spin-report", "--bogus", "--steps", "x"], 2),
    (["simulate", "extra"], 2),
    (["simulate", "--steps", "x"], 2),
    (["sweep", "--values", "1"], 2),
    (["--steps", "5", "simulate"], 2),
], ids=["valid", "valid-sweep", "valid-equals", "valid-bare", "help", "command-help", "no-args",
        "unknown-command", "unknown-option", "unknown-option-then-bad-type", "extra-positional",
        "bad-type", "missing-axis", "option-before-command"])
def test_direct_command_parse_is_the_top_level_parse(argv, code, capsys):
    # one parser pass where the command line allows it, with the namespace,
    # or the output and exit status, of the full parse in every case
    direct = _parsed(cli._parse_args, argv, capsys)
    assert direct == _parsed(cli.build_parser().parse_args, argv, capsys)
    if code is None:
        assert isinstance(direct, argparse.Namespace) and direct.command == argv[0]
    else:
        assert direct[0] == code


def test_verify_gauge_deterministic_and_invariant(tmp_path):
    out1, out2 = tmp_path / "v1.csv", tmp_path / "v2.csv"
    args = ["verify-gauge", "--steps", "4000", "--trials", "5", "--seed", "7",
            "--mu-b", "1", "--omega", "1", "--theta", "1.0"]
    assert run([*args, "--out", str(out1)]) == 0
    assert run([*args, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    records = read_records(out1)
    assert float(records[("max_gamma_total_deviation", "")]) < 1e-5
    assert float(records[("max_dynamical_phase_prediction_mismatch", "")]) < 1e-5
    # the naive observables genuinely move under the equivalence class
    assert float(records[("max_naive_dynamical_phase_shift", "")]) > 1e-3


def test_verify_gauge_zero_scale_all_deltas_zero(tmp_path):
    # the base and the gauged gamma_T are read by the same form, so a zero gauge
    # moves nothing by rounding, at the default 20000 steps too
    for steps in ("2000", "20000"):
        out = tmp_path / f"zero_{steps}.csv"
        code = run(
            ["verify-gauge", "--steps", steps, "--trials", "1", "--gauge-scale", "0",
             "--out", str(out)]
        )
        assert code == 0
        records = read_records(out)
        for name in (
            "max_gamma_total_deviation",
            "max_visibility_deviation",
            "max_holonomy_deviation",
            "max_singh_deviation",
            "max_naive_total_phase_shift",
            "max_naive_dynamical_phase_shift",
        ):
            assert float(records[(name, "")]) == 0.0, (steps, name)


INVARIANTS = ("max_gamma_total_deviation", "max_visibility_deviation", "max_holonomy_deviation",
              "max_singh_deviation", "max_total_phase_prediction_mismatch",
              "max_dynamical_phase_prediction_mismatch")


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_verify_gauge_on_random_sampled_models(dim, tmp_path):
    # H(t) = A + cos(2 pi s) B + sin(2 pi s) C over a seeded random Hermitian
    # A, B, C: the campaign is model-agnostic, so the hidden-gauge invariants
    # hold to rounding at every dimension while the naive shifts move
    rng = np.random.default_rng(dim)
    A, B, C = (m + np.conj(m.T) for m in rng.normal(size=(3, dim, dim))
               + 1j * rng.normal(size=(3, dim, dim)))
    hfile = sampled_file(tmp_path, dim, 32, lambda s: A + np.cos(2 * np.pi * s) * B
                         + np.sin(2 * np.pi * s) * C)
    weights = [str(w / (dim * (dim + 1) / 2)) for w in range(dim, 0, -1)]
    config = tmp_path / "random.cfg"
    config.write_text(
        f"model = custom-sampled\nhamiltonian_file = {hfile}\nhorizon = explicit\n"
        f"t_end = 3\nsteps = 400\nweights = {','.join(weights)}\n"
        f"states = {','.join(map(str, range(dim)))}\n"
    )
    out = tmp_path / "verify.csv"
    assert run(["verify-gauge", "--config", str(config), "--trials", "5", "--out", str(out)]) == 0
    records = read_records(out)
    for name in INVARIANTS:
        assert float(records[(name, "")]) <= 1e-12, name
    for name in ("max_naive_total_phase_shift", "max_naive_dynamical_phase_shift"):
        assert float(records[(name, "")]) > 0.0, name


DIM3_FILE = "model = custom-sampled\nhamiltonian_file = {golden}/hamiltonian_dim3.txt\n" \
    "horizon = explicit\nt_end = 2.5\n"


def assert_campaign_reads_simulate(config, *argv):
    """verify-gauge runs on `config` with exit 0, its six invariants hold to
    1e-12, and its base values are simulate's, in every printed digit."""
    verify, simulate = config.parent / "verify.csv", config.parent / "simulate.csv"
    assert run(["verify-gauge", "--config", str(config), *argv, "--out", str(verify)]) == 0
    assert run(["simulate", "--config", str(config), "--out", str(simulate)]) == 0
    campaign, records = read_records(verify), read_records(simulate)
    for name in INVARIANTS:
        assert float(campaign[(name, "")]) <= 1e-12, name
    for name in ("gamma_total", "visibility", "singh_phase"):
        assert campaign[(name, "")] == records[(name, "")], name
    return campaign


@pytest.mark.parametrize("config_text", [
    "states = +\nweights = 1\n",
    DIM3_FILE + "weights = 0.5,0.5\nstates = 0,1\n",
    DIM3_FILE + "steps = 800\nweights = 0.6,0.4\nstates = 0,2\n",
], ids=["spin", "custom", "custom-0-2"])
def test_verify_gauge_runs_on_an_incomplete_ensemble(config_text, tmp_path):
    # one spin branch, and two of the golden dim-3 file's three basis states:
    # Tr[U(T) rho0] reads sum_k psi_k(T)<k| whether or not the kets span
    config = tmp_path / "incomplete.cfg"
    config.write_text(config_text.format(golden=Path(__file__).parent / "golden"))
    assert_campaign_reads_simulate(config, "--trials", "2")


def test_verify_gauge_through_an_orthogonality_crossing(tmp_path):
    # H = sigma_x for t_end = pi: psi_0 = U|0> is orthogonal to |0> at t = pi/2
    # (node 1000), where no phase-stripped frame exists, yet U(T) = -I and
    # every campaign observable is defined
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    hfile = sampled_file(tmp_path, 2, 2, lambda s: sigma_x)
    config = tmp_path / "crossing.cfg"
    config.write_text(f"model = custom-sampled\nhamiltonian_file = {hfile}\n"
                      f"horizon = explicit\nt_end = {np.pi!r}\nsteps = 2000\nstates = 0,1\n")
    campaign = assert_campaign_reads_simulate(config, "--trials", "3")
    assert float(campaign[("visibility", "")]) == pytest.approx(1.0, abs=1e-12)
    assert float(campaign[("max_naive_total_phase_shift", "")]) > 1e-3


@pytest.mark.parametrize("model", ["spin", "trace-carrying"])
def test_a_one_member_ensemble_of_another_ket_is_that_ket_of_two(model, tmp_path):
    # a lone member whose ket is not the first of the pair (spin '-', basis
    # state 1) scans from that ket's own frame: its per-label records are the
    # two-member run's for that label, to the golden tolerance, and the gauge
    # campaign reads simulate's values
    if model == "spin":
        both, alone, label = "states = +,-\n", "states = -\nweights = 1\n", "-"
    else:
        rng = np.random.default_rng(45)
        A, B = (m + np.conj(m.T) for m in rng.normal(size=(2, 2, 2))
                + 1j * rng.normal(size=(2, 2, 2)))
        hfile = sampled_file(tmp_path, 2, 16, lambda s: (0.3 + 1.7 * s) * np.eye(2) + A
                             + np.cos(2 * np.pi * s) * B)
        head = (f"model = custom-sampled\nhamiltonian_file = {hfile}\nhorizon = explicit\n"
                "t_end = 2\nsteps = 400\n")
        both, alone, label = (head + "weights = 0.7,0.3\nstates = 0,1\n",
                              head + "weights = 1\nstates = 1\n", "1")
    records = {}
    for name, text in (("both", both), ("alone", alone)):
        (tmp_path / f"{name}.cfg").write_text(text)
        out = tmp_path / f"{name}.csv"
        assert run(["simulate", "--config", str(tmp_path / f"{name}.cfg"), "--out", str(out)]) == 0
        records[name] = {key: value for key, value in read_records(out).items() if key[1] == label}
    assert len(records["alone"]) == 4  # phi_t, phi_d, phi_g, transport_strong
    assert_close(records["alone"], records["both"], f"{model} {label}")
    assert_campaign_reads_simulate(tmp_path / "alone.cfg", "--trials", "2")


def test_an_explicit_horizon_bounds_mu_b_by_the_horizon(tmp_path, monkeypatch):
    # simulate and verify-gauge run over t_end, not the period 2 pi / omega:
    # mu_b = 1e4 over t_end = 1 (mu_b dt = 0.5) runs at omega = 1e-304, whose
    # period 6.3e304 would overflow 2 |mu_b| T, and prints the omega = 0 records
    monkeypatch.chdir(tmp_path)
    Path("c.cfg").write_text(EXPLICIT_SPIN)
    args = ["--config", "c.cfg", "--mu-b", "1e4", "--omega"]
    assert run(["simulate", *args, "1e-304", "--out", "slow.csv"]) == 0
    assert run(["verify-gauge", *args, "1e-304", "--trials", "2", "--out", "verify.csv"]) == 0
    assert run(["simulate", *args, "0", "--out", "static.csv"]) == 0
    slow, static = (Path(name).read_text().splitlines() for name in ("slow.csv", "static.csv"))
    assert [(a, b) for a, b in zip(slow, static) if a != b] == [("# omega = 1e-304", "# omega = 0")]
    assert len(slow) == len(static)


def test_simulate_byte_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", *SPECIAL_ARGS, "--steps", "1200", "--seed", "3"]
    assert run([*args, "--out", str(out1)]) == 0
    assert run([*args, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_float_format_12_significant_digits(tmp_path):
    out = tmp_path / "fmt.csv"
    assert run(["spin-report", "--mu-b", "1", "--omega", "1", "--theta", "1.0",
                "--out", str(out)]) == 0
    records = read_records(out)
    value = records[("geometric_phase", "+")]
    mantissa = value.lstrip("-0.").replace(".", "").replace("-", "")
    assert len(mantissa) <= 12


def test_spin_report_values(tmp_path):
    out = tmp_path / "report.csv"
    assert run(["spin-report", *SPECIAL_ARGS, "--big-theta",
                str(np.pi / 2), "--out", str(out)]) == 0
    records = read_records(out)
    assert float(records[("alpha", "")]) == pytest.approx(np.pi / 2, abs=1e-10)
    assert float(records[("mixed_trace_re", "")]) == pytest.approx(
        0.9127241981021779, abs=1e-10
    )
    assert float(records[("mixed_trace_im", "")]) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("config", ["weights = 0.7,0.3\n", "states = -,+\n",
                                    "states = +\nweights = 1\n"],
                         ids=["weights", "minus-first", "one-branch"])
def test_spin_report_trace_is_the_configs_own_ensemble(config, tmp_path):
    # mixed_trace_arg and mixed_trace_abs are simulate's gamma_T and visibility
    # for the same ensemble, to criterion 2's 1e-5 at the default steps
    path = tmp_path / "ensemble.cfg"
    path.write_text(config)
    report, simulated = tmp_path / "report.csv", tmp_path / "simulate.csv"
    assert run(["spin-report", "--config", str(path), "--out", str(report)]) == 0
    assert run(["simulate", "--config", str(path), "--out", str(simulated)]) == 0
    report, simulated = read_records(report), read_records(simulated)
    gamma, visibility = (float(simulated[(name, "")]) for name in ("gamma_total", "visibility"))
    assert abs(wrap_angle(float(report[("mixed_trace_arg", "")]) - gamma)) <= 1e-5
    assert abs(float(report[("mixed_trace_abs", "")]) - visibility) <= 1e-5


@pytest.mark.parametrize("value, text", [
    (0.1 + 0.2, "0.3"),
    (-1.0 / 3.0e7, "-3.33333333333e-08"),
    (1e300, "1e+300"),
    (2.0, "2"),
    (np.float64(2.0) / 3.0, "0.666666666667"),
    (3, "3"),
    (True, "true"),
    (False, "false"),
    ("+", "+"),
    ("", ""),
    ("numpy PCG64 seed=0", "numpy PCG64 seed=0"),
], ids=["float", "float-exponent", "float-large", "float-integral", "np.float64", "int",
        "true", "false", "str", "str-empty", "str-spaces"])
def test_record_values_keep_their_text(value, text):
    # every type the commands emit, through both writers, in header and record
    table = cli.write_table(cli.RECORD_COLUMNS, [("x", "", value)], {"key": value},
                            cli.ScenarioConfig())
    assert table == f"# key = {text}\nobservable,label,value\nx,,{text}\n"
    payload = {"header": {"key": value},
               "records": [{"observable": "x", "label": "", "value": value}]}
    assert cli.write_table(cli.RECORD_COLUMNS, [("x", "", value)], {"key": value},
                           cli.ScenarioConfig(format="json")) == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [
    *GOLDEN_CASES.values(), ["spin-report"], ["verify-gauge"],
    *(["purify-demo", "--dim", str(dim)] for dim in (1, 3, 8)),
], ids=[*GOLDEN_CASES, "spin-report", "verify-gauge", "purify-demo-1", "purify-demo-3",
        "purify-demo-8"])
def test_commands_emit_only_the_writers_value_types(argv, fmt, monkeypatch, capsys):
    # the writers convert no value: every header and record value a command
    # emits is a Python scalar or None, or an np.float64, which is a float
    emitted, write_table = [], cli.write_table

    def recorded(columns, rows, header, cfg):
        emitted.extend(header.values())
        emitted.extend(value for row in rows for value in row)
        return write_table(columns, rows, header, cfg)

    monkeypatch.setattr(cli, "write_table", recorded)
    monkeypatch.chdir(GOLDEN)
    assert run([*argv, "--format", fmt]) == 0
    assert capsys.readouterr().out
    assert emitted
    kinds = {type(value) for value in emitted}
    assert kinds <= {float, int, bool, str, type(None), np.float64}, kinds


# text that the encoder escapes or the templates could misread, besides any text
JSON_TEXT = st.one_of(st.text(), st.text(st.sampled_from(
    ['a', '"', "\\", "%", "s", "(", ")", "{", "}", "\n", "\x7f", "\u00e9", "\u03c6", "\U0001f600"])))
JSON_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-310,
                     2.2250738585072014e-308, 1e308, 0.1 + 0.2]),
    st.integers(), st.booleans(), JSON_TEXT,
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.sampled_from([math.nan, -math.inf, -0.0]).map(np.float64),
)


@settings(max_examples=300)
@given(columns=st.one_of(st.just(cli.RECORD_COLUMNS), st.lists(JSON_TEXT, unique=True, max_size=4)),
       data=st.data(), header=st.dictionaries(JSON_TEXT, JSON_VALUES, max_size=4))
def test_json_table_is_the_stdlib_text(columns, data, header):
    # the row templates write json.dumps(payload, indent=2) to the byte, for
    # every value kind the writers accept, under any column and key names
    rows = data.draw(st.lists(st.lists(JSON_VALUES, min_size=len(columns), max_size=len(columns)),
                              min_size=1, max_size=3))
    table = [dict(zip(columns, row)) for row in rows]
    payload = {"header": header}
    if tuple(columns) == cli.RECORD_COLUMNS:
        payload["records"] = table
    else:
        payload.update(columns=list(columns), rows=table)
    assert cli.write_table(columns, rows, header, cli.ScenarioConfig(format="json")) == (
        json.dumps(payload, indent=2) + "\n")


@pytest.mark.parametrize("argv", [
    ["simulate", "--steps", "200"],
    ["simulate", "--config", "custom.cfg"],
    ["sweep", "--axis", "theta", "--values", "0.5,1.5", "--steps", "100"],
    ["sweep", "--axis", "theta", "--values", ""],
    ["verify-gauge", "--steps", "200", "--trials", "2"],
    ["spin-report"],
    ["purify-demo", "--dim", "8"],
], ids=["simulate", "simulate-custom", "sweep", "sweep-empty", "verify-gauge", "spin-report",
        "purify-demo"])
def test_json_output_is_its_stdlib_reserialization(argv, monkeypatch, capsys):
    monkeypatch.chdir(Path(__file__).parent / "golden")
    assert run([*argv, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def _purify_demo_reference(seed: int, dim: int) -> dict:
    """purify-demo's numbers from plain numpy: rho's spectrum and hidden-gauge
    basis from an eigh of its own, with purify's and hidden_gauge_transform's
    arithmetic, so the CLI's may not depend on which decomposition it reads."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = (A @ np.conj(A.T)) / np.trace(A @ np.conj(A.T)).real
    vals, vecs = np.linalg.eigh(rho)
    a = vecs[:, ::-1] * np.sqrt(np.clip(vals[::-1], 0.0, None))[None, :]
    a /= np.sqrt(np.sum(np.abs(a) ** 2))
    phases = rng.uniform(-np.pi, np.pi, size=dim)
    shifted = vecs @ np.diag(np.exp(1j * phases)) @ np.conj(vecs.T) @ a
    return {"round_trip_error": float(np.max(np.abs(a @ np.conj(a.T) - rho))),
            "hidden_gauge_shift": float(np.max(np.abs(shifted @ np.conj(shifted.T) - rho))),
            **{f"schmidt_coefficient{k}": float(c)
               for k, c in enumerate(np.sqrt(np.clip(vals[::-1], 0.0, None)))}}


@pytest.mark.parametrize("dim", range(1, 9))
def test_purify_demo_decomposes_each_density_matrix_once(dim, monkeypatch):
    calls = {"eigh": 0, "eigvalsh": 0}

    def counted(name):
        original = getattr(np.linalg, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return count

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    records, _ = cli.run_purify_demo(cli.ScenarioConfig(seed=dim), dim)
    # rho, the round-trip state and the gauge-shifted one, one eigh each
    assert calls == {"eigh": 3, "eigvalsh": 0}
    values = {name + label: value for name, label, value in records}
    reference = _purify_demo_reference(dim, dim)
    assert {key: values[key] for key in reference} == reference  # bit for bit


def test_purify_demo(tmp_path):
    out = tmp_path / "purify.json"
    assert run(["purify-demo", "--dim", "3", "--seed", "11", "--format", "json",
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    values = {r["observable"]: r["value"] for r in payload["records"] if r["label"] == ""}
    assert float(values["round_trip_error"]) < 1e-10
    assert float(values["hidden_gauge_shift"]) < 1e-12


def test_python_dash_m_phaselab_runs_cleanly(capsys):
    # `python -m phaselab` is the module entry point; with warnings as
    # errors it must print exactly what the in-process call prints
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "phaselab", "spin-report"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert run(["spin-report"]) == 0
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == capsys.readouterr().out
