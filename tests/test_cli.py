"""End-to-end CLI behavior: commands, config grammar, exit codes, determinism."""
import concurrent.futures
import ctypes
import ctypes.util
import dataclasses
import functools
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from phaselab import cli, linalg, mixed, phases, spin_model
from phaselab.evolution import member_paths, propagate
from phaselab.numerics import wrap_angle


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
    # (k = 1) and a fresh stack of them all: the four box corners at the default
    # steps and the golden dim-3 custom-sampled scenario
    if case == "custom":
        monkeypatch.chdir(Path(__file__).parent / "golden")
        cfg = cli.parse_config_file("custom.cfg")
    else:
        cfg = cli.ScenarioConfig(mu_b=case[0], omega=case[1])
    sc = cli.build_scenario(cfg)
    calls, estimator = [], phases.step_overlaps

    def counted(states):
        calls.append(states.shape)
        return estimator(states)

    for module in (cli, phases, mixed):
        monkeypatch.setattr(module, "step_overlaps", counted, raising=False)
    obs = cli.observables(sc)
    assert calls == [(sc.grid.steps + 1, sc.H.dim, sc.ensemble.size)]  # one call, on the stack
    monkeypatch.undo()

    U = propagate(sc.H, sc.grid)
    stack = phases.PathStack(sc.grid, member_paths(U, sc.ensemble.states))
    samples = sc.H.sample(sc.grid.nodes)
    for k in range(sc.ensemble.size):
        alone = phases.PathStack(sc.grid, stack.states[..., k:k + 1])
        (total,), (overlap,) = alone.totals()
        for name, got, want in (("phi_t", obs.phi_t, total), ("overlap", obs.overlap, overlap),
                                ("phi_d", obs.phi_d, alone.dynamical(samples)[0])):
            assert abs(got[k] - want) <= 1e-13, (k, name)
        assert abs(obs.phi_g[k] - np.angle(alone.holonomies[0])) <= 1e-13
        assert abs(obs.transport_strong[k] - alone.residuals[0]) <= 1e-13
    assert abs(obs.singh_phase - mixed.singh_phase(sc.ensemble.weights, stack)) <= 1e-13
    weak, strong, gamma_d = mixed.transport_conditions(sc.ensemble.weights, stack)
    assert abs(obs.transport_weak - weak) <= 1e-13
    assert np.max(np.abs(obs.transport_strong - strong)) <= 1e-13
    assert abs(obs.mixed_dynamical - gamma_d) <= 1e-13
    gamma_total, visibility = mixed.mixed_total_phase(mixed.density_from_ensemble(sc.ensemble),
                                                      U.matrices[-1])
    assert abs(obs.gamma_total - gamma_total) <= 1e-13
    assert abs(obs.visibility - visibility) <= 1e-13


@pytest.mark.parametrize("case", ["spin", "spin-incomplete", "custom", "custom-incomplete"])
def test_mixed_trace_is_the_partial_map_of_the_member_paths(case, monkeypatch):
    # gamma_T and the visibility come from Tr[U(T) rho0] = sum_k w_k <k|psi_k(T)>,
    # the trace of sum_k psi_k(T)<k| with rho0, for complete and incomplete
    # orthonormal ensembles alike: they match the trace with U(T) itself
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
    rho0 = mixed.density_from_ensemble(sc.ensemble)
    gamma_total, visibility = mixed.mixed_total_phase(rho0, propagate(sc.H, sc.grid).matrices[-1])
    assert abs(obs.gamma_total - gamma_total) <= 1e-14
    assert abs(obs.visibility - visibility) <= 1e-14


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
    # the one-call conversion and the per-row loop that names a bad line
    # agree with float() token by token, and the first bad line is named
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
    (["simulate", "--out", "file.txt/x.csv"], None,
     "field 'out': cannot write: [Errno 20] Not a directory: 'file.txt/x.csv'"),
    (["simulate"], "horizon = explicit\nt_end = 1e308\n",
     "field 't_end': 1e+308 overflows the grid's midpoints"),
], ids=["config-unreadable", "no-equals", "unconvertible", "model", "t_end-missing",
        "hamiltonian_file-missing", "custom-one-period", "weight-count", "hamiltonian-unreadable",
        "hamiltonian-empty", "header-not-integer", "non-finite", "spin-selector",
        "custom-selector", "custom-index", "sweep-custom", "out-under-a-file", "t_end-overflow"])
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
    if config is not None:
        Path("c.cfg").write_text(config)
        argv = [*argv, "--config", "c.cfg"]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


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


def test_sweep_workers_match_serial(tmp_path):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    args = ["sweep", "--axis", "theta", "--values", "0.5,1.0,1.5,2.0",
            "--steps", "300", "--mu-b", "2", "--omega", "1.3"]
    assert run([*args, "--out", str(serial)]) == 0
    assert run([*args, "--workers", "3", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


class SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("values, cores, expected", [("1,2", 8, 2), ("1,2,3", 2, 2), ("1,2", 1, None)])
def test_sweep_pool_bounded_by_rows_and_cores(values, cores, expected, monkeypatch, capsys):
    args = ["sweep", "--axis", "theta", "--values", values, "--steps", "50"]
    assert run(args) == 0
    serial = capsys.readouterr().out
    sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", functools.partial(SerialPool, sizes))
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
    assert run([*args, "--workers", "10000"]) == 0
    assert capsys.readouterr().out == serial
    assert sizes == ([expected] if expected else [])


@pytest.mark.parametrize("workers", [[], ["--workers", "2"]])
def test_sweep_validates_every_point_before_any_runs(workers, monkeypatch, capsys):
    # omega = 0 leaves the one-period horizon undefined; the point list is
    # validated as it is built, so no point runs and no pool is started
    calls, sizes = [], []
    observables = cli.observables
    monkeypatch.setattr(cli, "observables", lambda sc: calls.append(sc) or observables(sc))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", functools.partial(SerialPool, sizes))
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    args = ["sweep", "--axis", "omega", "--values", "1,0", "--steps", "100", *workers]
    assert run(args) == 2
    assert "'omega'" in capsys.readouterr().err
    assert calls == [] and sizes == []


def test_importing_the_cli_loads_no_process_pool():
    # the pool's module is imported inside `run_sweep`, and only for --workers > 1
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, phaselab.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_observables_working_set_at_the_default_steps():
    # U is released once the member paths are formed, and the midpoint samples
    # once the step factors exist: at 20000 steps and d = 2 the peak is about
    # 200 bytes per step (4.0 MB), where holding both read 6.25 MB
    sc = cli.build_scenario(cli.validate_config(cli.ScenarioConfig()))
    sc.grid.nodes, sc.grid.midpoints  # cached on the grid, so they outlive the call
    tracemalloc.start()
    try:
        cli.observables(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.0e6


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
    # sin are taken once on the shared grid's nodes and once on its midpoints,
    # and for an omega sweep twice per point
    cfg = cli.validate_config(cli.ScenarioConfig(steps=300, mu_b=2.0))
    alone = [cli._sweep_point((index, value, cli.validate_config(dataclasses.replace(
        cfg, states=spin_model.BRANCHES, **{axis: value})))) for index, value in enumerate(values)]
    calls = counted_field_rows(monkeypatch)
    rows, _ = cli.run_sweep(cfg, axis, values)
    assert repr(rows) == repr(alone)
    assert calls == ([300, 301] * len(values) if axis == "omega" else [301, 300])


def test_no_rotating_field_outlives_its_sweep(monkeypatch):
    # the table lives for one `run_sweep` call: no cache holds it afterwards
    fields, arrays = [], []

    class Recorded(spin_model.RotatingField):
        def __init__(self, omega, grid):
            super().__init__(omega, grid)
            fields.append(weakref.ref(self))
            arrays.extend(weakref.ref(self.rows(omega, times)) for times in (grid.nodes, grid.midpoints))

    monkeypatch.setattr(spin_model, "RotatingField", Recorded)
    cfg = cli.validate_config(cli.ScenarioConfig(steps=200))
    rows, _ = cli.run_sweep(cfg, "theta", [0.5, 1.5])
    assert len(rows) == 2 and len(fields) == 1 and len(arrays) == 2
    assert fields[0]() is None and all(ref() is None for ref in arrays)


def test_reused_parser_keeps_no_state(capsys):
    cli.build_parser.cache_clear()
    assert run(["purify-demo"]) == 0
    first = capsys.readouterr().out
    assert run(["purify-demo", "--dim", "3"]) == 0
    assert "schmidt_coefficient,2," in capsys.readouterr().out
    assert run(["purify-demo"]) == 0
    assert capsys.readouterr().out == first
    assert cli.build_parser.cache_info().misses == 1


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


@pytest.mark.parametrize("config_text, dim", [
    ("states = +\nweights = 1\n", 2),
    ("model = custom-sampled\nhamiltonian_file = {golden}/hamiltonian_dim3.txt\n"
     "horizon = explicit\nt_end = 2.5\nweights = 0.5,0.5\nstates = 0,1\n", 3),
], ids=["spin", "custom"])
def test_verify_gauge_incomplete_basis_exits_2(config_text, dim, tmp_path, capsys):
    config = tmp_path / "incomplete.cfg"
    config.write_text(config_text.format(golden=Path(__file__).parent / "golden"))
    assert run(["verify-gauge", "--config", str(config), "--trials", "1"]) == 2
    assert capsys.readouterr() == ("", "config error: field 'states': verify-gauge needs a "
                                   "complete state basis, one state per dimension: got "
                                   f"{dim - 1} for dimension {dim}\n")


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
