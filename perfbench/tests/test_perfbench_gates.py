"""Each correctness gate must count a corrupted output as failed operations,
and pass the genuine output it was made from."""
import contextlib
import io
import math

import pytest

import phaselab
from phaselab import cli
from tracer import Tracer
import workloads as W

STEPS = "600"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def failed(wl, call, rc, out):
    return wl.check(call, rc, out).failed_ops


def replace_value(out, name, label, new):
    lines = out.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith(f"{name},{label},"):
            lines[i] = f"{name},{label},{new}\n"
            return "".join(lines)
    raise AssertionError(f"no record {name}[{label}]")


@pytest.fixture(scope="module")
def sweep():
    wl = W.Sweep(0, "full", None)
    call = wl._call(1.0, 1.3, [0.4, 1.1, 2.0])
    call.argv += ["--steps", STEPS]
    rc, out, _ = run_cli(call.argv)
    return wl, call, rc, out


def test_sweep_genuine_output_passes(sweep):
    wl, call, rc, out = sweep
    outcome = wl.check(call, rc, out)
    assert outcome.failed_ops == 0, outcome.errors
    assert 0.0 < outcome.trace_error < 1e-2 and 0.0 < outcome.phase_error < 1e-2


def test_sweep_corruptions_fail(sweep):
    wl, call, rc, out = sweep
    lines = out.splitlines(keepends=True)
    columns = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    rows = lines[columns + 1:]
    head = lines[: columns + 1]
    assert failed(wl, call, rc, "".join(head + rows[:-1])) == call.ops  # truncated table
    assert failed(wl, call, rc, "".join(head + [rows[1], rows[0], rows[2]])) == 2  # out of order
    renamed = lines[columns].replace("visibility", "vis")
    assert failed(wl, call, rc, "".join(lines[:columns] + [renamed] + rows)) == call.ops
    nan_row = rows[1].rsplit(",", 1)[0] + ",nan\n"
    assert failed(wl, call, rc, "".join(head + [rows[0], nan_row, rows[2]])) == 1
    fields = rows[2].rstrip("\n").split(",")
    fields[cli.SWEEP_COLUMNS.index("solid_angle")] = "0.5"
    assert failed(wl, call, rc, "".join(head + rows[:2] + [",".join(fields) + "\n"])) == 1
    assert failed(wl, call, 1, out) == call.ops


@pytest.fixture(scope="module")
def gauge():
    wl = W.Gauge(0, "full", None)
    call = wl._call(1.0, 1.0, math.pi / 3, 7, trials=2)
    rc, out, _ = run_cli(call.argv)
    return wl, call, rc, out


def test_gauge_genuine_output_passes(gauge):
    wl, call, rc, out = gauge
    outcome = wl.check(call, rc, out)
    assert outcome.failed_ops == 0, outcome.errors
    assert outcome.trace_error < 1e-6 and outcome.phase_error < 1e-6


def test_gauge_corruptions_fail(gauge):
    wl, call, rc, out = gauge
    assert failed(wl, call, rc, replace_value(out, "max_singh_deviation", "", "0.001")) == 2
    assert failed(wl, call, rc, replace_value(out, "max_total_phase_prediction_mismatch", "", "2e-7")) == 2
    assert failed(wl, call, rc, replace_value(out, "max_naive_dynamical_phase_shift", "", "0")) == 2
    assert failed(wl, call, rc, replace_value(out, "gamma_total", "", "inf")) == 2
    dropped = "".join(l for l in out.splitlines(keepends=True) if not l.startswith("max_holonomy"))
    assert failed(wl, call, rc, dropped) == 2
    assert failed(wl, call, rc, out.replace("# trials = 2", "# trials = 1")) == 2
    assert failed(wl, call, 3, out) == 2


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    wl = W.CliSmall(3, "full", tmp_path_factory.mktemp("inputs"))
    calls = [wl.call(i) for i in range(2 * len(W.KINDS))]  # every kind, CSV and JSON
    return wl, [(call, *run_cli(call.argv)[:2]) for call in calls]


def test_small_genuine_outputs_pass(small):
    wl, runs = small
    assert {call.expect["format"] for call, _, _ in runs} == {"csv", "json"}
    for call, rc, out in runs:
        outcome = wl.check(call, rc, out)
        assert outcome.failed_ops == 0, (call.argv, outcome.errors)


def first(runs, kind, fmt="csv"):
    return next((c, rc, out) for c, rc, out in runs if c.kind == kind and c.expect["format"] == fmt)


def test_small_corruptions_fail(small):
    wl, runs = small
    call, rc, out = first(runs, "simulate")
    assert failed(wl, call, rc, replace_value(out, "phi_g", "+", "nan")) == 1
    missing = "".join(l for l in out.splitlines(keepends=True) if not l.startswith("singh_phase"))
    assert failed(wl, call, rc, missing) == 1
    assert failed(wl, call, 2, out) == 1
    call, rc, out = first(runs, "simulate", "json")
    assert failed(wl, call, rc, out[: len(out) // 2]) == 1  # truncated JSON
    call, rc, out = first(runs, "spin-report")
    assert failed(wl, call, rc, replace_value(out, "solid_angle", "", "1.5")) == 1
    call, rc, out = first(runs, "purify-demo")
    assert failed(wl, call, rc, replace_value(out, "round_trip_error", "", "1e-3")) == 1
    assert failed(wl, call, rc, out.replace("# command = purify-demo", "# command = simulate")) == 1


def test_tracer_rebinds_copies_and_restores_them():
    original_main, original_propagate = cli.main, cli.propagate
    original_mat_exp = phaselab.evolution.mat_exp
    tracer = Tracer(phaselab)
    with tracer:
        assert cli.propagate is not original_propagate
        assert phaselab.evolution.mat_exp.__wrapped__ is original_mat_exp
        assert phaselab.linalg.mat_exp is phaselab.evolution.mat_exp
        traced = run_cli(["simulate", "--steps", "50"])
    assert (cli.main, cli.propagate, phaselab.evolution.mat_exp) == (
        original_main, original_propagate, original_mat_exp)
    assert traced == run_cli(["simulate", "--steps", "50"])
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "evolution.propagate", "linalg.mat_exp",
            "evolution.PropagatorPath.__post_init__"} <= names
    roots = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    assert math.isclose(sum(tracer.self_times()), roots, rel_tol=1e-9)
