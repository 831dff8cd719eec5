"""Seeded workloads for the phaselab benchmark and the gates that check every
operation's output against the rotating-field spin-1/2 oracle.

Three workloads, each a closed loop with one client (the next CLI call starts
when the previous one returns), each built so that a different layer does most
of the work:

* `sweep`     - `phaselab sweep --axis theta` at the default 20000 steps, four
                theta values per call.  Propagation-bound: linalg and evolution.
* `gauge`     - `phaselab verify-gauge` at the default 20000 steps and 50
                trials.  One propagation per call; the gauge campaign (gauge,
                mixed) does most of the work.
* `cli-small` - many short calls: `simulate` at a few hundred steps (CSV and
                JSON), `spin-report`, `purify-demo --dim 2..8` and `simulate`
                on a custom sampled Hamiltonian of dim 3 or 4.  Fixed per-call
                costs (argument parsing, scenario set-up, serialization) dominate.

Spin parameters are uniform over the documented box: mu_B and omega in
[0.1, 10], theta in (0, pi).  The accuracy metrics are maxima over a seeded
accuracy panel shared by all workloads: the four (mu_B, omega) corners of the
box, each with sixteen theta values stratified over (0, pi) (one uniform
draw per sixteenth).  The corners keep the known estimator defects in view,
and the stratification keeps the maximum from hinging on one lucky or unlucky
theta, so it is steady from seed to seed.  `sweep` runs the panel as its first
sixteen calls; `gauge` and `cli-small` run it after the timed loop with their own
command, at the same 20000 steps.  An operation is a sweep row, a gauge trial
or a cli-small call.

A run makes a fixed number of calls, `loop_calls(wl, seconds)`: the seconds
over the workload's nominal call time `call_s`.  It does not stop on the
clock, so the calls, operations, failures and per-layer counts of a run
repeat exactly for a given seed, whatever the host's speed.  `probe_loop`
says whether the host-speed probe (probe.py) runs between the loop's calls
and scales the loop's timings.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from phaselab import cli, spin_model
from phaselab.numerics import wrap_angle

BOX = (0.1, 10.0)  # mu_B and omega
CORNERS = tuple((mu, om) for mu in BOX for om in BOX)
STRATA = 4  # theta values per sweep call
PANEL_STRATA = 4 * STRATA  # theta values per corner in the accuracy panel

GAUGE_TOL = 1e-7  # acceptance criterion 4
PURIFY_TOL = 1e-10  # acceptance criterion 6
ORACLE_RTOL = 1e-9  # printed 12-digit values against the closed forms
ECHO_RTOL = 1e-11

# Sizes: "full" is what the benchmark measures, "tiny" is the smoke test's.
SIZES = {
    "full": {"steps": None, "trials": None},
    "tiny": {"steps": 400, "trials": 2},
}
DEFAULT_TRIALS = cli.ScenarioConfig().trials
BIG_THETA = cli.ScenarioConfig().big_theta
SMALL_STEPS = (200, 400)  # cli-small simulate steps, inclusive
PURIFY_DIMS = (2, 8)
CUSTOM_FILES = 4
CUSTOM_SAMPLES = 64
CUSTOM_T_END = 1.0
SCHEDULE_LEN = 1 << 16  # cli-small calls drawn up front; the loop wraps around

GAUGE_INVARIANTS = (
    "max_gamma_total_deviation",
    "max_visibility_deviation",
    "max_holonomy_deviation",
    "max_singh_deviation",
    "max_total_phase_prediction_mismatch",
    "max_dynamical_phase_prediction_mismatch",
)
GAUGE_NAIVE = ("max_naive_total_phase_shift", "max_naive_dynamical_phase_shift")
GAUGE_RECORDS = ("gamma_total", "visibility", "singh_phase") + GAUGE_INVARIANTS + GAUGE_NAIVE


def loop_calls(wl, seconds: float) -> int:
    """Calls in a timed loop of about `seconds` at the nominal call time."""
    return max(wl.min_calls, round(seconds / wl.call_s))


@dataclass
class Call:
    """One `phaselab.cli.main(argv)` invocation and what its output must show."""

    argv: list
    ops: int
    kind: str
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """Gate verdict for one call: failed operations (of `ops`) and accuracy."""

    ops: int
    failed_ops: int = 0
    errors: list = field(default_factory=list)
    trace_error: float = 0.0
    phase_error: float = 0.0

    def fail(self, message: str, n: int | None = None) -> "Outcome":
        """Count `n` operations (default: all of the call's) as failed."""
        self.failed_ops = min(self.ops, self.failed_ops + (self.ops if n is None else n))
        self.errors.append(message)
        return self


def digest(rc, out: str, err: str) -> str:
    return hashlib.sha256(f"{rc}\0{out}\0{err}".encode()).hexdigest()[:20]


def _fmt(x: float) -> str:
    return repr(float(x))


def _rng(seed: int, name: str, *extra) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "little")
    return np.random.default_rng([seed, tag, *extra])


def _box(rng, size=None):
    return rng.uniform(BOX[0], BOX[1], size=size)


def _open_theta(rng, size=None):
    """Uniform over the open interval (0, pi)."""
    return math.pi * (1.0 - rng.random(size=size)) * (1.0 - 1e-15)


def _strata(rng, k: int = STRATA) -> list:
    return [math.pi * (j + 1.0 - rng.random()) / k * (1.0 - 1e-15) for j in range(k)]


def panel_points(seed: int) -> list:
    """(mu_B, omega, [theta, ...]) per corner of the box."""
    return [(mu, om, _strata(_rng(seed, "panel", c), PANEL_STRATA))
            for c, (mu, om) in enumerate(CORNERS)]


def _params(mu, om, th) -> spin_model.SpinParams:
    return spin_model.SpinParams(float(mu), float(om), float(th), BIG_THETA)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


def trace_error(p, gamma_total: float, visibility: float) -> float:
    """|visibility e^{i gamma_total} - Tr[U(T) rho0]| against the closed form."""
    return abs(visibility * np.exp(1j * gamma_total) - spin_model.mixed_trace(p))


def singh_exact(p) -> float:
    """Closed-form Singh phase: each spin branch contributes its geometric phase."""
    c2 = math.cos(0.5 * p.big_theta) ** 2
    z = c2 * np.exp(1j * spin_model.geometric_phase(p, "+")) + (1.0 - c2) * np.exp(
        1j * spin_model.geometric_phase(p, "-")
    )
    return float(np.angle(z))


# -- output parsing -----------------------------------------------------------


class Malformed(ValueError):
    pass


def _scalar(text: str):
    if text in ("true", "false"):
        return text == "true"
    return float(text)


def parse_records(out: str, fmt: str):
    """(header dict, [(observable, label, value)]) from `write_records` output."""
    if fmt == "json":
        try:
            payload = json.loads(out)
            header = payload["header"]
            records = [(r["observable"], r["label"], r["value"]) for r in payload["records"]]
        except (ValueError, KeyError, TypeError) as exc:
            raise Malformed(f"bad JSON records: {exc}") from None
        return header, records
    header, records, lines = {}, [], out.splitlines()
    body = 0
    while body < len(lines) and lines[body].startswith("# "):
        key, _, value = lines[body][2:].partition(" = ")
        header[key] = value
        body += 1
    if body >= len(lines) or lines[body] != "observable,label,value":
        raise Malformed("missing 'observable,label,value' line")
    for line in lines[body + 1:]:
        parts = line.split(",")
        if len(parts) != 3:
            raise Malformed(f"bad record line {line!r}")
        try:
            records.append((parts[0], parts[1], _scalar(parts[2])))
        except ValueError:
            raise Malformed(f"bad value in {line!r}") from None
    return header, records


def _numbers(records, out: Outcome) -> dict:
    values = {}
    for name, label, value in records:
        if not isinstance(value, bool) and not (
            isinstance(value, (int, float)) and math.isfinite(value)
        ):
            out.fail(f"non-finite or non-numeric {name}[{label}] = {value!r}")
        values[(name, label)] = value
    return values


def _expect_keys(records, keys, out: Outcome) -> bool:
    got = [(name, label) for name, label, _ in records]
    if got != list(keys):
        out.fail(f"records {got} != expected {list(keys)}")
        return False
    return True


def _check_header(header, command: str, out: Outcome) -> None:
    if header.get("command") != command:
        out.fail(f"header command {header.get('command')!r} != {command!r}")


# -- sweep --------------------------------------------------------------------


class Sweep:
    name = "sweep"
    panel_calls = PANEL_STRATA // STRATA * len(CORNERS)  # the loop's first calls
    min_calls = panel_calls
    call_s = 1.2  # nominal seconds per four-point call at 20000 steps
    probe_loop = True

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed, self.size = seed, SIZES[size]

    def _call(self, mu, om, thetas) -> Call:
        argv = ["sweep", "--axis", "theta", "--values", ",".join(_fmt(t) for t in thetas),
                "--mu-b", _fmt(mu), "--omega", _fmt(om)]
        if self.size["steps"] is not None:
            argv += ["--steps", str(self.size["steps"])]
        return Call(argv, len(thetas), "sweep", {"mu": mu, "om": om, "thetas": thetas})

    def call(self, i: int) -> Call:
        if i < self.panel_calls:  # each corner's panel thetas, interleaved over calls
            per = PANEL_STRATA // STRATA
            mu, om, thetas = panel_points(self.seed)[i // per]
            return self._call(mu, om, thetas[i % per::per])
        rng = _rng(self.seed, self.name, i)
        return self._call(_box(rng), _box(rng), _strata(rng))

    def warmup(self) -> list:
        rng = _rng(self.seed, "sweep-warmup")
        return [self._call(_box(rng), _box(rng), [float(_open_theta(rng))])]

    def panel(self) -> list:
        return []

    def check(self, call: Call, rc, out: str) -> Outcome:
        return check_sweep(call, rc, out)


def check_sweep(call: Call, rc, out: str) -> Outcome:
    res, ops, exp = Outcome(call.ops), call.ops, call.expect
    if rc != 0:
        return res.fail(f"exit status {rc}")
    lines = out.splitlines()
    body = 0
    while body < len(lines) and lines[body].startswith("# "):
        body += 1
    if body >= len(lines) or lines[body] != ",".join(cli.SWEEP_COLUMNS):
        return res.fail("column line is not exactly SWEEP_COLUMNS")
    rows = list(csv.reader(lines[body + 1:]))
    if len(rows) != ops:
        res.fail(f"{len(rows)} rows for {ops} points")
    for j in range(ops):
        if j >= len(rows):
            break
        row = rows[j]
        if len(row) != len(cli.SWEEP_COLUMNS):
            res.fail(f"row {j} has {len(row)} fields", 1)
            continue
        try:
            r = dict(zip(cli.SWEEP_COLUMNS, (float(v) for v in row)))
        except ValueError:
            res.fail(f"row {j} has a non-numeric field", 1)
            continue
        bad = [k for k, v in r.items() if not math.isfinite(v)]
        theta = exp["thetas"][j]
        p = _params(exp["mu"], exp["om"], theta)
        if bad:
            res.fail(f"row {j} non-finite {bad}", 1)
        elif int(r["index"]) != j or not _close(r["axis_value"], theta, ECHO_RTOL):
            res.fail(f"row {j} out of order (index {r['index']}, theta {r['axis_value']})", 1)
        elif not (_close(r["mu_b"], p.mu_b, ECHO_RTOL) and _close(r["omega"], p.omega, ECHO_RTOL)):
            res.fail(f"row {j} echoes the wrong spin parameters", 1)
        elif not all(
            _close(r[col], value, ORACLE_RTOL)
            for col, value in (
                ("geometric_exact_plus", spin_model.geometric_phase(p, "+")),
                ("geometric_exact_minus", spin_model.geometric_phase(p, "-")),
                ("solid_angle", spin_model.solid_angle(p)),
                ("interference", spin_model.interference_value(p)),
            )
        ):
            res.fail(f"row {j} closed-form columns differ from spin_model", 1)
        else:
            res.trace_error = max(res.trace_error, trace_error(p, r["gamma_total"], r["visibility"]))
            for branch, col in (("+", "geometric_plus"), ("-", "geometric_minus")):
                res.phase_error = max(
                    res.phase_error,
                    abs(float(wrap_angle(r[col] - spin_model.geometric_phase(p, branch)))),
                )
    return res


# -- gauge --------------------------------------------------------------------


class Gauge:
    name = "gauge"
    panel_calls = 0
    min_calls = 1
    call_s = 4.2  # nominal seconds per 50-trial call at 20000 steps
    probe_loop = False  # scaling did not narrow these calls' spread; see probe.py

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed, self.size = seed, SIZES[size]

    def _call(self, mu, om, th, gauge_seed, trials=None) -> Call:
        argv = ["verify-gauge", "--mu-b", _fmt(mu), "--omega", _fmt(om), "--theta", _fmt(th),
                "--seed", str(gauge_seed)]
        if self.size["steps"] is not None:
            argv += ["--steps", str(self.size["steps"])]
        trials = trials or self.size["trials"]
        if trials is not None:
            argv += ["--trials", str(trials)]
        ops = trials or DEFAULT_TRIALS
        return Call(argv, ops, "verify-gauge", {"mu": mu, "om": om, "theta": th, "trials": ops})

    def call(self, i: int) -> Call:
        rng = _rng(self.seed, self.name, i)
        return self._call(_box(rng), _box(rng), float(_open_theta(rng)), int(rng.integers(2**31)))

    def warmup(self) -> list:
        rng = _rng(self.seed, "gauge-warmup")
        return [self._call(_box(rng), _box(rng), float(_open_theta(rng)), 0, trials=1)]

    def panel(self) -> list:
        """One-trial campaigns: the base observables do not depend on the trials."""
        rng = _rng(self.seed, "gauge-panel")
        return [self._call(mu, om, th, int(rng.integers(2**31)), trials=1)
                for mu, om, thetas in panel_points(self.seed) for th in thetas]

    def check(self, call: Call, rc, out: str) -> Outcome:
        return check_gauge(call, rc, out)


def check_gauge(call: Call, rc, out: str) -> Outcome:
    res, ops, exp = Outcome(call.ops), call.ops, call.expect
    if rc != 0:
        return res.fail(f"exit status {rc}")
    try:
        header, records = parse_records(out, "csv")
    except Malformed as exc:
        return res.fail(str(exc))
    _check_header(header, "verify-gauge", res)
    if header.get("trials") != str(exp["trials"]):
        res.fail(f"header trials {header.get('trials')!r} != {exp['trials']}")
    if not _expect_keys(records, [(name, "") for name in GAUGE_RECORDS], res):
        return res
    v = {name: value for (name, _), value in _numbers(records, res).items()}
    if res.errors:
        return res
    for name in GAUGE_INVARIANTS:
        if not v[name] <= GAUGE_TOL:
            res.fail(f"{name} = {v[name]:.3e} exceeds {GAUGE_TOL:g}")
    for name in GAUGE_NAIVE:  # the default gauge scale 0.1 > 0 must move these
        if not v[name] > 0.0:
            res.fail(f"{name} = {v[name]!r} is zero although gauge_scale > 0")
    p = _params(exp["mu"], exp["om"], exp["theta"])
    res.trace_error = trace_error(p, v["gamma_total"], v["visibility"])
    res.phase_error = abs(float(wrap_angle(v["singh_phase"] - singh_exact(p))))
    return res


# -- cli-small ----------------------------------------------------------------

# One cycle of the cli-small mix.  Three quarters are the fast, parser-bound
# commands, so the median call falls inside their latency cluster and the p90
# inside the simulate cluster, not in the gap between the two.
KINDS = ("simulate", "spin-report", "purify-demo", "spin-report",
         "simulate-custom", "purify-demo", "spin-report", "purify-demo")
SPIN_LABELS = ("+", "-")
CUSTOM_LABELS = ("0", "1")


def simulate_keys(labels) -> list:
    keys = [("gamma_total", ""), ("visibility", "")]
    for label in labels:
        keys += [("phi_g", label), ("phi_t", label), ("phi_d", label)]
    keys += [("singh_phase", ""), ("mixed_dynamical", ""), ("transport_weak", "")]
    keys += [("transport_strong", label) for label in labels]
    return keys + [("strong_transport_satisfied", "")]


def spin_report_values(p) -> list:
    trace = spin_model.mixed_trace(p)
    return [
        ("alpha", "", p.alpha),
        ("period", "", p.period),
        ("beta_rate", "", p.beta_rate),
        ("energy", "+", spin_model.energy_expectation(p, "+")),
        ("energy", "-", spin_model.energy_expectation(p, "-")),
        ("connection", "+", spin_model.connection_value(p, "+")),
        ("connection", "-", spin_model.connection_value(p, "-")),
        ("geometric_phase", "+", spin_model.geometric_phase(p, "+")),
        ("geometric_phase", "-", spin_model.geometric_phase(p, "-")),
        ("solid_angle", "", spin_model.solid_angle(p)),
        ("interference", "", spin_model.interference_value(p)),
        ("mixed_trace_re", "", trace.real),
        ("mixed_trace_im", "", trace.imag),
        ("mixed_trace_arg", "", float(np.angle(trace))),
        ("mixed_trace_abs", "", abs(trace)),
    ]


def _random_hermitian(rng, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / math.sqrt(2.0 * dim)


def write_custom_model(path: Path, rng, dim: int) -> None:
    """H(t) = A + B cos(2 pi t/T) + C sin(2 pi t/T) sampled in the CLI's text format."""
    a, b, c = (_random_hermitian(rng, dim) for _ in range(3))
    lines = [f"dim {dim} steps {CUSTOM_SAMPLES}"]
    for t in np.linspace(0.0, 1.0, CUSTOM_SAMPLES + 1):
        h = a + b * math.cos(2 * math.pi * t) + c * math.sin(2 * math.pi * t)
        lines.append(" ".join(f"{x:.17g}" for z in h.ravel() for x in (z.real, z.imag)))
    path.write_text("\n".join(lines) + "\n")


class CliSmall:
    name = "cli-small"
    panel_calls = 0
    min_calls = len(KINDS)
    call_s = 0.0045  # nominal mean seconds per call of the mix
    probe_loop = True

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed, self.size = seed, SIZES[size]
        rng = _rng(seed, self.name)
        workdir.mkdir(parents=True, exist_ok=True)
        self.configs = []
        for k in range(CUSTOM_FILES):
            dim = 3 + k % 2
            model = workdir / f"custom{k}.ham"
            write_custom_model(model, rng, dim)
            config = workdir / f"custom{k}.cfg"
            config.write_text(
                "model = custom-sampled\n"
                f"hamiltonian_file = {model.resolve()}\n"
                "horizon = explicit\n"
                f"t_end = {CUSTOM_T_END!r}\n"
                f"states = {','.join(CUSTOM_LABELS)}\n"
            )
            self.configs.append(str(config.resolve()))
        n = SCHEDULE_LEN
        self.mu, self.om, self.th = _box(rng, n), _box(rng, n), _open_theta(rng, n)
        self.steps = rng.integers(SMALL_STEPS[0], SMALL_STEPS[1] + 1, size=n)
        self.dims = rng.integers(PURIFY_DIMS[0], PURIFY_DIMS[1] + 1, size=n)
        self.seeds = rng.integers(2**31, size=n)
        self.files = rng.integers(CUSTOM_FILES, size=n)

    def _simulate(self, mu, om, th, steps, fmt) -> Call:
        argv = ["simulate", "--mu-b", _fmt(mu), "--omega", _fmt(om), "--theta", _fmt(th),
                "--format", fmt]
        if steps is not None:
            argv += ["--steps", str(steps)]
        return Call(argv, 1, "simulate", {"mu": mu, "om": om, "theta": th, "format": fmt,
                                          "labels": SPIN_LABELS})

    def call(self, i: int) -> Call:
        j = i % SCHEDULE_LEN
        kind = KINDS[i % len(KINDS)]
        fmt = ("csv", "json")[(i // len(KINDS)) % 2]
        mu, om, th = float(self.mu[j]), float(self.om[j]), float(self.th[j])
        if kind == "simulate":
            return self._simulate(mu, om, th, int(self.steps[j]), fmt)
        if kind == "spin-report":
            argv = ["spin-report", "--mu-b", _fmt(mu), "--omega", _fmt(om), "--theta", _fmt(th),
                    "--format", fmt]
            return Call(argv, 1, kind, {"mu": mu, "om": om, "theta": th, "format": fmt})
        if kind == "purify-demo":
            dim = int(self.dims[j])
            argv = ["purify-demo", "--dim", str(dim), "--seed", str(int(self.seeds[j])),
                    "--format", fmt]
            return Call(argv, 1, kind, {"dim": dim, "format": fmt})
        argv = ["simulate", "--config", self.configs[int(self.files[j])],
                "--steps", str(int(self.steps[j])), "--format", fmt]
        return Call(argv, 1, "simulate", {"format": fmt, "labels": CUSTOM_LABELS})

    def warmup(self) -> list:
        return [self.call(KINDS.index(kind)) for kind in dict.fromkeys(KINDS)]

    def panel(self) -> list:
        return [self._simulate(mu, om, th, self.size["steps"], "csv")
                for mu, om, thetas in panel_points(self.seed) for th in thetas]

    def check(self, call: Call, rc, out: str) -> Outcome:
        return check_small(call, rc, out)


def check_small(call: Call, rc, out: str) -> Outcome:
    res, exp = Outcome(1), call.expect
    if rc != 0:
        return res.fail(f"exit status {rc}")
    try:
        header, records = parse_records(out, exp["format"])
    except Malformed as exc:
        return res.fail(str(exc))
    _check_header(header, call.kind, res)
    if call.kind == "simulate":
        if not _expect_keys(records, simulate_keys(exp["labels"]), res):
            return res
        v = _numbers(records, res)
        if not res.errors and "mu" in exp:
            p = _params(exp["mu"], exp["om"], exp["theta"])
            res.trace_error = trace_error(p, v[("gamma_total", "")], v[("visibility", "")])
            res.phase_error = max(
                abs(float(wrap_angle(v[("phi_g", b)] - spin_model.geometric_phase(p, b))))
                for b in SPIN_LABELS
            )
    elif call.kind == "spin-report":
        expected = spin_report_values(_params(exp["mu"], exp["om"], exp["theta"]))
        if not _expect_keys(records, [(n, lab) for n, lab, _ in expected], res):
            return res
        for (name, label, got), (_, _, want) in zip(records, expected):
            if not (isinstance(got, float) and _close(got, want, ORACLE_RTOL)):
                res.fail(f"spin-report {name}[{label}] = {got!r}, closed form {want!r}")
    elif call.kind == "purify-demo":
        dim = exp["dim"]
        keys = [("dim", ""), ("round_trip_error", ""), ("hidden_gauge_shift", ""),
                ("reduced_trace_error", ""), ("min_eigenvalue", "")]
        keys += [("schmidt_coefficient", str(k)) for k in range(dim)]
        if not _expect_keys(records, keys, res):
            return res
        v = _numbers(records, res)
        if res.errors:
            return res
        if v[("dim", "")] != dim:
            res.fail(f"dim {v[('dim', '')]!r} != {dim}")
        for name in ("round_trip_error", "hidden_gauge_shift", "reduced_trace_error"):
            if not abs(v[(name, "")]) <= PURIFY_TOL:
                res.fail(f"{name} = {v[(name, '')]:.3e} exceeds {PURIFY_TOL:g}")
        if not v[("min_eigenvalue", "")] >= -PURIFY_TOL:
            res.fail(f"reduced state has eigenvalue {v[('min_eigenvalue', '')]:.3e}")
        schmidt = [v[("schmidt_coefficient", str(k))] for k in range(dim)]
        if any(a < b for a, b in zip(schmidt, schmidt[1:])) or min(schmidt) < 0.0:
            res.fail(f"Schmidt coefficients not sorted and nonnegative: {schmidt}")
        if abs(sum(c * c for c in schmidt) - 1.0) > PURIFY_TOL:
            res.fail("Schmidt coefficients are not normalized")
    return res


WORKLOADS = {cls.name: cls for cls in (Sweep, Gauge, CliSmall)}
