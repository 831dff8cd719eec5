"""Command-line surface: scenario runs, parameter sweeps, gauge-invariance
verification campaigns, analytic spin reports and a purification demo.

Scenarios are described by a flat key = value config file or entirely by
flags; flags override file values.  Each field is declared once, in
`ScenarioConfig`; the README's "Config file grammar" table lists them.  All
randomness comes from a single seeded generator named in the output header,
and identical config plus seed produces byte-identical output files.

Sampled-Hamiltonian file: a header line `dim <d> steps <n>`, then n+1 rows of
2*d*d floats (real/imag pairs, row-major); samples are uniform over the
scenario horizon, made exactly Hermitian once accepted, and interpolated
linearly in between.
"""
from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import errno
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import spin_model
from .evolution import (
    HERMITICITY_TOL,
    HamiltonianTrajectory,
    PropagatorPath,
    TimeGrid,
    member_paths,
    propagate,
)
from .exceptions import ContractError, PhaseLabError, UndefinedPhaseError
from .linalg import require_hermitian
from .mixed import (
    WEIGHT_SUM_TOL,
    DensityMatrix,
    Ensemble,
    density_from_ensemble,
    gauge_campaign,
    hidden_gauge_transform,
    mixed_total_phase,
    purify,
    reduce as reduce_purified,
    singh_phase,
    transport_conditions,
)
from .phases import PathStack

DEFAULT_STEPS = 20000
MIN_STEPS = 10

SWEEP_AXES = ("mu_b", "omega", "theta", "big_theta")

SWEEP_COLUMNS = (
    "index", "axis_value", "mu_b", "omega", "theta", "big_theta", "alpha", "period",
    # per branch, in the order of `_sweep_point`'s row
    *(f"{name}_{branch}" for branch in ("plus", "minus")
      for name in ("total", "dynamical", "geometric", "overlap", "residual")),
    "gamma_total", "visibility", "singh_phase", "mixed_dynamical", "weak_residual",
    "geometric_exact_plus", "geometric_exact_minus", "solid_angle", "interference",
)

RECORD_COLUMNS = ("observable", "label", "value")

# glibc's mallopt parameters (malloc.h) and the value `_retain_heap` gives both
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_HEAP_RETAIN_BYTES = 32 << 20


class ConfigError(PhaseLabError, ValueError):
    """Scenario configuration is malformed; carries a location hint."""


def _option(default, convert, allows=None, flag=None):
    """A config field: its file converter, what it allows (a tuple of choices
    or a least value) and its flag help (None: settable in a config file only)."""
    return field(default=default, metadata={"convert": convert, "allows": allows, "flag": flag})


@dataclass
class ScenarioConfig:
    """Every config field, declared once: file parsing, validation, flag
    registration and the flag merge all iterate `fields(ScenarioConfig)`."""

    model: str = _option("spin", str, ("spin", "custom-sampled"))
    steps: int = _option(DEFAULT_STEPS, int, MIN_STEPS, f"grid steps (default {DEFAULT_STEPS})")
    mu_b: float = _option(1.0, float, flag="field coupling mu_B")
    omega: float = _option(1.0, float, flag="rotation frequency")
    theta: float = _option(np.pi / 3, float, flag="cone opening angle (rad)")
    big_theta: float = _option(np.pi / 4, float, flag="ensemble mixing angle (rad)")
    horizon: str = _option("one-period", str, ("one-period", "explicit"))
    t_end: float | None = _option(None, float)
    weights: tuple | None = _option(None, lambda value: tuple(map(float, value.split(","))))
    states: tuple = _option(("+", "-"), lambda value: tuple(v.strip() for v in value.split(",")))
    hamiltonian_file: str | None = _option(None, str)
    seed: int = _option(0, int, 0, "RNG seed (default 0)")
    trials: int = _option(50, int, 1, "verification trials (default 50)")
    gauge_scale: float = _option(
        0.1, float, 0.0, "harmonic amplitude of random gauges (0 disables them)"
    )
    format: str = _option("csv", str, ("csv", "json"), "output format")
    out: str | None = _option(None, str, flag="output path (default stdout)")
    workers: int = _option(1, int, 1, "bounded worker count for sweeps")

    def resolved_weights(self) -> np.ndarray:
        if self.weights is not None:
            return np.asarray(self.weights, dtype=float)
        c = np.cos(0.5 * self.big_theta) ** 2
        return np.array([c, 1.0 - c])


_FIELDS = {f.name: f for f in fields(ScenarioConfig)}
_FLAG_FIELDS = [f for f in _FIELDS.values() if f.metadata["flag"] is not None]


def parse_config_file(path: str) -> ScenarioConfig:
    cfg = ScenarioConfig()
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    set_on = {}  # field name -> line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = {"gauge_seed": "seed"}.get(key, key)  # accepted alias for the RNG seed
        if key not in _FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown field {key!r}")
        if key in set_on:
            raise ConfigError(f"{path}:{lineno}: field {key!r} already set on line {set_on[key]}")
        set_on[key] = lineno
        try:
            parsed = _FIELDS[key].metadata["convert"](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: field {key!r}: {exc}") from exc
        setattr(cfg, key, parsed)
    return cfg


def validate_config(cfg: ScenarioConfig) -> ScenarioConfig:
    for name, f in _FIELDS.items():
        value, allows = getattr(cfg, name), f.metadata["allows"]
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"field {name!r}: must be finite, got {value}")
        if isinstance(allows, tuple):
            if value not in allows:
                raise ConfigError(f"field {name!r}: unknown {name} {value!r}")
        elif allows is not None and value < allows:
            need = "must be nonnegative" if allows == 0 else f"need at least {allows}"
            raise ConfigError(f"field {name!r}: {need}, got {value}")
    if cfg.horizon == "explicit" and cfg.t_end is None:
        raise ConfigError("field 't_end': required for an explicit horizon")
    if cfg.t_end is not None and cfg.t_end <= 0.0:
        raise ConfigError(f"field 't_end': must be positive, got {cfg.t_end}")
    if cfg.model == "custom-sampled":
        if cfg.hamiltonian_file is None:
            raise ConfigError("field 'hamiltonian_file': required for custom-sampled model")
        if cfg.horizon != "explicit":
            raise ConfigError("field 'horizon': custom-sampled model needs an explicit t_end")
    if cfg.t_end is not None and cfg.horizon != "explicit":
        raise ConfigError("field 't_end': a one-period horizon ignores it; set horizon = explicit")
    if cfg.model == "spin" and cfg.horizon == "one-period" and cfg.omega <= 0.0:
        raise ConfigError(
            f"field 'omega': a one-period horizon needs omega > 0, got {cfg.omega}"
        )
    if not math.isfinite(2.0 * _horizon(cfg)):  # the grid's midpoints add two nodes
        if cfg.horizon == "one-period":
            raise ConfigError(f"field 'omega': the one-period horizon 2 pi / {cfg.omega} overflows")
        raise ConfigError(f"field 't_end': {cfg.t_end} overflows the grid's midpoints")
    weights = cfg.resolved_weights()
    if len(weights) != len(cfg.states):
        raise ConfigError(
            f"field 'weights': {len(weights)} weights for {len(cfg.states)} states"
        )
    if not (np.min(weights) >= 0.0 and abs(float(weights.sum()) - 1.0) <= WEIGHT_SUM_TOL):
        raise ConfigError(
            f"field 'weights': must be nonnegative and sum to 1, got sum {weights.sum():.12g}"
        )
    return cfg


def _sample_row(path: str, j: int, line: str, width: int) -> list:
    """The numbers of line j of a sampled-matrix file, or the exit-2 error
    that names the line."""
    try:
        values = [float(v) for v in line.split()]
    except ValueError as exc:
        raise ConfigError(f"{path}:{j}: {exc}") from exc
    if len(values) != width:
        raise ConfigError(f"{path}:{j}: expected {width} numbers, found {len(values)}")
    return values


def load_sampled_hamiltonian(path: str, t_end: float) -> HamiltonianTrajectory:
    """Parse the sampled-matrix text format and wrap it as a linear interpolant."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read Hamiltonian file {path}: {exc}") from exc
    lines = [(lineno, stripped) for lineno, raw in enumerate(text.splitlines(), start=1)
             if (stripped := raw.split("#", 1)[0].strip())]
    if not lines:
        raise ConfigError(f"{path}: empty Hamiltonian file")
    (at, first), *lines = lines
    header = first.split()
    if len(header) != 4 or header[0] != "dim" or header[2] != "steps":
        raise ConfigError(f"{path}:{at}: header must read 'dim <d> steps <n>'")
    try:
        dim, steps = int(header[1]), int(header[3])
    except ValueError as exc:
        raise ConfigError(f"{path}:{at}: {exc}") from exc
    if dim < 1 or steps < 1:
        raise ConfigError(f"{path}:{at}: dim and steps must be positive")
    if len(lines) != steps + 1:
        raise ConfigError(f"{path}: expected {steps + 1} sample rows, found {len(lines)}")
    width = 2 * dim * dim
    try:
        # one call converts every token, and its tokenizer rejects rows of
        # unequal width; the header's width is compared only afterwards, so
        # that a bad dim allocates nothing
        rows = np.loadtxt([line for _, line in lines], dtype=float, ndmin=2)
        parsed = rows.shape[1] == width
    except ValueError:
        parsed = False
    if not parsed:  # row by row, to name the first bad line
        rows = np.array([_sample_row(path, j, line, width) for j, line in lines])
    samples = (rows[:, 0::2] + 1j * rows[:, 1::2]).reshape(steps + 1, dim, dim)
    if not (np.all(np.isfinite(samples.real)) and np.all(np.isfinite(samples.imag))):
        raise ConfigError(f"{path}: non-finite entries")
    # the propagator's own criterion (HamiltonianTrajectory.sample)
    try:
        require_hermitian(samples, HERMITICITY_TOL, "Hamiltonian samples")
    except ContractError as exc:
        raise ConfigError(f"field 'hamiltonian_file': {path}: {exc}") from exc
    # exactly Hermitian from here on, so every interpolant passes that test
    # too; a no-op on exactly Hermitian files
    samples = 0.5 * (samples + np.conj(np.swapaxes(samples, -2, -1)))

    def batch(times: np.ndarray) -> np.ndarray:
        t = np.clip(np.asarray(times, dtype=float), 0.0, t_end)
        pos = t / t_end * steps
        lo = np.minimum(pos.astype(int), steps - 1)
        frac = (pos - lo)[..., None, None]
        # (1 - frac) samples[lo] + frac samples[lo + 1], in the two gathers
        interpolant, upper = samples[lo], samples[lo + 1]
        interpolant *= 1.0 - frac
        upper *= frac
        interpolant += upper
        return interpolant

    return HamiltonianTrajectory(dim=dim, evaluate=batch)


@dataclass
class Scenario:
    """Everything a run needs: Hamiltonian, grid and ensemble, whose states are
    `cfg.states` in order."""

    cfg: ScenarioConfig
    H: HamiltonianTrajectory
    grid: TimeGrid
    ensemble: Ensemble
    params: spin_model.SpinParams | None


def _horizon(cfg: ScenarioConfig) -> float:
    """t_end: one field period, or the config's explicit t_end."""
    if cfg.horizon == "one-period":
        return spin_model.SpinParams(cfg.mu_b, cfg.omega, cfg.theta).period
    return float(cfg.t_end)


def build_scenario(cfg: ScenarioConfig,
                   field: spin_model.RotatingField | None = None) -> Scenario:
    """The scenario of a config that `validate_config` has accepted; callers
    validate where a config enters (`main`, and `run_sweep` for every point).
    State selectors are checked here, against the model's dimension.  A spin
    scenario given `field` runs on its grid, and samples its table."""
    if cfg.model == "spin":
        params = spin_model.SpinParams(cfg.mu_b, cfg.omega, cfg.theta, cfg.big_theta)
        H = spin_model.hamiltonian(params, field)
        basis = np.array(spin_model.w_basis(params, 0.0))  # rows: branches '+', '-'
        index = []
        for sel in cfg.states:
            if sel not in spin_model.BRANCHES:
                raise ConfigError(f"field 'states': spin selectors are '+'/'-', got {sel!r}")
            index.append(spin_model.BRANCHES.index(sel))
    else:
        params = None
        H = load_sampled_hamiltonian(cfg.hamiltonian_file, float(cfg.t_end))
        basis = np.eye(H.dim, dtype=complex)
        index = []
        for sel in cfg.states:
            try:
                idx = int(sel)
            except ValueError:
                raise ConfigError(
                    f"field 'states': custom selectors are basis indices, got {sel!r}"
                ) from None
            if not 0 <= idx < H.dim:
                raise ConfigError(f"field 'states': index {idx} outside 0..{H.dim - 1}")
            index.append(idx)
    if len(set(index)) != len(index):
        raise ConfigError(f"field 'states': selectors must differ, got {','.join(cfg.states)}")
    ensemble = Ensemble(weights=cfg.resolved_weights(), states=basis[index])
    grid = field.grid if field is not None else TimeGrid(0.0, _horizon(cfg), cfg.steps)
    return Scenario(cfg=cfg, H=H, grid=grid, ensemble=ensemble, params=params)


def _json_value(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def _fmt(value) -> str:
    value = _json_value(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_table(columns, rows, header: dict, cfg: ScenarioConfig) -> str:
    """Serialize rows under `columns` as CSV or JSON text.  In JSON, records
    (the RECORD_COLUMNS table) go under "records"; any other table goes under
    "columns" and "rows"."""
    if cfg.format == "json":
        table = [{col: _json_value(val) for col, val in zip(columns, row)} for row in rows]
        payload = {"header": {key: _json_value(val) for key, val in header.items()}}
        if tuple(columns) == RECORD_COLUMNS:
            payload["records"] = table
        else:
            payload.update(columns=list(columns), rows=table)
        return json.dumps(payload, indent=2) + "\n"
    lines = [f"# {key} = {_fmt(val)}" for key, val in header.items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _cannot_write(exc: OSError) -> ConfigError:
    return ConfigError(f"field 'out': cannot write: {exc}")


def _require_writable(out: str | None) -> None:
    """Raise ConfigError unless `out` (None: stdout) can be written, before any
    work is done: its directory must exist and be writable, and `out` must not
    be a directory.  The message carries the error the write itself would
    raise; nothing is created.  `_emit` still reports a write that fails later.
    """
    if out is None:
        return
    path = Path(out)
    if path.is_dir():
        code = errno.EISDIR
    elif not path.parent.exists():
        code = errno.ENOENT
    elif not path.parent.is_dir():
        code = errno.ENOTDIR
    elif not os.access(path.parent, os.W_OK | os.X_OK) or (
            path.exists() and not os.access(path, os.W_OK)):
        code = errno.EACCES
    else:
        return
    raise _cannot_write(OSError(code, os.strerror(code), out))


def _emit(text: str, cfg: ScenarioConfig) -> None:
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        try:
            Path(cfg.out).write_text(text)
        except OSError as exc:
            raise _cannot_write(exc) from exc


def scenario_header(cfg: ScenarioConfig, command: str) -> dict:
    header = {
        "command": command,
        "model": cfg.model,
        "steps": cfg.steps,
        "rng": f"numpy PCG64 seed={cfg.seed}",
    }
    if cfg.model == "spin":
        header.update(
            mu_b=cfg.mu_b, omega=cfg.omega, theta=cfg.theta, big_theta=cfg.big_theta
        )
    else:
        header.update(hamiltonian_file=cfg.hamiltonian_file, t_end=cfg.t_end)
    return header


@dataclass(frozen=True)
class Observables:
    """Everything `simulate` reports and a `sweep` row carries, for one scenario:
    the per-path arrays are in ensemble order."""

    gamma_total: float
    visibility: float
    singh_phase: float
    mixed_dynamical: float
    transport_weak: float
    phi_t: np.ndarray  # arg<psi_k(0), psi_k(T)>
    overlap: np.ndarray  # |<psi_k(0), psi_k(T)>|
    phi_d: np.ndarray
    phi_g: np.ndarray  # arg of the member path's holonomy
    transport_strong: np.ndarray


def _propagate(sc: Scenario) -> PropagatorPath:
    """`propagate`, with a failed check on H or on U reported as bad input:
    a grid too coarse for the field, or parameters that overflow it."""
    try:
        return propagate(sc.H, sc.grid)
    except ContractError as exc:
        raise ConfigError(
            f"field 'steps': the scenario cannot be propagated at {sc.cfg.steps} steps "
            f"({exc}); use more steps or stay in the documented box "
            "mu_b, omega in [0.1, 10], theta in (0, pi)"
        ) from exc


def _paths_and_samples(sc: Scenario) -> tuple[PathStack, np.ndarray]:
    """The member paths psi_k = U|k> of the scenario's ensemble as one
    `PathStack`, then H on the grid nodes, sampled once U is released."""
    members = PathStack(sc.grid, member_paths(_propagate(sc), sc.ensemble.states))
    return members, sc.H.sample(sc.grid.nodes)


def observables(sc: Scenario) -> Observables:
    """Propagate the scenario once and evaluate every phase observable on it.

    The member paths are formed once, so their step phases are too; every
    phase is read off them, Tr[U(T) rho0] as the trace of sum_k psi_k(T)<k|
    with rho0, as in `gauge_campaign`.
    """
    members, samples = _paths_and_samples(sc)
    gamma_total, visibility = mixed_total_phase(
        density_from_ensemble(sc.ensemble), members.states[-1] @ np.conj(sc.ensemble.states))
    weak, strong, gamma_d = transport_conditions(sc.ensemble.weights, members)
    phi_t, overlap = members.totals()
    phi_d = members.dynamical(samples)
    phi_g = np.angle(members.holonomies)
    return Observables(gamma_total, visibility, singh_phase(sc.ensemble.weights, members),
                       gamma_d, weak, phi_t, overlap, phi_d, phi_g, strong)


def run_scenario(cfg: ScenarioConfig):
    """simulate: propagate, per-constituent phases, mixed observables."""
    sc = build_scenario(cfg)
    obs = observables(sc)
    strong = obs.transport_strong
    records = [("gamma_total", "", obs.gamma_total), ("visibility", "", obs.visibility)]
    for label, phi_g, phi_t, phi_d in zip(cfg.states, obs.phi_g, obs.phi_t, obs.phi_d):
        records += [("phi_g", label, phi_g), ("phi_t", label, phi_t), ("phi_d", label, phi_d)]
    records.append(("singh_phase", "", obs.singh_phase))
    records.append(("mixed_dynamical", "", obs.mixed_dynamical))
    records.append(("transport_weak", "", obs.transport_weak))
    records += [("transport_strong", label, value) for label, value in zip(cfg.states, strong)]
    records.append(("strong_transport_satisfied", "", bool(np.max(strong) <= 1e-6)))
    return records, scenario_header(cfg, "simulate")


def _sweep_point(point: tuple, field: spin_model.RotatingField | None = None) -> list:
    """One sweep row from (index, axis value, config), on `field`'s grid and
    table if given; module-level for process pools."""
    index, value, cfg = point
    sc = build_scenario(cfg, field)
    p = sc.params
    obs = observables(sc)
    row = [index, value, p.mu_b, p.omega, p.theta, p.big_theta, p.alpha, p.period]
    # one block per branch, in `run_sweep`'s ensemble order spin_model.BRANCHES
    for per_path in zip(obs.phi_t, obs.phi_d, obs.phi_g, obs.overlap, obs.transport_strong):
        row += per_path
    row += [
        obs.gamma_total,
        obs.visibility,
        obs.singh_phase,
        obs.mixed_dynamical,
        obs.transport_weak,
        spin_model.geometric_phase(p, "+"),
        spin_model.geometric_phase(p, "-"),
        spin_model.solid_angle(p),
        spin_model.interference_value(p),
    ]
    return row


def run_sweep(cfg: ScenarioConfig, axis: str, values):
    if cfg.model != "spin":
        raise ConfigError("sweep supports the spin model only")
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")
    if axis == "big_theta" and cfg.weights is not None:
        # the default weights follow big_theta; explicit ones would pin every row
        raise ConfigError("field 'weights': a big_theta sweep needs the default weights")
    cfg = validate_config(cfg)
    # every row carries both branches, whichever states the config names; each
    # point is validated here, so a bad value fails before any point runs
    points = [
        (index, float(value),
         validate_config(replace(cfg, states=spin_model.BRANCHES, **{axis: float(value)})))
        for index, value in enumerate(values)
    ]
    # fork starts every worker at the first submit, so never more than rows or cores
    workers = min(cfg.workers, len(points), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # imported only for a pool

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, points))
    else:
        # unless omega moves, every point has the same grid and rotating field
        field = None
        if axis != "omega" and points:
            field = spin_model.RotatingField(
                cfg.omega, TimeGrid(0.0, _horizon(cfg), cfg.steps))
        rows = [_sweep_point(p, field) for p in points]
    header = scenario_header(cfg, "sweep")
    header["axis"] = axis
    header["points"] = len(points)
    return rows, header


def run_verify_gauge(cfg: ScenarioConfig):
    """Invariance campaign: hidden-gauge invariants stay fixed, equivalence-class
    transforms shift gamma_T / gamma_D by exactly the predicted amounts."""
    sc = build_scenario(cfg)
    if sc.ensemble.size != sc.H.dim:
        raise ConfigError(f"field 'states': verify-gauge needs a complete state basis, one "
                          f"state per dimension: got {sc.ensemble.size} for dimension {sc.H.dim}")
    values = gauge_campaign(sc.ensemble.weights, *_paths_and_samples(sc),
                            np.random.default_rng(cfg.seed), cfg.trials, cfg.gauge_scale)
    records = [(name, "", value) for name, value in values.items()]
    header = scenario_header(cfg, "verify-gauge")
    header["trials"] = cfg.trials
    return records, header


def run_spin_report(cfg: ScenarioConfig):
    """Closed-form values of the rotating-field model for the given parameters."""
    p = spin_model.SpinParams(cfg.mu_b, cfg.omega, cfg.theta, cfg.big_theta)
    trace = spin_model.mixed_trace(p)
    records = [("alpha", "", p.alpha), ("period", "", p.period), ("beta_rate", "", p.beta_rate)]
    for name, per_branch in (("energy", spin_model.energy_expectation),
                             ("connection", spin_model.connection_value),
                             ("geometric_phase", spin_model.geometric_phase)):
        records += [(name, branch, per_branch(p, branch)) for branch in spin_model.BRANCHES]
    records += [
        ("solid_angle", "", spin_model.solid_angle(p)),
        ("interference", "", spin_model.interference_value(p)),
        ("mixed_trace_re", "", trace.real),
        ("mixed_trace_im", "", trace.imag),
        ("mixed_trace_arg", "", float(np.angle(trace))),
        ("mixed_trace_abs", "", abs(trace)),
    ]
    return records, scenario_header(cfg, "spin-report")


def run_purify_demo(cfg: ScenarioConfig, dim: int):
    """Seeded random density matrix -> purify -> reduce round trip, with the
    constant-phase hidden-gauge invariance check."""
    if dim < 1:
        raise ConfigError(f"flag '--dim': need at least 1, got {dim}")
    rng = np.random.default_rng(cfg.seed)
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = DensityMatrix((A @ np.conj(A.T)) / np.trace(A @ np.conj(A.T)).real)
    pure = purify(rho, dim)
    back = reduce_purified(pure)
    round_trip = float(np.max(np.abs(back.matrix - rho.matrix)))
    vals, vecs = np.linalg.eigh(rho.matrix)
    phases = rng.uniform(-np.pi, np.pi, size=dim)
    transformed = hidden_gauge_transform(pure, phases, vecs)
    gauge_shift = float(np.max(np.abs(reduce_purified(transformed).matrix - rho.matrix)))
    schmidt = np.sqrt(np.clip(vals[::-1], 0.0, None))
    records = [
        ("dim", "", dim),
        ("round_trip_error", "", round_trip),
        ("hidden_gauge_shift", "", gauge_shift),
        ("reduced_trace_error", "", abs(float(np.trace(back.matrix).real) - 1.0)),
        ("min_eigenvalue", "", float(np.min(np.linalg.eigvalsh(back.matrix)))),
    ]
    for k, coeff in enumerate(schmidt):
        records.append(("schmidt_coefficient", str(k), float(coeff)))
    header = scenario_header(cfg, "purify-demo")
    header["dim"] = dim
    return records, header


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value scenario file")
    for f in _FLAG_FIELDS:
        allows = f.metadata["allows"]
        sub.add_argument("--" + f.name.replace("_", "-"), type=f.metadata["convert"],
                         choices=allows if isinstance(allows, tuple) else None,
                         help=f.metadata["flag"])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `phaselab` parser, built once per process (parsing does not change it)."""
    parser = argparse.ArgumentParser(
        prog="phaselab",
        description="Geometric phases of pure and mixed states: scenario runs, "
        "sweeps and gauge-invariance verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, text in (
        ("simulate", "run one scenario and report phase observables"),
        ("sweep", "sweep one spin parameter; CSV columns, in order: " + ",".join(SWEEP_COLUMNS)),
        ("verify-gauge", "random-gauge invariance and non-invariance campaign"),
        ("spin-report", "closed-form spin-model report"),
        ("purify-demo", "purification round-trip demo"),
    ):
        _add_common_flags(sub.add_parser(command, help=text))
    sweep = sub.choices["sweep"]
    sweep.add_argument("--axis", required=True, help=f"one of {SWEEP_AXES}")
    group = sweep.add_mutually_exclusive_group(required=True)
    group.add_argument("--values", help="comma-separated axis values (may be empty)")
    group.add_argument("--linspace", nargs=3, metavar=("START", "STOP", "COUNT"),
                       help="uniformly spaced axis values")
    sub.choices["purify-demo"].add_argument(
        "--dim", type=int, default=2, help="density-matrix dimension")

    return parser


def _sweep_values(args: argparse.Namespace) -> list:
    flag = "--values" if args.values is not None else "--linspace"
    try:
        if args.values is not None:
            return [float(v) for v in args.values.split(",") if v.strip()]
        start, stop, count = args.linspace
        return np.linspace(float(start), float(stop), int(count)).tolist()
    except ValueError as exc:
        raise ConfigError(f"flag '{flag}': {exc}") from exc


@functools.cache
def _retain_heap() -> None:
    """Keep freed heap memory mapped between scenarios (glibc; a no-op elsewhere).

    By default glibc serves arrays above its mmap threshold from fresh
    mappings and trims the heap top once a few hundred kB are free, so every
    20000-step scenario page-faulted about 1800 pages (7 MB) back in.  Both
    thresholds are set to 32 MB: well above one scenario's working set (a few
    MB at 20000-40000 steps), so its arrays reuse the same pages, and the
    upper limit that mallopt(3) documents for the mmap threshold on 64-bit
    systems.  Larger arrays are still mapped and returned as before.  Run
    once per process, from `main`.
    """
    name = ctypes.util.find_library("c")
    if name is None:
        return
    try:
        mallopt = ctypes.CDLL(name).mallopt
    except (OSError, AttributeError):  # not loadable, or a C library without mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _HEAP_RETAIN_BYTES)
    mallopt(_M_MMAP_THRESHOLD, _HEAP_RETAIN_BYTES)


def main(argv=None) -> int:
    _retain_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = parse_config_file(args.config) if getattr(args, "config", None) else ScenarioConfig()
        cfg = validate_config(replace(cfg, **{f.name: value for f in _FLAG_FIELDS
                                              if (value := getattr(args, f.name)) is not None}))
        _require_writable(cfg.out)
        if args.command == "sweep":
            columns = SWEEP_COLUMNS
            rows, header = run_sweep(cfg, args.axis, _sweep_values(args))
        else:
            columns = RECORD_COLUMNS
            if args.command == "purify-demo":
                rows, header = run_purify_demo(cfg, args.dim)
            else:
                run = {"simulate": run_scenario, "verify-gauge": run_verify_gauge,
                       "spin-report": run_spin_report}[args.command]
                rows, header = run(cfg)
        _emit(write_table(columns, rows, header, cfg), cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except UndefinedPhaseError as exc:
        print(
            f"undefined phase: {exc} (zero visibility: the interference pattern "
            "is flat and carries no fringe shift)",
            file=sys.stderr,
        )
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
