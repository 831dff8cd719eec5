"""Command-line surface: scenario runs, parameter sweeps, gauge-invariance
verification campaigns, analytic spin reports and a purification demo.

Scenarios are described by a flat key = value config file or entirely by
flags; flags override file values.  Each field is declared once, in
`ScenarioConfig`; the README's "Config file grammar" table lists them.  All
randomness comes from a single seeded generator named in the output header,
and identical config plus seed produces byte-identical output files.  Each
scenario samples H once, on its grid midpoints: the propagator and every
phase that `simulate`, `sweep` and `verify-gauge` print read those samples.

Sampled-Hamiltonian file: a header line `dim <d> steps <n>`, then n+1 rows of
2*d*d floats (real/imag pairs, row-major, each token read by `float()`),
uniform over the scenario horizon, made exactly Hermitian once accepted and
interpolated linearly in between.  It is read on every call; a process keeps
its latest SAMPLED_PARSES parses, not errors.
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
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import spin_model
from .evolution import (
    HERMITICITY_TOL,
    HamiltonianTrajectory,
    TimeGrid,
    member_paths,
    propagate,
)
from .exceptions import ContractError, PhaseLabError, UndefinedPhaseError
from .gauge import GAUGE_DEGREE
from .linalg import require_hermitian
from .mixed import (
    WEIGHT_SUM_TOL,
    DensityMatrix,
    Ensemble,
    gauge_campaign,
    hidden_gauge_transform,
    mixed_total_phase,
    purify,
    reduce as reduce_purified,
    singh_phase,
    transport_conditions,
)
from .phases import PathStack, frame_energies

DEFAULT_STEPS = 20000
MIN_STEPS = 10
# A grid of n steps for a d-level system needs about STEP_BYTES * d^2 bytes per
# step (tracemalloc peaks of `observables` read 50-70 d^2 at d = 2..8); a grid
# whose working set would exceed WORKING_SET_BYTES is refused before it exists.
STEP_BYTES = 80
WORKING_SET_BYTES = 2 << 30
# purify-demo needs about PURIFY_ENTRY_BYTES * d^2 bytes (tracemalloc peaks of
# `run_purify_demo` read 176-198 d^2 at d = 32..1024): a larger --dim is refused.
PURIFY_ENTRY_BYTES = 200
MAX_PURIFY_DIM = math.isqrt(WORKING_SET_BYTES // PURIFY_ENTRY_BYTES)
# a sweep keeps about SWEEP_POINT_BYTES per point for its whole run (tracemalloc
# peaks of `main` at 10 steps read 1.9-2.1 kB per point as CSV, 7.7 kB as JSON)
SWEEP_POINT_BYTES = 8000
MAX_SWEEP_POINTS = WORKING_SET_BYTES // SWEEP_POINT_BYTES
# sampled-Hamiltonian parses kept: more than the files a process cycles through (cli-small: 4)
SAMPLED_PARSES = 8

SWEEP_AXES = ("mu_b", "omega", "theta", "big_theta")

SWEEP_COLUMNS = (
    "index", "axis_value", "mu_b", "omega", "theta", "big_theta", "alpha", "period",
    # per branch, '+' then '-', in the order of a `_sweep_rows` row
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

    def resolved_weights(self) -> np.ndarray:
        if self.weights is not None:
            return np.asarray(self.weights, dtype=float)
        c = np.cos(0.5 * self.big_theta) ** 2
        if self.model == "spin" and self.states == spin_model.BRANCHES[::-1]:
            return np.array([1.0 - c, c])  # the branches take their weights by label
        return np.array([c, 1.0 - c])


_FIELDS = {f.name: f for f in fields(ScenarioConfig)}
_FLAG_FIELDS = [f for f in _FIELDS.values() if f.metadata["flag"] is not None]
# the rotating field's own parameters, which a custom-sampled H would ignore
# (big_theta is not one: it sets a two-state ensemble's default weights)
SPIN_FIELDS = ("mu_b", "omega", "theta")


def _read_text(path: str, kind: str) -> str:
    """A UTF-8 file's text, a leading byte-order mark dropped, or a ConfigError."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {kind} file {path}: {exc}") from exc


def _lines(text: str) -> list:
    """(line number, line) of each line not blank once its `#` comment is cut."""
    return [(lineno, line) for lineno, raw in enumerate(text.splitlines(), start=1)
            if (line := raw.split("#", 1)[0].strip())]


def parse_config_file(path: str) -> ScenarioConfig:
    cfg = ScenarioConfig()
    set_on = {}  # field name -> line that set it
    for lineno, line in _lines(_read_text(path, "config")):
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
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
    if cfg.model == "custom-sampled":
        for key, lineno in set_on.items():
            if key in SPIN_FIELDS:
                raise ConfigError(f"{path}:{lineno}: field {key!r}: "
                                  "the custom-sampled model ignores it")
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
    if cfg.model == "spin" and cfg.hamiltonian_file is not None:
        raise ConfigError("field 'hamiltonian_file': the spin model ignores it; "
                          "set model = custom-sampled")
    if cfg.model == "spin" and cfg.horizon == "one-period" and cfg.omega <= 0.0:
        raise ConfigError(
            f"field 'omega': a one-period horizon needs omega > 0, got {cfg.omega}"
        )
    if not math.isfinite(2.0 * _horizon(cfg)):  # the grid's midpoints add two nodes
        if cfg.horizon == "one-period":
            raise ConfigError(f"field 'omega': the one-period horizon 2 pi / {cfg.omega} overflows")
        raise ConfigError(f"field 't_end': {cfg.t_end} overflows the grid's midpoints")
    if cfg.model == "spin":
        _require_phase_range(cfg, _horizon(cfg))
    if cfg.model == "spin":
        _require_working_set(cfg.steps, 2)
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


def _require_working_set(steps: int, dim: int) -> None:
    most = WORKING_SET_BYTES // (STEP_BYTES * dim * dim)
    if steps > most:
        raise ConfigError(f"field 'steps': at most {most} steps fit the "
                          f"{WORKING_SET_BYTES >> 30} GiB working-set limit at dimension {dim}, "
                          f"got {steps}")


def _sample_row(path: str, j: int, line: str, width: int) -> list:
    """The numbers of line j of a sampled-matrix file, or the exit-2 error
    that names the line."""
    try:
        values = list(map(float, line.split()))
    except ValueError as exc:
        raise ConfigError(f"{path}:{j}: {exc}") from exc
    if len(values) != width:
        raise ConfigError(f"{path}:{j}: expected {width} numbers, found {len(values)}")
    return values


def load_sampled_hamiltonian(path: str, t_end: float) -> HamiltonianTrajectory:
    """Read the file on every call; parse it (memoized on path, text, t_end) to an interpolant."""
    return _parse_sampled(path, _read_text(path, "Hamiltonian"), t_end)


@functools.lru_cache(maxsize=SAMPLED_PARSES)
def _parse_sampled(path: str, text: str, t_end: float) -> HamiltonianTrajectory:
    lines = _lines(text)
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
    # float() reads each row, as it reads config values; a bad dim allocates nothing
    rows = np.array([_sample_row(path, j, line, 2 * dim * dim) for j, line in lines])
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
    samples.flags.writeable = False  # shared by every call the parse serves

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


def _state_index(cfg: ScenarioConfig, dim: int) -> list:
    """The basis index of each of `cfg.states`, which must differ: spin branch
    selectors '+'/'-', or custom basis indices below `dim`."""
    index = []
    for sel in cfg.states:
        if cfg.model == "spin":
            if sel not in spin_model.BRANCHES:
                raise ConfigError(f"field 'states': spin selectors are '+'/'-', got {sel!r}")
            index.append(spin_model.BRANCHES.index(sel))
            continue
        try:
            idx = int(sel)
        except ValueError:
            raise ConfigError(
                f"field 'states': custom selectors are basis indices, got {sel!r}"
            ) from None
        if not 0 <= idx < dim:
            raise ConfigError(f"field 'states': index {idx} outside 0..{dim - 1}")
        index.append(idx)
    if len(set(index)) != len(index):
        raise ConfigError(f"field 'states': selectors must differ, got {','.join(cfg.states)}")
    return index


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
    else:
        params = None
        H = load_sampled_hamiltonian(cfg.hamiltonian_file, float(cfg.t_end))
        _require_working_set(cfg.steps, H.dim)
        basis = np.eye(H.dim, dtype=complex)
    ensemble = Ensemble(weights=cfg.resolved_weights(), states=basis[_state_index(cfg, H.dim)])
    grid = field.grid if field is not None else TimeGrid(0.0, _horizon(cfg), cfg.steps)
    return Scenario(cfg=cfg, H=H, grid=grid, ensemble=ensemble, params=params)


def _fmt(value) -> str:
    """A record or header value as CSV text: floats (np.float64 is one) to 12
    significant digits, bools as true/false, anything else by `str`."""
    if isinstance(value, float):
        return f"{value:.12g}"
    if type(value) is str:
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _json_text(value) -> str:
    """A scalar record or header value as `json.dumps` writes it: finite floats
    (np.float64 is one) and strings by the encoder's own C-level scalar
    encoders, anything else by `json.dumps` itself."""
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    if type(value) is str:
        return encode_basestring_ascii(value)
    return json.dumps(value)


def _json_block(items: list, pad: str, brackets: str = "{}") -> str:
    """A JSON object or array of already-encoded items, as `indent=2` lays
    it out when it opens at indent `pad`."""
    if not items:
        return brackets
    inner = "\n" + pad + "  "
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + pad + brackets[1]


def _json_table(columns, rows, header: dict) -> str:
    """The text of `json.dumps(payload, indent=2)` for `write_table`'s JSON
    payload, written from one row template: the column names are encoded
    once, and each row fills the template with its encoded values."""
    names = [encode_basestring_ascii(col) for col in columns]
    template = _json_block([name.replace("%", "%%") + ": %s" for name in names], "    ")
    table = [template % tuple([_json_text(v) for v in row]) for row in rows]
    head = [f"{encode_basestring_ascii(key)}: {_json_text(val)}" for key, val in header.items()]
    body = [f'"header": {_json_block(head, "  ")}']
    if tuple(columns) == RECORD_COLUMNS:
        body.append(f'"records": {_json_block(table, "  ", "[]")}')
    else:
        body.append(f'"columns": {_json_block(names, "  ", "[]")}')
        body.append(f'"rows": {_json_block(table, "  ", "[]")}')
    return _json_block(body, "") + "\n"


def write_table(columns, rows, header: dict, cfg: ScenarioConfig) -> str:
    """Serialize rows under `columns` as CSV or JSON text.  In JSON, records
    (the RECORD_COLUMNS table) go under "records"; any other table goes under
    "columns" and "rows", each row an object keyed by the columns."""
    if cfg.format == "json":
        return _json_table(columns, rows, header)
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
    phi_g: np.ndarray  # wrap(phi_t - phi_d), of the propagated curve's connection
    transport_strong: np.ndarray


def _propagate(sc: Scenario) -> tuple[PathStack, np.ndarray, np.ndarray]:
    """The member paths psi_k = U|k> of the scenario's ensemble as one
    `PathStack`, H on the grid midpoints, the samples U was propagated on
    (`PropagatorPath.samples`), and the members' step energies on them,
    e_kj = <psi_k(t_j)| H(t_{j+1/2}) |psi_k(t_j)>; U itself is let go.  A
    two-level U is propagated in the frame of the ensemble's canonical ket,
    the lowest selector ('+' before '-', or the lowest basis index), so its
    pairs are that member's path and the energies of every member come from
    them (`phases.frame_energies`), whatever the order of the states.  A
    failed check on H or on U is reported as bad input: a grid too coarse
    for the field, or parameters that overflow it."""
    kets, start = sc.ensemble.states, None
    if sc.H.dim == 2:
        index = _state_index(sc.cfg, 2)
        start = kets[index.index(min(index))]
    try:
        path = propagate(sc.H, sc.grid, start)
    except ContractError as exc:
        raise ConfigError(
            f"field 'steps': the scenario cannot be propagated at {sc.cfg.steps} steps "
            f"({exc}); use more steps or stay in the documented box "
            "mu_b, omega in [0.1, 10], theta in (0, pi)"
        ) from exc
    if start is None:
        members = PathStack(sc.grid, member_paths(path, kets))
        return members, path.samples, members.step_energies(path.samples)
    energies = frame_energies(path, kets)  # its rows are freed before the members exist
    return PathStack(sc.grid, member_paths(path, kets)), path.samples, energies


def observables(sc: Scenario) -> Observables:
    """Propagate the scenario once and evaluate every phase observable on it.

    H is sampled once, on the grid midpoints; the propagator reads those
    samples, and so do the step energies of the member paths psi_k = U|k>,
    e_kj = <psi_k(t_j)| H(t_{j+1/2}) |psi_k(t_j)>, whose e_kj dt is the exact
    connection of the curve the propagator made (`_propagate`).
    From that one (k, steps) array come phi_d = -dt sum_j e_kj,
    phi_g = wrap(phi_t - phi_d), gamma_D = sum_k w_k phi_d,k, the Singh phase
    of those phi_g, and the residuals max_j |e_kj| (strong, per path) and
    max_j |sum_k w_k e_kj| (weak) of `transport_conditions`.  Tr[U(T) rho0] is
    the ensemble average sum_k w_k <k|psi_k(T)>, as in `gauge_campaign`.  No
    step overlaps are formed.
    """
    weights = sc.ensemble.weights
    members, energies = _propagate(sc)[::2]
    gamma_total, visibility = mixed_total_phase(weights, sc.ensemble.states, members)
    phi_t, overlap = members.totals()
    phi_d, phi_g = members.curve_phases(energies)
    weak, strong = transport_conditions(weights, members, energies)
    return Observables(gamma_total, visibility, singh_phase(weights, members, phi_g),
                       float(members.average(weights, phi_d)), weak, phi_t, overlap, phi_d, phi_g,
                       strong)


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


def _sweep_rows(points: list) -> list:
    """The rows of one sweep's (index, axis value, config) points, in order,
    each branch's columns by label, '+' then '-'.  The points differ only in
    the axis, so consecutive points with equal omega share one grid and one
    rotating-field table, built when omega moves."""
    rows, field = [], None
    for index, value, cfg in points:
        if field is None or field.omega != cfg.omega:
            field = spin_model.RotatingField(cfg.omega, TimeGrid(0.0, _horizon(cfg), cfg.steps))
        sc = build_scenario(cfg, field)
        p, obs = sc.params, observables(sc)
        row = [index, value, p.mu_b, p.omega, p.theta, p.big_theta, p.alpha, p.period]
        for k in map(cfg.states.index, spin_model.BRANCHES):
            row += [obs.phi_t[k], obs.phi_d[k], obs.phi_g[k], obs.overlap[k],
                    obs.transport_strong[k]]
        rows.append(row + [
            obs.gamma_total, obs.visibility, obs.singh_phase, obs.mixed_dynamical,
            obs.transport_weak, spin_model.geometric_phase(p, "+"),
            spin_model.geometric_phase(p, "-"), spin_model.solid_angle(p),
            spin_model.interference_value(p),
        ])
    return rows


def _require_phase_range(cfg: ScenarioConfig, T: float) -> None:
    """Refuse a spin config whose phase 2 |mu_b| T over the time T overflows."""
    if math.isinf(2.0 * abs(cfg.mu_b) * T):
        raise ConfigError(f"field 'mu_b': 2 |mu_b| T overflows at T = {T:.12g}")


def _one_period(cfg: ScenarioConfig, command: str) -> ScenarioConfig:
    if cfg.omega <= 0.0:  # `command` prints one-period closed forms, whatever the horizon
        raise ConfigError(f"field 'omega': {command} needs omega > 0, got {cfg.omega}")
    _require_phase_range(cfg, 2.0 * math.pi / cfg.omega)
    return cfg


def run_sweep(cfg: ScenarioConfig, axis: str, values):
    """sweep: the scenario `simulate` runs for `cfg`, with `axis` set to each
    value in turn.  The config must name both spin branches, in either order,
    and every point is validated before any runs."""
    if cfg.model != "spin":
        raise ConfigError("sweep supports the spin model only")
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")
    if axis == "big_theta" and cfg.weights is not None:
        # the default weights follow big_theta; explicit ones would pin every row
        raise ConfigError("field 'weights': a big_theta sweep needs the default weights")
    if sorted(cfg.states) != list(spin_model.BRANCHES):  # '+' sorts before '-'
        raise ConfigError("field 'states': a sweep needs both branches '+' and '-', "
                          f"got {','.join(cfg.states)}")
    cfg = validate_config(cfg)
    points = [(index, float(value),
               _one_period(validate_config(replace(cfg, **{axis: float(value)})), "sweep"))
              for index, value in enumerate(values)]
    rows = _sweep_rows(points)
    header = scenario_header(cfg, "sweep")
    header["axis"] = axis
    header["points"] = len(points)
    return rows, header


def run_verify_gauge(cfg: ScenarioConfig):
    """Invariance campaign: hidden-gauge invariants stay fixed, equivalence-class
    transforms shift gamma_T / gamma_D by exactly the predicted amounts."""
    sc = build_scenario(cfg)
    s, T = cfg.gauge_scale, sc.grid.span  # a drawn |theta| <= pi + 2 s sum_m 1/m^2 + 2 s T
    if math.pi + 2.0 * s * (sum(m ** -2.0 for m in range(1, GAUGE_DEGREE + 1)) + T) > 2.0 ** 26:
        raise ConfigError(f"field 'gauge_scale': {s} draws angles beyond 2^26 rad at T = {T:.12g}")
    values = gauge_campaign(sc.ensemble.weights, *_propagate(sc),
                            np.random.default_rng(cfg.seed), cfg.trials, cfg.gauge_scale)
    records = [(name, "", value) for name, value in values.items()]
    header = scenario_header(cfg, "verify-gauge")
    header["trials"] = cfg.trials
    return records, header


def run_spin_report(cfg: ScenarioConfig):
    """Closed-form values of the rotating-field model for the given parameters;
    the mixed trace is the config's own ensemble's, sum_k w_k of the selected
    branches' traces, as `simulate` reads it off the member paths."""
    if cfg.model != "spin":
        raise ConfigError("spin-report supports the spin model only")
    _one_period(cfg, "spin-report")
    p = spin_model.SpinParams(cfg.mu_b, cfg.omega, cfg.theta, cfg.big_theta)
    traces = spin_model.branch_traces(p)
    weights = cfg.resolved_weights().tolist()
    trace = sum(w * traces[k] for w, k in zip(weights, _state_index(cfg, 2)))
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
    if dim > MAX_PURIFY_DIM:
        raise ConfigError(f"flag '--dim': at most {MAX_PURIFY_DIM} fits the "
                          f"{WORKING_SET_BYTES >> 30} GiB working-set limit, got {dim}")
    rng = np.random.default_rng(cfg.seed)
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    gram = A @ np.conj(A.T)
    rho = DensityMatrix(gram / np.trace(gram).real)
    pure = purify(rho, dim)
    back = reduce_purified(pure)
    round_trip = float(np.max(np.abs(back.matrix - rho.matrix)))
    phases = rng.uniform(-np.pi, np.pi, size=dim)
    transformed = hidden_gauge_transform(pure, phases, rho.eigenvectors)
    gauge_shift = float(np.max(np.abs(reduce_purified(transformed).matrix - rho.matrix)))
    schmidt = np.sqrt(np.clip(rho.eigenvalues[::-1], 0.0, None))
    records = [
        ("dim", "", dim),
        ("round_trip_error", "", round_trip),
        ("hidden_gauge_shift", "", gauge_shift),
        ("reduced_trace_error", "", abs(float(np.trace(back.matrix).real) - 1.0)),
        ("min_eigenvalue", "", float(back.eigenvalues[0])),
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
    parser.commands = sub.choices  # command name -> its parser, for `_parse_args`
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """`build_parser().parse_args(argv)`, in one parser pass where it can be.

    A command line that starts with a command name is parsed by that
    command's parser alone, into a fresh namespace that then gets `command`,
    as the subparsers action does.  Help, a missing or unknown command and
    any leftover argument go through the top-level parser, so its messages
    ("unrecognized arguments: ...") and exit status stay its own.
    """
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:], argparse.Namespace())
        if not extras:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def _sweep_values(args: argparse.Namespace) -> list:
    flag = "--values" if args.values is not None else "--linspace"
    try:
        if args.values is not None:
            return [float(v) for v in args.values.split(",") if v.strip()]
        start, stop, count = float(args.linspace[0]), float(args.linspace[1]), int(args.linspace[2])
        if count <= MAX_SWEEP_POINTS:
            return np.linspace(start, stop, count).tolist()
    except ValueError as exc:
        raise ConfigError(f"flag '{flag}': {exc}") from exc
    raise ConfigError(f"flag '--linspace': at most {MAX_SWEEP_POINTS} points fit the "
                      f"{WORKING_SET_BYTES >> 30} GiB working-set limit, got {count}")


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
    args = _parse_args(argv)
    try:
        cfg = parse_config_file(args.config) if getattr(args, "config", None) else ScenarioConfig()
        flags = {f.name: value for f in _FLAG_FIELDS
                 if (value := getattr(args, f.name)) is not None}
        if cfg.model == "custom-sampled":
            for name in SPIN_FIELDS:
                if name in flags:
                    raise ConfigError(f"flag '--{name.replace('_', '-')}': "
                                      f"the custom-sampled model ignores field {name!r}")
        cfg = validate_config(replace(cfg, **flags))
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
        print(f"undefined phase: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
