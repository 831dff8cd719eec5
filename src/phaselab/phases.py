"""Phase functionals for pure-state trajectories.

Conventions (shared package-wide): the total phase is arg<psi(0), psi(T)>,
the dynamical phase is phi_D = -int <psi|H|psi> dt, and the geometric phase
is their difference, equivalently the argument of the holonomy
<psi(0), psi(T)> exp[i int <psi| i d/dt psi> dt].  Reported angles are
wrapped to (-pi, pi]; accumulated integrals (the dynamical phase) are not.
Except in `adiabatic_phase`, H comes in as its node samples `H.sample(grid.nodes)`,
whose shape `check_node_samples` checks.

`PathStack` holds k paths on one grid as one (nodes, dim, k) stack, the layout
of `evolution.member_paths`, and gives every functional above as an array over
k from one set of derivative overlaps <psi_k|d psi_k/dt>; `derivative_overlaps`
is the one central-difference estimator, so another estimator changes it only.
It is built from the step overlaps <psi_j, psi_{j+1}> of `step_overlaps`, by
linearity, so no stack of differences is formed.  The per-path functions on
an `AmplitudePath` are its k = 1 case; the frame holonomies of `gauge` and
every time-dependent mixed-state functional of `mixed` read the record too.
The kernels on raw state stacks (step overlaps, connection, energy
expectation, parallel transport) serve all three modules; for two-level
states the step overlaps and energies are written entry by entry.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .evolution import AmplitudePath, HamiltonianTrajectory, TimeGrid
from .exceptions import ContractError, DegeneracyError, DimensionError, UndefinedPhaseError
from .linalg import fix_eigenvector_phases
from .numerics import cum_trapezoid, trapezoid, wrap_angle

OVERLAP_FLOOR = 1e-12


@dataclass(frozen=True)
class PhaseReport:
    """Phase summary for one scenario constituent.

    `geometric` is wrap(total - dynamical) by construction; the transport
    residual is the largest interior |<psi, d psi/dt>|, i.e. how far the raw
    evolution is from satisfying the parallel transport condition.
    """

    total: float
    dynamical: float
    geometric: float
    overlap_magnitude: float
    transport_residual: float


def step_overlaps(states: np.ndarray) -> np.ndarray:
    """<v_j, v_{j+1}> on a (nodes, dim, ...) stack: the vector is axis 1, so k
    paths stacked as (nodes, dim, k) give (nodes - 1, k).

    For dim 2 each path's overlaps are two products of its components, written
    into its column of the output, with no conjugated copy of the stack; other
    dimensions take one einsum.
    """
    states = np.asarray(states)
    if states.shape[1] != 2:
        return np.einsum("ja...,ja...->j...", np.conj(states[:-1]), states[1:])
    out = np.empty((len(states) - 1,) + states.shape[2:], dtype=complex)
    for k in np.ndindex(states.shape[2:]):
        row = out[(slice(None), *k)]
        a, b = states[(slice(None), 0, *k)], states[(slice(None), 1, *k)]
        np.multiply(np.conj(a[:-1]), a[1:], out=row)
        row += np.conj(b[:-1]) * b[1:]
    return out


def derivative_overlaps(states: np.ndarray, dt: float) -> np.ndarray:
    """<v_j, d/dt v_j> by central differences on a (nodes, dim, ...) stack: the
    vector is axis 1, so k paths stacked as (nodes, dim, k) give (nodes, k).

    The differences are expanded by linearity over the step overlaps
    s_j = <v_j, v_{j+1}>: an interior node gives (s_j - conj(s_{j-1})) / (2 dt),
    and the endpoints the one-sided three-point stencils of
    `numerics.central_diff`, (4 s_0 - 3 <v_0, v_0> - <v_0, v_2>) / (2 dt) and
    (3 <v_N, v_N> - 4 conj(s_{N-1}) + <v_N, v_{N-2}>) / (2 dt).
    """
    states = np.asarray(states)
    if states.shape[0] < 3:
        raise ValueError("need at least 3 samples for second-order differences")
    s = step_overlaps(states)
    out = np.empty((len(states),) + s.shape[1:], dtype=complex)
    np.subtract(s.real[1:], s.real[:-1], out=out.real[1:-1])
    np.add(s.imag[1:], s.imag[:-1], out=out.imag[1:-1])
    # <v_0, v_0>, <v_0, v_2>, <v_N, v_N> and <v_N, v_{N-2}>
    ends = np.einsum("ia...,ia...->i...", np.conj(states[[0, 0, -1, -1]]), states[[0, 2, -1, -3]])
    out[0] = 4.0 * s[0] - 3.0 * ends[0] - ends[1]
    out[-1] = 3.0 * ends[2] - 4.0 * np.conj(s[-1]) + ends[3]
    flat = out.view(out.real.dtype)  # the real view, so the division stays real
    flat /= 2.0 * dt
    return out


def state_connection(states: np.ndarray, dt: float) -> np.ndarray:
    """<v(t_j), i d/dt v(t_j)>, real part, for a state stack v of shape (nodes, dim)."""
    return -derivative_overlaps(states, dt).imag


def check_node_samples(samples: np.ndarray, grid: TimeGrid, dim: int) -> None:
    """Raise DimensionError unless `samples` has the shape of H on the grid nodes."""
    expected = (grid.steps + 1, dim, dim)
    if np.shape(samples) != expected:
        raise DimensionError(f"H samples have shape {np.shape(samples)}, expected {expected}")


def state_energies(states: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """<v(t_j)| H(t_j) |v(t_j)>, real part, on a (nodes, dim, ...) state stack
    and the H samples (nodes, dim, dim): k paths stacked as (nodes, dim, k)
    give (nodes, k).

    For dim 2, with v = (a, b) and z = conj(a) b, it is written entry by entry
    as |a|^2 Re h00 + |b|^2 Re h11
    + Re z (Re h01 + Re h10) + Im z (Im h10 - Im h01): the exact real part of
    the full form, so H need not be exactly Hermitian.  The four real rows of
    H are formed once for all paths.  Other dimensions take one einsum per
    path (one over the whole stack is about 3 times slower at dim 3).  Each
    path's energies fill one contiguous row of the result, which is returned
    as a transposed view.
    """
    states = np.asarray(states)
    out = np.empty(states.shape[2:] + states.shape[:1])
    paths = np.ndindex(states.shape[2:])
    if states.shape[1] != 2:
        for k in paths:
            v = states[(slice(None), slice(None), *k)]
            out[k] = np.einsum("ja,jab,jb->j", np.conj(v), samples, v).real
        return np.moveaxis(out, -1, 0)
    h01, h10 = samples[:, 0, 1], samples[:, 1, 0]
    h00, h11 = np.ascontiguousarray(samples[:, 0, 0].real), np.ascontiguousarray(samples[:, 1, 1].real)
    re_sum, im_diff = h01.real + h10.real, h10.imag - h01.imag
    for k in paths:
        a, b = states[(slice(None), 0, *k)], states[(slice(None), 1, *k)]
        conj_a = np.conj(a)
        z = conj_a * b
        row = out[k]
        np.multiply((conj_a * a).real, h00, out=row)
        row += (b.real * b.real + b.imag * b.imag) * h11
        row += z.real * re_sum
        row += z.imag * im_diff
    return np.moveaxis(out, -1, 0)


def parallel_transport(states: np.ndarray, dt: float) -> np.ndarray:
    """Rephase a state stack so its connection vanishes; the endpoints then
    carry the holonomy."""
    accumulated = cum_trapezoid(state_connection(states, dt), dt)
    return states * np.exp(1j * accumulated)[:, None]


@dataclass(frozen=True)
class PathStack:
    """k paths psi_k(t_j) on one grid as one (steps + 1, dim, k) stack, with
    every phase functional as an array over k.

    The derivative overlaps come from one `derivative_overlaps` call and are
    kept as one contiguous row per path, so each path's sums run pairwise over
    its own row and a row's values equal those of the path stacked alone.
    """

    grid: TimeGrid
    states: np.ndarray  # (steps + 1, dim, k)

    def __post_init__(self):
        object.__setattr__(self, "states", np.asarray(self.states))
        if self.states.ndim != 3 or len(self.states) != self.grid.steps + 1:
            raise DimensionError(f"path stack has shape {self.states.shape}")

    @classmethod
    def of(cls, paths: Sequence[AmplitudePath]) -> PathStack:
        """Paths on one grid as one stack, in their order."""
        paths = list(paths)
        if not paths or any(path.grid != paths[0].grid for path in paths):
            raise DimensionError("need one or more paths, all on one grid")
        return cls(paths[0].grid, np.stack([path.states for path in paths], axis=-1))

    @property
    def size(self) -> int:
        return self.states.shape[-1]

    def require_orthonormal_start(self) -> None:
        """Raise ContractError unless the paths are orthonormal at t = 0 to 1e-10."""
        first = self.states[0]  # (dim, k)
        if not np.max(np.abs(np.conj(first.T) @ first - np.eye(self.size))) <= 1e-10:
            raise ContractError("paths must be orthonormal at t = 0")

    @cached_property
    def overlaps(self) -> np.ndarray:
        """<psi_k, d psi_k/dt> at every node, shape (k, nodes)."""
        return np.ascontiguousarray(derivative_overlaps(self.states, self.grid.dt).T)

    @cached_property
    def endpoint_overlaps(self) -> np.ndarray:
        """<psi_k(0), psi_k(T)> per path."""
        return np.array([np.vdot(a, b) for a, b in zip(self.states[0].T, self.states[-1].T)])

    def totals(self):
        """(arg, magnitude) of every endpoint overlap: the total phases, valid
        for non-cyclic paths too; raises where a magnitude leaves one undefined."""
        magnitudes = np.abs(self.endpoint_overlaps)
        if not np.min(magnitudes) >= OVERLAP_FLOOR:
            raise UndefinedPhaseError(f"endpoint overlap magnitude {np.min(magnitudes):.2e} "
                                      "leaves the total phase undefined")
        return np.angle(self.endpoint_overlaps), magnitudes

    @cached_property
    def holonomies(self) -> np.ndarray:
        """<psi_k(0), psi_k(T)> exp[i int <psi_k| i d/dt psi_k> dt] per path: its argument
        is the geometric phase, unchanged by any rephasing psi_k -> e^{i alpha_k(t)} psi_k."""
        connection = [trapezoid(-row.imag, self.grid.dt) for row in self.overlaps]
        return self.endpoint_overlaps * np.exp(1j * np.array(connection))

    @property
    def residuals(self) -> np.ndarray:
        """max over interior nodes of |<psi_k, d psi_k/dt>| (zero iff parallel transported)."""
        return np.max(np.abs(self.overlaps[:, 1:-1]), axis=1)

    def dynamical(self, samples: np.ndarray) -> np.ndarray:
        """phi_D = -int <psi_k|H|psi_k> dt per path by the trapezoidal rule
        (unwrapped), from `samples`, H on the grid nodes (shape (steps + 1, dim, dim))."""
        check_node_samples(samples, self.grid, self.states.shape[1])
        energies = np.ascontiguousarray(state_energies(self.states, samples).T)  # (k, nodes)
        return np.array([-trapezoid(row, self.grid.dt) for row in energies])

    def reports(self, samples: np.ndarray) -> list[PhaseReport]:
        """Total, dynamical and geometric phase of every path; `samples` as in
        `dynamical`."""
        angles, magnitudes = self.totals()
        dyn = self.dynamical(samples)
        return [PhaseReport(*map(float, row)) for row in zip(
            angles, dyn, wrap_angle(angles - dyn), magnitudes, self.residuals)]


def _alone(psi: AmplitudePath) -> PathStack:
    return PathStack(psi.grid, psi.states[..., None])


def total_phase(psi: AmplitudePath):
    """arg and magnitude of <psi(0), psi(T)>; valid for non-cyclic paths too."""
    angles, magnitudes = _alone(psi).totals()
    return float(angles[0]), float(magnitudes[0])


def dynamical_phase(psi: AmplitudePath, samples: np.ndarray) -> float:
    """phi_D = -int <psi|H|psi> dt by the trapezoidal rule (unwrapped), from
    `samples`, H on psi's grid nodes (shape (steps + 1, dim, dim))."""
    return float(_alone(psi).dynamical(samples)[0])


def geometric_phase_pure(psi: AmplitudePath) -> float:
    """arg{ <psi(0), psi(T)> exp[i int <psi| i d/dt psi> dt] }, gauge invariant."""
    stack = _alone(psi)
    stack.totals()  # an undefined endpoint overlap raises
    return float(np.angle(stack.holonomies[0]))


def transport_residual(psi: AmplitudePath) -> float:
    """max over interior nodes of |<psi, d psi/dt>| (zero iff parallel transported)."""
    return float(_alone(psi).residuals[0])


def phase_report(psi: AmplitudePath, samples: np.ndarray) -> PhaseReport:
    """Total, dynamical and geometric phase of one path; `samples` as in
    `dynamical_phase`."""
    return _alone(psi).reports(samples)[0]


def adiabatic_phase(H: HamiltonianTrajectory, grid: TimeGrid, level: int):
    """Adiabatic geometric and dynamical phases of one instantaneous level.

    The instantaneous eigenbasis is made continuous along the grid (nearest
    overlap real positive), closed by spreading the residual endpoint phase
    uniformly, and integrated: geometric = int <v| i d/dt v> dt and
    dynamical = -int E(t) dt.  Requires the level to stay separated from its
    neighbors by at least 1e-6 at every node.
    """
    samples = H.sample(grid.nodes)
    vals, vecs = np.linalg.eigh(samples)  # batched, ascending eigenvalues
    if not 0 <= level < H.dim:
        raise DimensionError(f"level {level} outside 0..{H.dim - 1}")
    gaps = np.diff(vals, axis=1)
    if level > 0 and np.min(gaps[:, level - 1]) < 1e-6:
        raise DegeneracyError(f"level {level} closes on level {level - 1}")
    if level < H.dim - 1 and np.min(gaps[:, level]) < 1e-6:
        raise DegeneracyError(f"level {level} closes on level {level + 1}")

    v = np.stack([fix_eigenvector_phases(vecs[j])[:, level] for j in range(len(vals))])
    for j in range(1, v.shape[0]):
        overlap = np.vdot(v[j - 1], v[j])
        if abs(overlap) < 1e-8:
            raise DegeneracyError("eigenvector continuity lost between grid nodes")
        v[j] *= np.conj(overlap) / abs(overlap)
    # Close the frame: the leftover phase is the discrete holonomy.
    mismatch = np.vdot(v[0], v[-1])
    delta = float(np.angle(mismatch))
    j_frac = np.arange(v.shape[0]) / (v.shape[0] - 1)
    v = v * np.exp(-1j * delta * j_frac)[:, None]
    v[-1] = v[0]

    geometric = float(trapezoid(state_connection(v, grid.dt), grid.dt))
    dyn = float(-trapezoid(vals[:, level], grid.dt))
    return geometric, dyn
