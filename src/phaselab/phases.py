"""Phase functionals for pure-state trajectories.

Conventions (shared package-wide): the total phase is arg<psi(0), psi(T)>,
the dynamical phase is phi_D = -int <psi|H|psi> dt, and the geometric phase
is their difference, equivalently the argument of the holonomy
<psi(0), psi(T)> exp[i int <psi| i d/dt psi> dt].  Reported angles are
wrapped to (-pi, pi]; accumulated integrals (the dynamical phase) are not.
Except in `adiabatic_phase`, H comes in as its node samples `H.sample(grid.nodes)`,
whose shape `check_node_samples` checks.

The one connection estimator is the step phases phi_j = arg<psi_j, psi_{j+1}>
(`step_overlaps`): the connection integral is -sum_j phi_j and the holonomy the
Bargmann invariant <psi_0, psi_N> exp(-i sum_j phi_j), which any rephasing
psi_j -> e^{i alpha_j} psi_j leaves exactly fixed on the grid, since each phi_j
shifts by alpha_{j+1} - alpha_j modulo 2 pi and the sum telescopes.

`PathStack` holds k paths on one grid as one (nodes, dim, k) stack, the layout
of `evolution.member_paths`, and gives every functional above as an array over
k from one set of step phases.  It is the one path argument of every phase
functional; a single path is the stack with k = 1.  `gauge.BasisFrame` is a
labelled PathStack, and every time-dependent mixed-state functional of `mixed`
reads the record too.  The kernels on raw state stacks (step overlaps, energy
expectation, parallel transport) serve all three modules; for two-level states
the energies are written entry by entry.  `adiabatic_phase` reads the holonomy
of an instantaneous level's eigenvectors as `eigh` returns them.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .evolution import HamiltonianTrajectory, TimeGrid
from .exceptions import ContractError, DegeneracyError, DimensionError, UndefinedPhaseError
from .numerics import trapezoid, wrap_angle

OVERLAP_FLOOR = 1e-12


@dataclass(frozen=True)
class PhaseReport:
    """Phase summary for one scenario constituent.

    `geometric` is wrap(total - dynamical) by construction; the transport
    residual is the largest step phase |arg<psi_j, psi_{j+1}>| / dt, i.e. how
    far the raw evolution is from satisfying the parallel transport condition.
    """

    total: float
    dynamical: float
    geometric: float
    overlap_magnitude: float
    transport_residual: float


def step_overlaps(states: np.ndarray) -> np.ndarray:
    """<v_j, v_{j+1}> on a (nodes, dim, ...) stack: the vector is axis 1, so k
    paths stacked as (nodes, dim, k) give (nodes - 1, k)."""
    states = np.asarray(states)
    return np.einsum("ja...,ja...->j...", np.conj(states[:-1]), states[1:])


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


def parallel_transport(states: np.ndarray) -> np.ndarray:
    """Rephase a (nodes, dim, ...) state stack by the cumulative sum of its step
    phases, so every step overlap is real and positive; the endpoints then
    carry the holonomy."""
    phases = np.angle(step_overlaps(states))
    accumulated = np.zeros((len(states),) + phases.shape[1:])
    np.cumsum(phases, axis=0, out=accumulated[1:])
    return states * np.exp(-1j * accumulated)[:, None]


@dataclass(frozen=True)
class PathStack:
    """k paths psi_k(t_j) on one grid as one (steps + 1, dim, k) stack, with
    every phase functional as an array over k.

    The step phases come from one `step_overlaps` call and are kept as one
    contiguous row per path, so each path's sums run pairwise over its own row
    and a row's values equal those of the path stacked alone.
    """

    grid: TimeGrid
    states: np.ndarray  # (steps + 1, dim, k)

    def __post_init__(self):
        object.__setattr__(self, "states", np.asarray(self.states))
        if self.states.ndim != 3 or len(self.states) != self.grid.steps + 1:
            raise DimensionError(f"path stack has shape {self.states.shape}")

    @property
    def size(self) -> int:
        return self.states.shape[-1]

    def require_orthonormal_start(self) -> None:
        """Raise ContractError unless the paths are orthonormal at t = 0 to 1e-10."""
        first = self.states[0]  # (dim, k)
        if not np.max(np.abs(np.conj(first.T) @ first - np.eye(self.size))) <= 1e-10:
            raise ContractError("paths must be orthonormal at t = 0")

    @cached_property
    def step_phases(self) -> np.ndarray:
        """arg<psi_k(t_j), psi_k(t_{j+1})> at every step, shape (k, steps)."""
        return np.ascontiguousarray(np.angle(step_overlaps(self.states)).T)

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
        """<psi_k(0), psi_k(T)> exp(-i sum_j arg<psi_k(t_j), psi_k(t_{j+1})>) per path:
        its argument is the geometric phase, unchanged by any rephasing
        psi_k -> e^{i alpha_k(t)} psi_k."""
        return self.endpoint_overlaps * np.exp(-1j * self.step_phases.sum(axis=1))

    @property
    def residuals(self) -> np.ndarray:
        """max over steps of |arg<psi_k(t_j), psi_k(t_{j+1})>| / dt (zero iff parallel
        transported)."""
        return np.max(np.abs(self.step_phases), axis=1) / self.grid.dt

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


def adiabatic_phase(H: HamiltonianTrajectory, grid: TimeGrid, level: int):
    """Adiabatic geometric and dynamical phases of one instantaneous level.

    The geometric phase is the argument of the holonomy (the Bargmann
    invariant) of the level's eigenvectors as `eigh` returns them: it is
    fixed under any rephasing, so no phase convention is imposed node by
    node; dynamical = -int E(t) dt.  Requires the level to stay separated
    from its neighbors by at least 1e-6 at every node, and every step
    overlap of its eigenvectors to keep a magnitude of at least 1e-8.
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

    level_path = PathStack(grid, vecs[:, :, level:level + 1])
    if not np.min(np.abs(step_overlaps(level_path.states))) >= 1e-8:
        raise DegeneracyError("eigenvector continuity lost between grid nodes")
    dyn = float(-trapezoid(vals[:, level], grid.dt))
    return float(np.angle(level_path.holonomies[0])), dyn
