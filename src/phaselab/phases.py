"""Phase functionals for pure-state trajectories.

Conventions (shared package-wide): the total phase is arg<psi(0), psi(T)>,
the dynamical phase is phi_D = -int <psi|H|psi> dt, and the geometric phase
is their difference, equivalently the argument of the holonomy
<psi(0), psi(T)> exp[i int <psi| i d/dt psi> dt].  Reported angles are
wrapped to (-pi, pi]; accumulated integrals (the dynamical phase) are not.
Nothing here samples or propagates H; it comes in as samples on the grid.

Two connections are read off grid states.  For any path, the step phases
phi_j = arg<psi_j, psi_{j+1}> (`step_overlaps`) give the Bargmann invariant
<psi_0, psi_N> exp(-i sum_j phi_j), the holonomy of the geodesic polygon
through the node rays, which any rephasing psi_j -> e^{i alpha_j} psi_j
leaves exactly fixed on the grid, since each phi_j shifts by
alpha_{j+1} - alpha_j modulo 2 pi and the sum telescopes: no basis gauge is
ever fixed.  Every dynamical phase is read off the step energies
e_j = <psi_j| H(t_{j+1/2}) |psi_j> on H's midpoint samples (`step_energies`).
For the paths the propagator made from those samples, whose step j is
psi(t_j + s) = exp(-i H(t_{j+1/2}) s) psi(t_j), e_j dt is that curve's exact
connection (Aharonov and Anandan, PRL 58, 1593 (1987), in the kinematic form
of Mukunda and Simon, Ann. Phys. 228, 205 (1993)), and on any other path a
second-order estimate of it: phi_d = -dt sum_j e_j and
phi_g = wrap(phi_t - phi_d) (`curve_phases`) carry no polygon term.

`PathStack` holds k paths on one grid as one (nodes, dim, k) stack, the layout
of `evolution.member_paths`, and gives every functional above as an array over
k from one set of step phases or step energies.  It is the one path argument
of every phase functional; a single path is the stack with k = 1, and a path
is named by its position k in the stack.  `gauge` reads a frame as a
PathStack, and `mixed` reads the record too, each ensemble average
sum_k w_k x_k through `average`.  The kernels on raw state stacks
(step overlaps and energy expectation) serve all three modules; for two-level
states they are written entry by entry, one row per path and component,
contiguous in the path-major stacks of `evolution.member_paths`.  A
two-level propagator's member paths have their step energies read off its
Cayley-Klein pairs instead, both columns of its frame in one pass
(`frame_energies`).
`adiabatic_phase` reads the holonomy of an instantaneous level's eigenvectors
as `eigh` returns them, and integrates its energy over H's node samples
(`check_node_samples`) by the trapezoidal rule.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .evolution import PropagatorPath, TimeGrid, _frame_columns
from .exceptions import ContractError, DegeneracyError, DimensionError, UndefinedPhaseError
from .numerics import trapezoid, wrap_angle

OVERLAP_FLOOR = 1e-12


def step_overlaps(states: np.ndarray) -> np.ndarray:
    """<v_j, v_{j+1}> on a (nodes, dim, ...) stack: the vector is axis 1, so k
    paths stacked as (nodes, dim, k) give (nodes - 1, k).  For dim 2 each
    path's overlaps fill one row, from its two component rows, and the result
    is a transposed view; other dimensions take one einsum."""
    states = np.asarray(states)
    if states.shape[1] != 2:
        return np.einsum("ja...,ja...->j...", np.conj(states[:-1]), states[1:])
    out = np.empty(states.shape[2:] + (len(states) - 1,), dtype=np.result_type(states, complex))
    for k in np.ndindex(states.shape[2:]):
        a, b, row = states[(slice(None), 0, *k)], states[(slice(None), 1, *k)], out[k]
        np.multiply(np.conj(a[:-1]), a[1:], out=row)
        row += np.conj(b[:-1]) * b[1:]
    return np.moveaxis(out, -1, 0)


def check_node_samples(samples: np.ndarray, grid: TimeGrid, dim: int) -> None:
    """Raise DimensionError unless `samples` has the shape of H on the grid nodes."""
    expected = (grid.steps + 1, dim, dim)
    if np.shape(samples) != expected:
        raise DimensionError(f"H samples have shape {np.shape(samples)}, expected {expected}")


def state_energies(states: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """<v_j| H_j |v_j>, real part, on a (n, dim, ...) state stack and n H
    samples (n, dim, dim), as `PathStack.step_energies` pairs each node with
    the midpoint after it: k paths stacked as (n, dim, k) give (n, k).

    For dim 2, with v = (a, b) and z = conj(a) b, it is written entry by entry
    as |a|^2 Re h00 + |b|^2 Re h11
    + Re z (Re h01 + Re h10) + Im z (Im h10 - Im h01): the exact real part of
    the full form, so H need not be exactly Hermitian.  The diagonal of H is
    read in place and its two off-diagonal real rows are formed once for all
    paths; every path's terms are computed in one complex and one real row
    buffer, reused from path to path.  Other dimensions take one einsum per
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
    h00, h01, h10, h11 = samples[:, 0, 0].real, samples[:, 0, 1], samples[:, 1, 0], samples[:, 1, 1].real
    re_sum, im_diff = h01.real + h10.real, h10.imag - h01.imag
    z, part = np.empty(len(states), dtype=complex), np.empty(len(states))  # reused by every path
    for k in paths:
        a, b = states[(slice(None), 0, *k)], states[(slice(None), 1, *k)]
        row = out[k]
        np.conj(a, out=z)
        z *= a  # |a|^2 as Re conj(a) a, the complex product
        np.multiply(z.real, h00, out=row)
        np.multiply(b.real, b.real, out=part)
        np.multiply(b.imag, b.imag, out=z.real)
        part += z.real
        part *= h11
        row += part
        np.conj(a, out=z)
        z *= b
        np.multiply(z.real, re_sum, out=part)
        row += part
        np.multiply(z.imag, im_diff, out=part)
        row += part
    return np.moveaxis(out, -1, 0)


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

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def average(self, weights, values):
        """The ensemble average sum_k w_k x_k of per-path values x_k = values[k];
        raises DimensionError unless there is one weight per path."""
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (self.size,):
            raise DimensionError(f"need one weight per path, {(self.size,)}, got {weights.shape}")
        return weights @ values

    def require_orthonormal_start(self) -> None:
        """Raise ContractError unless the paths are orthonormal at t = 0 to 1e-10."""
        first = self.states[0]  # (dim, k)
        if not np.max(np.abs(np.conj(first.T) @ first - np.eye(self.size))) <= 1e-10:
            raise ContractError("paths must be orthonormal at t = 0")

    @cached_property
    def step_phases(self) -> np.ndarray:
        """arg<psi_k(t_j), psi_k(t_{j+1})> at every step, shape (k, steps)."""
        return np.ascontiguousarray(np.angle(step_overlaps(self.states).T))

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

    def step_energies(self, samples: np.ndarray) -> np.ndarray:
        """e_kj = <psi_k(t_j)| H(t_{j+1/2}) |psi_k(t_j)> for j < steps, shape
        (k, steps), from `samples`, H on the grid midpoints: on the paths the
        propagator made from those samples, e_kj dt is the exact connection of
        step j, and on any other path a second-order estimate of it."""
        if samples is None:  # PropagatorPath.samples, of a path `propagate` did not make
            raise DimensionError("the path has no midpoint samples: `propagate` did not make it")
        expected = (self.grid.steps, self.dim, self.dim)
        if np.shape(samples) != expected:
            raise DimensionError(f"midpoint samples have shape {np.shape(samples)}, "
                                 f"expected {expected}")
        return np.ascontiguousarray(state_energies(self.states[:-1], samples).T)

    def curve_phases(self, energies: np.ndarray):
        """(phi_d, phi_g) per path from its step energies (`step_energies`):
        phi_d = -dt sum_j e_kj (unwrapped) and phi_g = wrap(phi_t - phi_d),
        with phi_t = arg<psi_k(0), psi_k(T)>."""
        phi_d = -self.grid.dt * energies.sum(axis=1)
        return phi_d, wrap_angle(np.angle(self.endpoint_overlaps) - phi_d)


def frame_energies(U: PropagatorPath, kets) -> np.ndarray:
    """The step energies e_kj = <psi_k(t_j)| H(t_{j+1/2}) |psi_k(t_j)>, shape
    (k, steps), of the member paths `evolution.member_paths(U, kets)` of a
    two-level path that `propagate` made, whose kets are its start ket or
    orthonormal to it (`evolution._frame_columns`): the first column (a, b)
    of U W and, times a unit factor, the second, (-conj(b), conj(a)).  One
    pass over the pairs gives both, with A = |a|^2, z = conj(a) b and
    t = A (h00 - h11) + Re z (Re h01 + Re h10) + Im z (Im h10 - Im h01):
    e = (A + B) h11 + t and (A + B) h00 - t, on the A + B = |a|^2 + |b|^2
    the unitarity gate formed (`PropagatorPath.norms`).  e^{i phi_j} cancels;
    `PathStack.step_energies` of those paths agrees to rounding.
    """
    if U.phases is None or U.samples is None:
        raise DimensionError("frame energies need the pairs and samples of `propagate` at dim 2")
    columns = [column for column, _, _ in _frame_columns(U, kets)]
    if None in columns:
        raise ContractError("frame energies need the start ket or kets orthonormal to it")
    n, samples = U.grid.steps, U.samples
    a, b, norms = U.stack[:n, 0], U.stack[:n, 1], U.norms[:n]
    h00, h01, h10, h11 = samples[:, 0, 0].real, samples[:, 0, 1], samples[:, 1, 0], samples[:, 1, 1].real
    part = np.empty(n)
    t = np.multiply(a.real, a.real)  # t = A (h00 - h11) + X
    t += np.multiply(a.imag, a.imag, out=part)
    t *= np.subtract(h00, h11, out=part)
    z = np.conj(a)
    z *= b
    t += np.multiply(z.real, np.add(h01.real, h10.real, out=part), out=part)
    t += np.multiply(z.imag, np.subtract(h10.imag, h01.imag, out=part), out=part)
    del z
    out = np.empty((len(columns), n))
    for row, column in zip(out, columns):  # e = (A + B) h11 + t, or (A + B) h00 - t
        np.multiply(norms, h00 if column else h11, out=row)
        if column:
            row -= t
        else:
            row += t
    return out


def adiabatic_phase(samples: np.ndarray, grid: TimeGrid, level: int):
    """Adiabatic geometric and dynamical phases of one instantaneous level of
    H, from its samples on the grid nodes.

    The geometric phase is the argument of the holonomy (the Bargmann
    invariant) of the level's eigenvectors as `eigh` returns them: it is
    fixed under any rephasing, so no phase convention is imposed node by
    node; dynamical = -int E(t) dt.  Requires the level to stay separated
    from its neighbors by at least 1e-6 at every node, and every step
    overlap of its eigenvectors to keep a magnitude of at least 1e-8.
    """
    dim = np.shape(samples)[-1] if np.ndim(samples) else 0
    check_node_samples(samples, grid, dim)
    vals, vecs = np.linalg.eigh(samples)  # batched, ascending eigenvalues
    if not 0 <= level < dim:
        raise DimensionError(f"level {level} outside 0..{dim - 1}")
    gaps = np.diff(vals, axis=1)
    if level > 0 and np.min(gaps[:, level - 1]) < 1e-6:
        raise DegeneracyError(f"level {level} closes on level {level - 1}")
    if level < dim - 1 and np.min(gaps[:, level]) < 1e-6:
        raise DegeneracyError(f"level {level} closes on level {level + 1}")

    level_path = PathStack(grid, vecs[:, :, level:level + 1])
    if not np.min(np.abs(step_overlaps(level_path.states))) >= 1e-8:
        raise DegeneracyError("eigenvector continuity lost between grid nodes")
    dyn = float(-trapezoid(vals[:, level], grid.dt))
    return float(np.angle(level_path.holonomies[0])), dyn
