"""Time-ordered propagation on a uniform grid.

The propagator is built step by step as U(t_{j+1}) = exp(-i H(t_j + dt/2) dt)
U(t_j): the midpoint-exponential product (lowest-order Magnus).  Every factor
is the exponential of a skew-Hermitian matrix, so unitarity is preserved by
construction and the global error is second order in dt.

`propagate` reads: sample H at the midpoints (validated finite and
Hermitian), the running products of the step exponentials (a recursively
blocked prefix product: `linalg.ordered_exponentials`, or at d = 2
`linalg.ordered_pairs`, which keeps them as Cayley-Klein pairs and phases),
and the `PropagatorPath` check that every U(t_j) is unitary to
`UNITARITY_TOL`.  At d = 2 the path holds the pairs, and U is formed as a
stack only when `matrices` is read.  The path hands its caller the midpoint
samples it was made from (`PropagatorPath.samples`): along step j the
propagated state moves by exp(-i H(t_{j+1/2}) s), so
<psi(t_j)| H(t_{j+1/2}) |psi(t_j)> dt is that step's exact connection
(`phases.PathStack.step_energies`), and H is sampled once per scenario.
U(t_0) = I exactly, or at d = 2 the SU(2) frame W of a given unit ket s,
whose columns U W carries to the paths of s and of a ket orthonormal to it;
the output is byte-deterministic.  The package's state trajectories are the
member paths psi_k = U|k> (`member_paths`), which every phase functional
and the mixed trace Tr[U(T) rho0] read as one `phases.PathStack`.  At
d = 2, the pairs, U W and the member paths are stored with each component
one contiguous row over the nodes; their shapes are as documented.  A
grid's `nodes` and `midpoints` are read-only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import linalg
from .exceptions import ContractError, DimensionError, NumericError
from .linalg import (ordered_exponentials, ordered_pairs, pair_norm_defect, require_hermitian,
                     unitarity_defect)

UNITARITY_TOL = 1e-9
HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class TimeGrid:
    """Uniform discretization of [t_start, t_end] into `steps` segments."""

    t_start: float
    t_end: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise DimensionError(f"steps must be >= 1, got {self.steps}")
        if not (np.isfinite(self.t_start) and np.isfinite(self.t_end)):
            raise NumericError("grid endpoints must be finite")
        if not self.t_end > self.t_start:
            raise DimensionError("t_end must exceed t_start")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / self.steps

    # the time arrays are read-only: `spin_model.RotatingField` knows them by identity

    @cached_property
    def nodes(self) -> np.ndarray:
        nodes = np.linspace(self.t_start, self.t_end, self.steps + 1)
        nodes.flags.writeable = False
        return nodes

    @cached_property
    def midpoints(self) -> np.ndarray:
        nodes = self.nodes
        midpoints = 0.5 * (nodes[:-1] + nodes[1:])
        midpoints.flags.writeable = False
        return midpoints

    @property
    def span(self) -> float:
        return self.t_end - self.t_start


@dataclass(frozen=True)
class HamiltonianTrajectory:
    """Deterministic map t -> Hermitian matrix (natural units, hbar = 1).

    `evaluate` is batched: it maps an array of n times to an (n, dim, dim)
    stack, so the propagator samples a whole grid in one call.  Models built
    from broadcasting expressions also map a scalar time to one matrix.
    """

    dim: int
    evaluate: Callable[[np.ndarray], np.ndarray]

    def sample(self, times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        out = np.asarray(self.evaluate(times), dtype=complex)
        if out.shape != (len(times), self.dim, self.dim):
            raise DimensionError(
                f"Hamiltonian samples have shape {out.shape}, "
                f"expected {(len(times), self.dim, self.dim)}"
            )
        try:
            return require_hermitian(out, HERMITICITY_TOL, "Hamiltonian evaluation")
        except ContractError:
            # a non-finite entry fails the norm check; name it, without a pass
            # over samples that passed
            if not np.all(np.isfinite(out)):
                raise NumericError("Hamiltonian evaluation produced non-finite entries") from None
            raise


@dataclass(frozen=True)
class PropagatorPath:
    """Unitaries U(t_j) on a grid, checked for shape and unitarity; in the
    package only `propagate` builds one, from U(t_0) = I exactly, or at dim 2
    from the frame W of a start ket.

    `stack` holds them as matrices, (steps + 1, dim, dim), or at dim 2 with
    `phases` as the Cayley-Klein pairs of
    U(t_j) W = e^{i phi_j} [[a_j, -conj(b_j)], [b_j, conj(a_j)]], an
    (steps + 1, 2) stack of (a_j, b_j) and the real phi_j, (steps + 1,).  W
    is the SU(2) frame [[s0, -conj(s1)], [s1, conj(s0)]] of the unit ket
    `frame` s, or I when `frame` is None, so e^{i phi_j} (a_j, b_j) is
    U(t_j)|s>.  Pairs are gated by |a_j|^2 + |b_j|^2 = 1:
    ||(UW)^dagger UW - I||_F is sqrt(2) | |a|^2 + |b|^2 - 1 | for such a
    matrix, whose off-diagonal Gram entry cancels, provided phi_j is finite;
    `norms` keeps those |a_j|^2 + |b_j|^2 (`phases.frame_energies` reads them).
    `matrices` forms U W from pairs on first read; `member_paths` reads the
    pairs themselves.  `samples` is H on the grid midpoints as `propagate`
    sampled and checked it, the one stack the path was made from (None on a
    path built from a given stack).
    """

    grid: TimeGrid
    stack: np.ndarray
    phases: np.ndarray | None = None
    samples: np.ndarray | None = field(default=None, repr=False, compare=False)
    frame: np.ndarray | None = None
    norms: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        U = np.asarray(self.stack)
        n = self.grid.steps + 1
        if self.phases is None:
            if U.ndim != 3 or U.shape[0] != n or U.shape[1] != U.shape[2]:
                raise DimensionError(f"propagator stack has shape {U.shape}")
            defect = unitarity_defect(U)
        else:
            phases = np.asarray(self.phases, dtype=float)
            if U.shape != (n, 2) or phases.shape != (n,):
                raise DimensionError(
                    f"Cayley-Klein pairs have shape {U.shape}, phases {phases.shape}"
                )
            object.__setattr__(self, "norms", linalg._pair_norms(U))
            defect = math.sqrt(2.0) * pair_norm_defect(self.norms)
            if not np.all(np.isfinite(phases)):
                defect = math.nan  # e^{i phi} is not a number
            object.__setattr__(self, "phases", phases)
        if not defect <= UNITARITY_TOL:  # a NaN defect fails too
            raise ContractError(f"propagator not unitary: defect {defect:.3e}")
        object.__setattr__(self, "stack", U)

    @cached_property
    def matrices(self) -> np.ndarray:
        """U, or U W, as a (steps + 1, dim, dim) stack, formed from pairs on first read."""
        if self.phases is None:
            return self.stack
        return linalg._two_level_matrices(self.stack, self.phases)

    @property
    def dim(self) -> int:
        return 2 if self.phases is not None else self.stack.shape[-1]


def propagate(H: HamiltonianTrajectory, grid: TimeGrid, start=None) -> PropagatorPath:
    """Integrate the time-ordered exponential of -i H(t) over the grid, from
    H sampled once at the midpoints; the path keeps those samples.  At dim 2
    it keeps the Cayley-Klein pairs and phases of the scan, started from the
    frame of the unit ket `start` when one is given (at dim 2 only)."""
    if start is not None and (H.dim != 2 or np.shape(start) != (2,)):
        raise DimensionError(f"a start ket frames a two-level path only: shape "
                             f"{np.shape(start)} at dim {H.dim}")
    samples = H.sample(grid.midpoints)
    if H.dim == 2:
        frame = None if start is None else np.asarray(start, dtype=complex)
        pairs, phases = ordered_pairs(samples, grid.dt, (1.0, 0.0) if frame is None else frame)
        return PropagatorPath(grid, pairs, phases, samples, frame)
    return PropagatorPath(grid, ordered_exponentials(samples, grid.dt), samples=samples)


_PARTNER_TOL = 1e-15  # |<s, k>| below which k is read as the frame's second column


def _frame_columns(U: PropagatorPath, states) -> list:
    """(column, t0, t1) for each ket k, a row of `states`, on a two-level path:
    t = W^dagger k = (conj(s0) k0 + conj(s1) k1, s0 k1 - s1 k0), its
    coordinates in the path's frame W, and the column of U W that is U(t_j)|k>
    up to the factor t1: 0 for the start ket s itself (t = (1, 0)), 1 for a
    ket orthonormal to it (|t0| <= 1e-15, and it then differs from t1 times
    that column by |t0| at most), None for any other ket."""
    s0, s1 = (1.0, 0.0) if U.frame is None else U.frame.tolist()
    out = []
    for k0, k1 in np.asarray(states, dtype=complex).tolist():
        if (k0, k1) == (s0, s1):
            out.append((0, 1.0, 0.0))
            continue
        t0, t1 = (k0, k1) if U.frame is None else (s0.conjugate() * k0 + s1.conjugate() * k1,
                                                   s0 * k1 - s1 * k0)
        out.append((1 if abs(t0) <= _PARTNER_TOL else None, t0, t1))
    return out


def member_paths(U: PropagatorPath, states: np.ndarray) -> np.ndarray:
    """psi_k(t_j) = U(t_j)|k> for the rows |k> of a (k, dim) array, as one
    (nodes, dim, k) stack: the package's one U|k> kernel, whose two-level
    paths `phases.frame_energies` reads off the same pairs.  On Cayley-Klein
    pairs it views a path-major (k, 2, nodes) buffer, filled from the columns
    of U W (`_frame_columns`): the start ket's path is the pairs (a, b)
    themselves, copied, an orthonormal ket's is t1 (-conj(b), conj(a)), and
    any other's takes the row multiply-adds (a t0 - conj(b) t1,
    b t0 + conj(a) t1) on its frame coordinates; all are times e^{i phi}
    unless every phi is zero.  A stack of matrices takes one GEMM."""
    states = np.asarray(states, dtype=complex)
    if states.ndim != 2 or states.shape[1] != U.dim:
        raise DimensionError(f"states have shape {states.shape}, expected (k, {U.dim})")
    if U.phases is None:
        d = U.dim
        return (U.stack.reshape(-1, d) @ states.T).reshape(-1, d, states.shape[0])
    out = np.empty((len(states), 2, U.grid.steps + 1), dtype=complex)
    a, b = U.stack[:, 0], U.stack[:, 1]
    for row, (column, t0, t1) in zip(out, _frame_columns(U, states)):
        if column == 0:
            row[...] = U.stack.T
            continue
        # -conj(b) t1 as conj(b) (-t1): the same real products, so the bits of U's rows
        np.conj(b, out=row[0])
        row[0] *= -t1
        np.conj(a, out=row[1])
        row[1] *= t1
        if column is None:
            row[0] += a * t0
            row[1] += b * t0
    if np.any(U.phases):
        out *= linalg._phase_factors(U.phases)
    return out.transpose(2, 1, 0)
