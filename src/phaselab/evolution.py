"""Time-ordered propagation on a uniform grid.

The propagator is built step by step as U(t_{j+1}) = exp(-i H(t_j + dt/2) dt)
U(t_j): the midpoint-exponential product (lowest-order Magnus).  Every factor
is the exponential of a skew-Hermitian matrix, so unitarity is preserved by
construction and the global error is second order in dt.

`propagate` reads: sample H at the midpoints (validated finite and
Hermitian), the running products of the step exponentials
(`linalg.ordered_exponentials`: a recursively blocked prefix product, which
keeps two-level steps and products in Cayley-Klein form, pairs (a, b) and a
real phase, and forms U once), and the `PropagatorPath` check that every
U(t_j) is unitary to `UNITARITY_TOL`.  U(t_0) = I exactly, and the output is
byte-deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .exceptions import ContractError, DimensionError, NumericError
from .linalg import ordered_exponentials, require_hermitian, unitarity_defect

UNITARITY_TOL = 1e-9
NORM_TOL = 1e-9
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

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.steps + 1)

    @cached_property
    def midpoints(self) -> np.ndarray:
        nodes = self.nodes
        return 0.5 * (nodes[:-1] + nodes[1:])

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
        if not np.all(np.isfinite(out)):
            raise NumericError("Hamiltonian evaluation produced non-finite entries")
        return require_hermitian(out, HERMITICITY_TOL, "Hamiltonian evaluation")


@dataclass(frozen=True)
class PropagatorPath:
    """Unitaries U(t_j) on a grid, checked for shape and unitarity.

    `propagate` builds every path from U(t_0) = I exactly; a gauge-transformed
    evolution (`mixed.transform_evolution`) starts at a diagonal phase matrix.
    """

    grid: TimeGrid
    matrices: np.ndarray  # (steps + 1, dim, dim)

    def __post_init__(self):
        U = np.asarray(self.matrices)
        if U.ndim != 3 or U.shape[0] != self.grid.steps + 1 or U.shape[1] != U.shape[2]:
            raise DimensionError(f"propagator stack has shape {U.shape}")
        defect = unitarity_defect(U)
        if not defect <= UNITARITY_TOL:  # a NaN defect fails too
            raise ContractError(f"propagator not unitary: defect {defect:.3e}")
        object.__setattr__(self, "matrices", U)

    @property
    def dim(self) -> int:
        return self.matrices.shape[-1]

    @property
    def final(self) -> np.ndarray:
        return self.matrices[-1]


@dataclass(frozen=True)
class AmplitudePath:
    """Normalized state trajectory psi(t_j) on a grid."""

    grid: TimeGrid
    states: np.ndarray  # (steps + 1, dim)

    def __post_init__(self):
        psi = np.asarray(self.states)
        if psi.ndim != 2 or psi.shape[0] != self.grid.steps + 1:
            raise DimensionError(f"state stack has shape {psi.shape}")
        norms = np.linalg.norm(psi, axis=1)
        worst = float(np.max(np.abs(norms - 1.0)))
        if not worst <= NORM_TOL:
            raise ContractError(f"amplitude path not normalized: |norm-1| up to {worst:.3e}")
        object.__setattr__(self, "states", psi)

    @property
    def dim(self) -> int:
        return self.states.shape[-1]

    @property
    def initial(self) -> np.ndarray:
        return self.states[0]

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def propagate(H: HamiltonianTrajectory, grid: TimeGrid) -> PropagatorPath:
    """Integrate the time-ordered exponential of -i H(t) over the grid."""
    return PropagatorPath(grid, ordered_exponentials(H.sample(grid.midpoints), grid.dt))


def member_paths(U: PropagatorPath, states: np.ndarray) -> np.ndarray:
    """psi_k(t_j) = U(t_j)|k> for the rows |k> of a (k, dim) array, as one
    (nodes, dim, k) stack from one GEMM: the package's one U|k> kernel."""
    states = np.asarray(states, dtype=complex)
    if states.ndim != 2 or states.shape[1] != U.dim:
        raise DimensionError(f"states have shape {states.shape}, expected (k, {U.dim})")
    d = U.dim
    return (U.matrices.reshape(-1, d) @ states.T).reshape(-1, d, states.shape[0])


def amplitude_path(U: PropagatorPath, initial: np.ndarray) -> AmplitudePath:
    """Schroedinger amplitude psi(t_j) = U(t_j) psi(0) for a normalized start:
    the one-column case of `member_paths`."""
    initial = np.asarray(initial, dtype=complex)
    if initial.shape != (U.dim,):
        raise DimensionError(
            f"initial state has shape {initial.shape}, expected ({U.dim},)"
        )
    if not abs(np.linalg.norm(initial) - 1.0) <= 1e-12:
        raise ContractError("initial state must be normalized to 1e-12")
    return AmplitudePath(U.grid, member_paths(U, initial[None, :])[..., 0])
