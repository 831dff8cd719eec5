"""Mixed-state machinery: ensembles, interference observables, transport
conditions, equivalence-class transforms, and purification.

The directly observable quantities are the total phase and the visibility of
Tr[U(T) rho0], for rho0 = sum_k w_k |k><k| the ensemble average
sum_k w_k <k|psi_k(T)> over the member paths psi_k = U|k> (`mixed_total_phase`),
with no density matrix formed.  Per-path phase transforms
U -> U sum_k e^{i theta_k} |k><k| leave the density-matrix orbit fixed but
shift both observables in a way computed here exactly; the Singh combination
sum_k w_k |<psi_k(0), psi_k(T)>| e^{i phi_g,k} is the invariant alternative,
from the Bargmann holonomies or from geometric phases the caller read off
the step energies (`phases.PathStack.curve_phases`).
Every time-dependent functional here reads the member paths as one
`phases.PathStack`, each weighted sum over them as its one `average`, and H,
where needed, as its samples: nothing here propagates or samples H.  A
per-path transform maps the stack to e^{i theta_k} psi_k (`transform_evolution`,
on the angles theta_k(t_j) at the grid nodes), the member paths of U', read
the same way for any ensemble.  The same call is the hidden gauge transform
of the frame psi_k, or of any PathStack, smooth or not, so `gauge_campaign`
reads each trial's one rephasing both ways, its connection off the rephased
states and the propagator's midpoint samples; the member paths are its frame,
and the paper's phase-stripped frame is a test oracle (`tests/oracles.py`).
`transport_conditions` gives both residuals from the member paths' step
energies, as `simulate` prints them.
A `DensityMatrix`, which serves purification only, keeps the ascending
spectrum and eigenvectors of the one `eigh` that checked it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    CapacityError,
    ContractError,
    DimensionError,
    UndefinedPhaseError,
)
from .gauge import GaugeFunction, frame_trace
from .numerics import wrap_angle
from .phases import PathStack

TRACE_FLOOR = 1e-12
WEIGHT_SUM_TOL = 1e-12  # |sum w_k - 1| allowed for the weights of an ensemble


def _frobenius(M: np.ndarray) -> float:
    """||M||_F of one matrix; NaN if an entry is."""
    return float(np.sqrt(np.vdot(M, M).real))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace matrix, with the ascending
    spectrum and eigenvectors of the one `np.linalg.eigh` that checked it."""

    matrix: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)
    eigenvectors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rho = np.asarray(self.matrix, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise DimensionError(f"density matrix must be square, got {rho.shape}")
        if not _frobenius(rho - np.conj(rho.T)) <= 1e-10:
            raise ContractError("density matrix not Hermitian to 1e-10")
        trace = np.trace(rho)
        if not (abs(trace.real - 1.0) <= 1e-10 and abs(trace.imag) <= 1e-10):
            raise ContractError(f"density matrix trace {trace:.12g} != 1")
        eigenvalues, eigenvectors = np.linalg.eigh(rho)
        if not eigenvalues[0] >= -1e-10:
            raise ContractError(f"density matrix has negative eigenvalue {eigenvalues[0]:.3e}")
        object.__setattr__(self, "matrix", rho)
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "eigenvectors", eigenvectors)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Ensemble:
    """Probabilities omega_k over orthonormal states |k>."""

    weights: np.ndarray
    states: np.ndarray  # (k, dim)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        s = np.asarray(self.states, dtype=complex)
        if w.ndim != 1 or s.ndim != 2 or s.shape[0] != w.shape[0]:
            raise DimensionError("ensemble weights and states are inconsistent")
        if not np.min(w) >= 0.0:
            raise ContractError("ensemble weights must be finite and nonnegative")
        if not abs(w.sum() - 1.0) <= WEIGHT_SUM_TOL:
            raise ContractError(f"ensemble weights sum to {w.sum():.15g}, not 1")
        gram = np.conj(s) @ s.T
        if not np.max(np.abs(gram - np.eye(s.shape[0]))) <= 1e-10:
            raise ContractError("ensemble states must be orthonormal to 1e-10")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "states", s)

    @property
    def size(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[1]


@dataclass(frozen=True)
class PurifiedState:
    """Coefficients a_{n,m} of a system (rows) + ancilla (columns) pure state."""

    coefficients: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.coefficients, dtype=complex)
        if a.ndim != 2:
            raise DimensionError("purified state coefficients must be a 2-D array")
        total = float(np.vdot(a, a).real)
        if not abs(total - 1.0) <= 1e-12:
            raise ContractError(f"purified state norm^2 = {total:.15g}, not 1")
        object.__setattr__(self, "coefficients", a)

    @property
    def system_dim(self) -> int:
        return self.coefficients.shape[0]

    @property
    def ancilla_dim(self) -> int:
        return self.coefficients.shape[1]


def mixed_total_phase(weights, kets, paths: PathStack):
    """Fringe shift and visibility, arg and |.| of Tr[U(T) rho0] = sum_k w_k <k|psi_k(T)>
    for rho0 = sum_k w_k |k><k|, from the kets |k> (rows) and the member paths psi_k."""
    if np.shape(kets) != (paths.size, paths.dim):
        raise DimensionError(f"need one ket per path, {(paths.size, paths.dim)}, "
                             f"got {np.shape(kets)}")
    tr = complex(paths.average(weights, np.einsum("ka,ak->k", np.conj(kets), paths.states[-1])))
    visibility = abs(tr)
    if visibility < TRACE_FLOOR:
        raise UndefinedPhaseError(
            f"visibility {visibility:.2e} is zero: the mixed total phase is undefined "
            "(zero visibility: the interference pattern is flat and carries no fringe shift)"
        )
    return float(np.angle(tr)), float(visibility)


def transform_evolution(paths: PathStack, angles) -> PathStack:
    """psi_k(t_j) -> e^{i angles[k, j]} psi_k(t_j), one row of node angles per
    path: on the member paths psi_k = U|k> of a basis the per-path transform
    U -> U sum_k e^{i theta_k} |k><k|, on a frame the hidden gauge transform,
    which keeps every Gram entry to rounding and so is not checked again."""
    angles, shape = np.asarray(angles, dtype=float), (paths.size, paths.grid.steps + 1)
    if angles.shape != shape:
        raise DimensionError(f"need one angle per path and node, {shape}, got {angles.shape}")
    return PathStack(paths.grid, paths.states * np.exp(1j * angles).T[:, None, :])


def singh_phase(weights, paths: PathStack, geometric) -> float:
    """arg sum_k w_k |<psi_k(0), psi_k(T)>| e^{i phi_g,k}, with phi_g,k =
    geometric[k]: as `PathStack.curve_phases` reads them off the step
    energies, or the arguments of the Bargmann `PathStack.holonomies`, whose
    moduli are the same |<psi_k(0), psi_k(T)>|.

    Invariant under independent time-dependent phase transforms of each path
    when `geometric` is.
    """
    geometric = np.asarray(geometric, dtype=float)
    if geometric.shape != (paths.size,):
        raise DimensionError(f"need one geometric phase per path, {(paths.size,)}, "
                             f"got {geometric.shape}")
    terms = np.abs(paths.endpoint_overlaps) * np.exp(1j * geometric)
    total = paths.average(weights, terms)
    if not abs(np.sum(weights) - 1.0) <= WEIGHT_SUM_TOL:
        raise ContractError("weights must be normalized")
    paths.require_orthonormal_start()
    if abs(total) < TRACE_FLOOR:
        raise UndefinedPhaseError("Singh-phase sum has vanishing magnitude")
    return float(np.angle(total))


def gauge_campaign(weights, members: PathStack, samples: np.ndarray, energies: np.ndarray,
                   rng: np.random.Generator, trials: int, gauge_scale: float) -> dict:
    """Base observables and worst deviations over `trials` random gauges, by name.

    `members` holds the member paths psi_k = U|k> that `evolution.propagate`
    made from `samples`, H on the grid midpoints (`PropagatorPath.samples`),
    for any ensemble, whose kets |k> are read as psi_k(0), and `energies`
    their step energies on those samples, as `simulate` reads them
    (`PathStack.step_energies`, or `phases.frame_energies`).  Every phase is
    read off step energies, the base ones off `energies`, so the base Singh
    phase is `simulate`'s.  Per trial one ramped gauge
    theta_k(t) is drawn, evaluated once on the grid nodes (theta(0), theta(T)
    are its first and last angles), and applied once by
    `transform_evolution`.  Taken as linear within each step, it makes the
    rephased stack psi'_k the curve of H - d theta_k / dt, so its step
    energies are read off psi'_k itself as
    <psi'_k(t_j)| H(t_{j+1/2}) |psi'_k(t_j)> - (theta_k(t_{j+1}) - theta_k(t_j)) / dt,
    never as the base ones plus a predicted shift.  psi'_k is read two ways:
    as a hidden gauge of the frame psi_k, it must leave `gauge.frame_trace`
    (the Bargmann holonomies times exp(i phi_d) of the energies under H),
    the Bargmann holonomies and the Singh phase fixed; as the member paths of
    U' = U sum_k e^{i theta_k} |k><k|, it must shift gamma_T, gamma_D as
    predicted from theta(0), theta(T).  gamma_T is read as
    `mixed_total_phase` of the base kets |k> against psi'_k(T), the base
    gamma_T by the same call, so a zero gauge shifts nothing.  Scale 0: zero
    angles, no draws.
    """
    ensemble = Ensemble(weights, members.states[0].T)  # the kets |k> = psi_k(0)
    grid, weights, kets = members.grid, ensemble.weights, ensemble.states

    base_d, base_g = members.curve_phases(energies)
    base_trace = frame_trace(members, base_d, weights)
    base_singh = singh_phase(weights, members, base_g)
    base_gamma, base_vis = mixed_total_phase(weights, kets, members)
    base_dyn = float(members.average(weights, base_d))
    diag_UT = members.endpoint_overlaps  # <k|U(T)|k>, as psi_k(0) = |k>

    worst = np.zeros(8)  # the running maxima, in output order
    for _ in range(trials):
        if gauge_scale == 0.0:
            theta = np.zeros((members.size, grid.steps + 1))
        else:
            theta = GaugeFunction.random(members.size, grid.span, rng, scale=gauge_scale,
                                         slope_scale=2.0 * gauge_scale).value(grid.nodes)
        shifted = transform_evolution(members, theta)  # e^{i theta_k} psi_k
        energies = shifted.step_energies(samples)
        tr = frame_trace(shifted, shifted.curve_phases(energies)[0], weights)
        energies -= np.diff(theta, axis=1) / grid.dt  # the curve of H - d theta / dt
        shifted_d, shifted_g = shifted.curve_phases(energies)
        theta_0, theta_T = theta[:, 0], theta[:, -1]
        predicted_gamma = np.angle(members.average(weights, diag_UT * np.exp(1j * theta_T)))
        observed_gamma, _ = mixed_total_phase(weights, kets, shifted)
        observed_dyn = float(members.average(weights, shifted_d))
        predicted_dyn = base_dyn + float(members.average(weights, theta_T - theta_0))

        np.maximum(worst, [
            abs(wrap_angle(np.angle(tr) - np.angle(base_trace))),
            abs(abs(tr) - abs(base_trace)),
            np.max(np.abs(shifted.holonomies - members.holonomies)),
            abs(wrap_angle(singh_phase(weights, shifted, shifted_g) - base_singh)),
            abs(wrap_angle(observed_gamma - predicted_gamma)),
            abs(observed_dyn - predicted_dyn),
            abs(wrap_angle(observed_gamma - base_gamma)),
            abs(observed_dyn - base_dyn),
        ], out=worst)

    names = ("max_gamma_total_deviation", "max_visibility_deviation",
             "max_holonomy_deviation", "max_singh_deviation",
             "max_total_phase_prediction_mismatch", "max_dynamical_phase_prediction_mismatch",
             "max_naive_total_phase_shift", "max_naive_dynamical_phase_shift")
    return {"gamma_total": base_gamma, "visibility": base_vis, "singh_phase": base_singh,
            **dict(zip(names, worst.tolist()))}


def transport_conditions(weights, members: PathStack, energies: np.ndarray):
    """(weak, per-state strong residuals) from the step energies
    e_kj = <psi_k(t_j)| H(t_{j+1/2}) |psi_k(t_j)> of the member paths
    psi_k = U|k> (`PathStack.step_energies`), with weight w_k each.

    weak: max_j |sum_k w_k e_kj|, the step form of max |Tr rho0 U^dagger dU/dt|;
    strong: per k, max_j |e_kj|, that of max |<k| U^dagger dU/dt |k>|.
    """
    weak = float(np.max(np.abs(members.average(weights, energies))))
    return weak, np.max(np.abs(energies), axis=1)


def reduce(pure: PurifiedState) -> DensityMatrix:
    """Partial trace over the ancilla index: rho_{n,l} = sum_m a_{n,m} conj(a_{l,m})."""
    a = pure.coefficients
    return DensityMatrix(a @ np.conj(a.T))


def purify(
    rho: DensityMatrix, ancilla_dim: int, ancilla_unitary: np.ndarray | None = None
) -> PurifiedState:
    """Canonical purification a = V sqrt(lambda) in the eigenbasis of rho.

    Eigenvalues are placed in descending order on the ancilla index, so the
    Schmidt coefficients come out sorted.  Any other purification is reachable
    by the optional right-unitary on the ancilla index.
    """
    vals, vecs = np.clip(rho.eigenvalues[::-1], 0.0, None), rho.eigenvectors[:, ::-1]
    rank = int(np.sum(vals > 1e-12))
    if ancilla_dim < rank:
        raise CapacityError(
            f"ancilla dimension {ancilla_dim} < rank(rho) = {rank}"
        )
    keep = min(ancilla_dim, rho.dim)
    a = np.zeros((rho.dim, ancilla_dim), dtype=complex)
    a[:, :keep] = vecs[:, :keep] * np.sqrt(vals[:keep])[None, :]
    a /= np.sqrt(np.sum(np.abs(a) ** 2))
    if ancilla_unitary is not None:
        W = np.asarray(ancilla_unitary, dtype=complex)
        if W.shape != (ancilla_dim, ancilla_dim):
            raise DimensionError("ancilla unitary has the wrong shape")
        if not _frobenius(np.conj(W.T) @ W - np.eye(ancilla_dim)) <= 1e-10:
            raise ContractError("ancilla transform must be unitary")
        a = a @ W
    return PurifiedState(a)


def hidden_gauge_transform(
    pure: PurifiedState, phases, basis: np.ndarray
) -> PurifiedState:
    """Multiply each ensemble member |n> by the constant phase e^{i alpha_n}.

    `basis` holds the member states as columns; the reduced density matrix is
    unchanged whenever it is diagonal in that basis.
    """
    phases = np.asarray(phases, dtype=float)
    B = np.asarray(basis, dtype=complex)
    if B.shape != (pure.system_dim, pure.system_dim) or phases.shape != (pure.system_dim,):
        raise DimensionError("need one phase per system basis column")
    D = B @ np.diag(np.exp(1j * phases)) @ np.conj(B.T)
    return PurifiedState(D @ pure.coefficients)
