"""Mixed-state machinery: density matrices, interference observables,
transport conditions, equivalence-class transforms, and purification.

The directly observable quantities are the total phase arg Tr[U(T) rho(0)]
and the visibility |Tr[U(T) rho(0)]|.  Per-path phase transforms
U -> U sum_k e^{i theta_k} |k><k| leave the density-matrix orbit fixed but
shift both observables in a way computed here exactly; the Singh combination
of endpoint overlaps and step-phase sums is the invariant alternative.
Transport conditions, the mixed dynamical phase, the Singh phase and
`gauge_campaign` read the member paths psi_k = U|k> as one `phases.PathStack`,
and H, where needed, as its node samples: nothing here propagates or samples
H.  A per-path transform maps the stack to e^{i theta_k} psi_k
(`transform_evolution`, on the angles theta_k(t_j) at the grid nodes): over a
complete basis U = sum_k psi_k <k|, so the rephased stack is the whole
transformed evolution.  The same call is the hidden gauge transform
v_k -> e^{i alpha_k} v_k of a `gauge.BasisFrame`: it is the one rephasing of
any PathStack, member paths and frames alike, smooth or not.
`transport_conditions` and `singh_phase` take that stack and the ensemble
weights, so a caller that holds it pays for its step overlaps once; one
`transport_conditions` call gives both residuals and gamma_D from its step
phases, which that transform shifts by theta_k(t_{j+1}) - theta_k(t_j).
`purify` takes rho's eigenvectors as `eigh` returns them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    CapacityError,
    ContractError,
    DimensionError,
    UndefinedPhaseError,
)
from .gauge import GaugeFunction, frame_from_amplitudes, frame_trace
from .linalg import hermiticity_defect, unitarity_defect
from .numerics import wrap_angle
from .phases import PathStack

TRACE_FLOOR = 1e-12
WEIGHT_SUM_TOL = 1e-12  # |sum w_k - 1| allowed for the weights of an ensemble


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.matrix, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise DimensionError(f"density matrix must be square, got {rho.shape}")
        if not hermiticity_defect(rho) <= 1e-10:
            raise ContractError("density matrix not Hermitian to 1e-10")
        if not (abs(np.trace(rho).real - 1.0) <= 1e-10 and abs(np.trace(rho).imag) <= 1e-10):
            raise ContractError(f"density matrix trace {np.trace(rho):.12g} != 1")
        eigenvalues = np.linalg.eigvalsh(rho)
        if not np.min(eigenvalues) >= -1e-10:
            raise ContractError(
                f"density matrix has negative eigenvalue {np.min(eigenvalues):.3e}"
            )
        object.__setattr__(self, "matrix", rho)

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
        total = float(np.sum(np.abs(a) ** 2))
        if not abs(total - 1.0) <= 1e-12:
            raise ContractError(f"purified state norm^2 = {total:.15g}, not 1")
        object.__setattr__(self, "coefficients", a)

    @property
    def system_dim(self) -> int:
        return self.coefficients.shape[0]

    @property
    def ancilla_dim(self) -> int:
        return self.coefficients.shape[1]


def density_from_ensemble(e: Ensemble) -> DensityMatrix:
    """rho = sum_k omega_k |k><k|."""
    rho = np.einsum("k,ka,kb->ab", e.weights, e.states, np.conj(e.states))
    return DensityMatrix(rho)


def mixed_total_phase(rho0: DensityMatrix, U_T: np.ndarray):
    """(arg Tr[U_T rho0], |Tr[U_T rho0]|): fringe shift and visibility."""
    U_T = np.asarray(U_T, dtype=complex)
    if U_T.shape != (rho0.dim, rho0.dim):
        raise DimensionError(f"unitary shape {U_T.shape} != density dim {rho0.dim}")
    tr = complex(np.trace(U_T @ rho0.matrix))
    visibility = abs(tr)
    if visibility < TRACE_FLOOR:
        raise UndefinedPhaseError(
            f"visibility {visibility:.2e} is zero: the mixed total phase is undefined"
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


def singh_phase(weights, paths: PathStack) -> float:
    """arg sum_k w_k <psi_k(0), psi_k(T)> exp(-i sum_j arg<psi_k(t_j), psi_k(t_{j+1})>).

    Invariant under independent time-dependent phase transforms of each path.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (paths.size,):
        raise DimensionError("one weight per path required")
    if not abs(weights.sum() - 1.0) <= WEIGHT_SUM_TOL:
        raise ContractError("weights must be normalized")
    paths.require_orthonormal_start()
    total = np.sum(weights * paths.holonomies)
    if abs(total) < TRACE_FLOOR:
        raise UndefinedPhaseError("Singh-phase sum has vanishing magnitude")
    return float(np.angle(total))


def gauge_campaign(weights, members: PathStack, samples: np.ndarray, rng: np.random.Generator,
                   trials: int, gauge_scale: float) -> dict:
    """Base observables and worst deviations over `trials` random gauges, by name.

    `members` holds the member paths psi_k = U|k> of any complete basis,
    propagated or closed-form, whose kets |k> are read as psi_k(0), and
    `samples` H on the grid nodes.  Per trial, both gauges applied by
    `transform_evolution`: a periodic frame gauge must leave the frame trace
    and the holonomies fixed; a ramped gauge theta_k(t) must leave the Singh
    phase fixed and shift gamma_T, gamma_D of U' = U sum_k e^{i theta_k} |k><k|
    as predicted from theta(0), theta(T).  Each drawn gauge is evaluated once,
    on the grid nodes, so theta(0), theta(T) are its first and last angles.
    Every ramped-gauge observable is read off the rephased member paths
    psi'_k = U'|k>, gamma_T from U'(T) = sum_k psi'_k(T)<k| over the complete
    basis, and the base gamma_T by the same form, so a zero gauge shifts
    nothing.  Scale 0: zero angles, no draws.
    """
    if members.size != members.dim:
        raise DimensionError(
            f"basis with {members.size} states cannot span dimension {members.dim}")
    ensemble = Ensemble(weights, members.states[0].T)  # the kets |k> = psi_k(0)
    grid = members.grid
    weights = ensemble.weights
    bras = np.conj(ensemble.states)  # rows <k|
    rho0 = density_from_ensemble(ensemble)
    frame = frame_from_amplitudes(members)
    base_trace = frame_trace(frame, samples, weights)
    base_singh = singh_phase(weights, members)
    base_gamma, base_vis = mixed_total_phase(rho0, members.states[-1] @ bras)
    base_dyn = transport_conditions(weights, members)[2]
    diag_UT = members.endpoint_overlaps  # <k|U(T)|k>, as psi_k(0) = |k>

    def draw(slope_scale):
        """A drawn gauge's angles on the grid nodes; zeros, drawing nothing, at scale 0."""
        if gauge_scale == 0.0:
            return np.zeros((members.size, grid.steps + 1))
        return GaugeFunction.random(members.size, grid.span, rng, scale=gauge_scale,
                                    slope_scale=slope_scale).value(grid.nodes)

    worst = np.zeros(8)  # the running maxima, in output order
    for _ in range(trials):
        gauged = transform_evolution(frame, draw(0.0))
        tr = frame_trace(gauged, samples, weights)

        ramped = draw(2.0 * gauge_scale)
        shifted = transform_evolution(members, ramped)  # e^{i theta_k} psi_k
        theta_0, theta_T = ramped[:, 0], ramped[:, -1]
        predicted_gamma = float(np.angle(np.sum(weights * diag_UT * np.exp(1j * theta_T))))
        observed_gamma, _ = mixed_total_phase(rho0, shifted.states[-1] @ bras)
        observed_dyn = transport_conditions(weights, shifted)[2]
        predicted_dyn = base_dyn + float(np.sum(weights * (theta_T - theta_0)))

        np.maximum(worst, [
            abs(wrap_angle(np.angle(tr) - np.angle(base_trace))),
            abs(abs(tr) - abs(base_trace)),
            np.max(np.abs(gauged.holonomies - frame.holonomies)),
            abs(wrap_angle(singh_phase(weights, shifted) - base_singh)),
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


def transport_conditions(weights, members: PathStack):
    """(weak, per-state strong residuals, gamma_D) from one set of step phases
    phi_kj = arg<psi_k(t_j), psi_k(t_{j+1})> of the member paths psi_k = U|k>,
    with weight w_k each.

    weak: max_j |sum_k w_k phi_kj| / dt, the step form of max |Tr rho0 U^dagger dU/dt|;
    strong: per k, max_j |phi_kj| / dt, that of max |<k| U^dagger dU/dt |k>| (equal
    to the energy expectation along psi_k); gamma_D = sum_k w_k sum_j phi_kj, the
    step form of -i int Tr[rho0 U^dagger dU/dt] dt.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (members.size,):
        raise DimensionError("one weight per member path required")
    phases = members.step_phases
    weak = float(np.max(np.abs(weights @ phases))) / members.grid.dt
    return weak, members.residuals, float(weights @ phases.sum(axis=1))


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
    vals, vecs = np.linalg.eigh(rho.matrix)  # ascending
    vals, vecs = np.clip(vals[::-1], 0.0, None), vecs[:, ::-1]
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
        if not unitarity_defect(W) <= 1e-10:
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
