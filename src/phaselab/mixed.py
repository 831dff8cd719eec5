"""Mixed-state machinery: density matrices, interference observables,
transport conditions, equivalence-class transforms, and purification.

The directly observable quantities are the total phase arg Tr[U(T) rho(0)]
and the visibility |Tr[U(T) rho(0)]|.  Per-path phase transforms
U -> U sum_k e^{i theta_k} |k><k| leave the density-matrix orbit fixed but
shift both observables in a way computed here exactly; the Singh combination
of endpoint overlaps and step-phase sums is the invariant alternative.
Transport conditions, the mixed dynamical phase, the Singh phase and
`gauge_campaign` read the member paths psi_k = U|k> (`evolution.member_paths`)
as one `phases.PathStack`, which a per-path transform maps to e^{i theta_k} psi_k.
`transport_conditions` and `singh_phase` take that stack and the ensemble
weights, so a caller that holds it pays for its step overlaps once; one
`transport_conditions` call gives both residuals and gamma_D from its step
phases, which that transform shifts by theta_k(t_{j+1}) - theta_k(t_j).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolution import HamiltonianTrajectory, PropagatorPath, member_paths
from .exceptions import (
    CapacityError,
    ContractError,
    DimensionError,
    UndefinedPhaseError,
)
from .gauge import GaugeFunction, apply_gauge, frame_from_amplitudes, frame_trace
from .linalg import hermitian_eigen, hermiticity_defect, unitarity_defect
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


def transform_evolution(
    U: PropagatorPath, theta: GaugeFunction, basis: Ensemble
) -> PropagatorPath:
    """U(t) -> U(t) sum_k e^{i theta_k(t)} |k><k| over a complete basis, which
    maps each member path psi_k = U|k> to e^{i theta_k} psi_k."""
    if basis.size != U.dim:
        raise DimensionError(
            f"basis with {basis.size} states cannot span dimension {U.dim}"
        )
    if len(theta.labels) != basis.size:
        raise DimensionError("one gauge label per basis state required")
    # U' = U + sum_k (e^{i theta_k} - 1) psi_k <k| over the member paths psi_k = U|k>,
    # so U' is exactly U wherever theta vanishes
    psi = member_paths(U, basis.states) * np.expm1(1j * theta.value(U.grid.nodes)).T[:, None, :]
    delta = psi.reshape(-1, basis.size) @ np.conj(basis.states)
    return PropagatorPath(U.grid, U.matrices + delta.reshape(U.matrices.shape))


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


def gauge_campaign(
    H: HamiltonianTrajectory, U: PropagatorPath, ensemble: Ensemble, labels: tuple,
    rng: np.random.Generator, trials: int, gauge_scale: float,
) -> dict:
    """Base observables and worst deviations over `trials` random gauges, by name.

    Per trial: a periodic frame gauge must leave the frame trace and the
    holonomies fixed; a ramped gauge theta_k(t) must leave the Singh phase
    fixed and shift gamma_T, gamma_D of U' = `transform_evolution` as predicted
    from theta(0), theta(T); the Singh phase and the observed shifts are read off
    U'(T) and the rephased member paths U'|k>.  H is sampled once.  Scale 0: zero
    gauges, no draws.
    """
    grid = U.grid
    weights = ensemble.weights
    members = PathStack(grid, member_paths(U, ensemble.states))  # psi_k = U|k>
    rho0 = density_from_ensemble(ensemble)
    samples = H.sample(grid.nodes)
    frame = frame_from_amplitudes(members, labels=labels)
    base_trace = frame_trace(frame, samples, weights)
    base_singh = singh_phase(weights, members)
    base_gamma, base_vis = mixed_total_phase(rho0, U.final)
    base_dyn = transport_conditions(weights, members)[2]
    diag_UT = np.einsum("ka,ak->k", np.conj(ensemble.states), members.states[-1])  # <k|U(T)|k>

    def draw(slope_scale):
        if gauge_scale == 0.0:
            return GaugeFunction.zero(labels, grid.span)
        return GaugeFunction.random(
            labels, grid.span, rng, scale=gauge_scale, slope_scale=slope_scale
        )

    dev_gamma = dev_vis = dev_hol = dev_singh = 0.0
    mismatch_gamma = mismatch_dyn = naive_gamma = naive_dyn = 0.0
    for _ in range(trials):
        gauged = apply_gauge(frame, draw(0.0))
        tr = frame_trace(gauged, samples, weights)
        dev_gamma = max(dev_gamma, abs(wrap_angle(np.angle(tr) - np.angle(base_trace))))
        dev_vis = max(dev_vis, abs(abs(tr) - abs(base_trace)))
        hol_shift = gauged.holonomies - frame.holonomies
        dev_hol = max(dev_hol, float(np.max(np.abs(hol_shift))))

        ramped = draw(2.0 * gauge_scale)
        U_prime = transform_evolution(U, ramped, ensemble)
        shifted = PathStack(grid, member_paths(U_prime, ensemble.states))  # e^{i theta_k} psi_k
        singh = singh_phase(weights, shifted)
        dev_singh = max(dev_singh, abs(wrap_angle(singh - base_singh)))

        theta_0, theta_T = ramped.value([0.0, grid.t_end]).T
        predicted_gamma = float(np.angle(np.sum(weights * diag_UT * np.exp(1j * theta_T))))
        observed_gamma, _ = mixed_total_phase(rho0, U_prime.final)
        mismatch_gamma = max(mismatch_gamma, abs(wrap_angle(observed_gamma - predicted_gamma)))
        naive_gamma = max(naive_gamma, abs(wrap_angle(observed_gamma - base_gamma)))

        observed_dyn = transport_conditions(weights, shifted)[2]
        predicted_dyn = base_dyn + float(np.sum(weights * (theta_T - theta_0)))
        mismatch_dyn = max(mismatch_dyn, abs(observed_dyn - predicted_dyn))
        naive_dyn = max(naive_dyn, abs(observed_dyn - base_dyn))

    return {
        "gamma_total": base_gamma,
        "visibility": base_vis,
        "singh_phase": base_singh,
        "max_gamma_total_deviation": dev_gamma,
        "max_visibility_deviation": dev_vis,
        "max_holonomy_deviation": dev_hol,
        "max_singh_deviation": dev_singh,
        "max_total_phase_prediction_mismatch": mismatch_gamma,
        "max_dynamical_phase_prediction_mismatch": mismatch_dyn,
        "max_naive_total_phase_shift": naive_gamma,
        "max_naive_dynamical_phase_shift": naive_dyn,
    }


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
    vals, vecs = hermitian_eigen(rho.matrix, tol=1e-8)
    order = np.argsort(vals)[::-1]
    vals = np.clip(vals[order], 0.0, None)
    vecs = vecs[:, order]
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
