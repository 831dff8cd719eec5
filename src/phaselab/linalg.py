"""Small dense complex linear algebra: the propagator's two kernels (the
step exponential and the ordered product), Hermitian eigendecomposition with a
deterministic phase convention, and structure diagnostics.

`hermitian_step_exp` computes exp(-i dt H) for a batch of Hermitian
generators, in closed form for 2x2 generators and from one batched
eigendecomposition otherwise.  `ordered_products` turns the N step
exponentials into the running products U(t_j) with a blocked prefix product.
Its products, and the U^dagger U of `unitarity_defect`, go through one private
stacked-product kernel, which writes the four entries of 2x2 products
elementwise and keeps `np.matmul` for other dimensions.  Everything batches
over leading axes and reproduces bit-identical results run to run, which the
golden tests rely on.
"""
from __future__ import annotations

import math

import numpy as np

from .exceptions import ContractError, DimensionError


def _as_square(M, name: str = "matrix") -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise DimensionError(f"{name} must be square, got shape {M.shape}")
    return M


def frobenius_norm(M: np.ndarray) -> float:
    """Frobenius norm over the trailing matrix axes (max over any batch axes)."""
    M = np.asarray(M)
    norms = np.sqrt((np.abs(M) ** 2).sum(axis=(-2, -1)))
    return float(np.max(norms))


def hermiticity_defect(M) -> float:
    """||M - M^dagger||_F, maximized over batch axes."""
    M = _as_square(M)
    return frobenius_norm(M - np.conj(np.swapaxes(M, -2, -1)))


def unitarity_defect(U) -> float:
    """||U^dagger U - I||_F, maximized over batch axes."""
    U = _as_square(U)
    eye = np.eye(U.shape[-1])
    return frobenius_norm(_matmul(np.conj(np.swapaxes(U, -2, -1)), U) - eye)


def require_hermitian(M, tol: float = 1e-12, name: str = "matrix") -> np.ndarray:
    """Validate the relative Hermiticity invariant and return the input."""
    M = _as_square(M, name)
    scale = max(frobenius_norm(M), 1e-300)
    defect = hermiticity_defect(M)
    if not defect <= tol * max(scale, 1.0):  # a NaN defect fails too
        raise ContractError(
            f"{name} is not Hermitian: ||M - M^H||_F = {defect:.3e} "
            f"exceeds {tol:.1e} * max(||M||_F, 1)"
        )
    return M


def hermitian_step_exp(H, dt: float) -> np.ndarray:
    """exp(-i dt H) for a Hermitian matrix or a batch (..., d, d) of them.

    For d = 2, write H = h0 I + h.sigma with r = |h|; then
    exp(-i dt H) = exp(-i dt h0) [cos(dt r) I - i sin(dt r)/r h.sigma],
    evaluated elementwise with sin(dt r)/r = dt sinc(dt r / pi), which is exact
    at r = 0.  For d >= 3, one batched `eigh` gives H = V diag(lam) V^dagger,
    and the result is V diag(exp(-i dt lam)) V^dagger; this is exact for
    degenerate eigenvalues too, since any orthonormal basis of an eigenspace
    yields the same projector.  Both read the lower triangle and the real
    diagonal only, as `eigh` does.  H must be Hermitian; that is not checked
    here, because the propagator's samples are already validated (finite,
    Hermitian to 1e-12) by `HamiltonianTrajectory.sample`.
    """
    H = _as_square(H)
    if H.shape[-1] == 2:
        return _two_level_step_exp(H, dt)
    vals, vecs = np.linalg.eigh(H)
    phases = np.exp(-1j * dt * vals)
    return (vecs * phases[..., None, :]) @ np.conj(np.swapaxes(vecs, -2, -1))


def _two_level_step_exp(H: np.ndarray, dt: float) -> np.ndarray:
    """Closed-form exp(-i dt H) for a stack (..., 2, 2) of Hermitian H."""
    h00, h11 = H[..., 0, 0].real, H[..., 1, 1].real
    h0 = 0.5 * (h00 + h11)
    hz = 0.5 * (h00 - h11)
    b = np.conj(H[..., 1, 0])  # the upper off-diagonal entry hx - i hy
    r = np.sqrt(hz * hz + b.real * b.real + b.imag * b.imag)
    cos = np.cos(dt * r)
    sin_over_r = dt * np.sinc(dt * r / np.pi)
    phase = np.exp(-1j * dt * h0)
    minus_i_s = -1j * sin_over_r * phase
    out = np.empty(H.shape, dtype=complex)
    out[..., 0, 0] = phase * cos + minus_i_s * hz
    out[..., 1, 1] = phase * cos - minus_i_s * hz
    out[..., 0, 1] = minus_i_s * b
    out[..., 1, 0] = minus_i_s * np.conj(b)
    return out


def ordered_products(steps: np.ndarray) -> np.ndarray:
    """Running products I, S_0, S_1 S_0, ..., S_{N-1} ... S_0 of N steps.

    Blocked prefix product: the steps are cut into blocks of floor(sqrt(N))
    steps, the last padded with identities.  The running product inside every
    block is formed for all blocks at once (one stacked product per position
    in a block), one pass carries each block's total into the next, and one
    stacked product applies the carries.  The block size depends on N alone,
    so the output is byte-deterministic.
    """
    n, dim = steps.shape[0], steps.shape[-1]
    eye = np.eye(dim, dtype=complex)
    block = math.isqrt(n)
    blocks = -(-n // block)
    scan = np.empty((blocks * block, dim, dim), dtype=complex)
    scan[:n] = steps
    scan[n:] = eye
    scan = scan.reshape(blocks, block, dim, dim)
    for k in range(1, block):
        scan[:, k] = _matmul(scan[:, k], scan[:, k - 1])
    carry = np.empty((blocks, dim, dim), dtype=complex)
    carry[0] = eye
    for m in range(1, blocks):
        carry[m] = _matmul(scan[m - 1, -1], carry[m - 1])
    U = np.empty((n + 1, dim, dim), dtype=complex)
    U[0] = eye
    U[1:] = _matmul(scan, carry[:, None]).reshape(-1, dim, dim)[:n]
    return U


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for (broadcast) stacks of d x d matrices.

    `np.matmul` pays about half a microsecond per matrix, which dominates on
    stacks of 2x2 matrices; for those the four entries are written
    elementwise, each a sum over the inner index in the same order.  A single
    pair of matrices and every other dimension keep `np.matmul`.
    """
    if a.shape[-1] != 2 or a.ndim == b.ndim == 2:
        return a @ b
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    a00, a01, a10, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    b00, b01, b10, b11 = b[..., 0, 0], b[..., 0, 1], b[..., 1, 0], b[..., 1, 1]
    out[..., 0, 0] = a00 * b00 + a01 * b10
    out[..., 0, 1] = a00 * b01 + a01 * b11
    out[..., 1, 0] = a10 * b00 + a11 * b10
    out[..., 1, 1] = a10 * b01 + a11 * b11
    return out


def hermitian_eigen(H, tol: float = 1e-12):
    """Eigendecomposition of a Hermitian matrix with a fixed gauge.

    Returns (eigenvalues ascending, eigenvectors as columns).  Each column is
    rescaled so that its largest-magnitude entry is real and positive, ties
    broken by the lowest index; this removes the U(1) ambiguity that would
    otherwise break golden tests.
    """
    H = require_hermitian(H, tol=tol, name="eigen input")
    if H.ndim != 2:
        raise DimensionError("hermitian_eigen expects a single matrix, not a batch")
    vals, vecs = np.linalg.eigh(H)
    vecs = fix_eigenvector_phases(vecs)
    return vals, vecs


def fix_eigenvector_phases(vecs: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    vecs = np.array(vecs, dtype=complex)
    idx = np.argmax(np.abs(vecs), axis=0)
    pivots = vecs[idx, np.arange(vecs.shape[1])]
    phases = pivots / np.abs(pivots)
    return vecs * np.conj(phases)[None, :]
