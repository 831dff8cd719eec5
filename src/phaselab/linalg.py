"""Small dense complex linear algebra: the propagator's two kernels (the
step exponential and the ordered product), Hermitian eigendecomposition with a
deterministic phase convention, and structure diagnostics.

`hermitian_step_exp` computes exp(-i dt H) for a batch of Hermitian
generators, in closed form for 2x2 generators and from one batched
eigendecomposition otherwise.  `ordered_products` turns the N step
exponentials into the running products U(t_j) with a recursively blocked
prefix product: a scan inside blocks of 16 steps, the same scan over the block
totals for the carries, and one GEMM per block that applies them.  The scan's
products, and the U^dagger U of `unitarity_defect`, go through one private
stacked-product kernel, which writes the four entries of 2x2 products
elementwise and keeps `np.matmul` for other dimensions.  At N = 20000 the
product makes 48 kernel calls and 3 `np.matmul` calls for the carries.
Everything batches over leading axes and reproduces bit-identical results run
to run, which the golden tests rely on.
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
    """Frobenius norm over the trailing matrix axes (max over any batch axes).

    A complex input is reduced as the real view of its (re, im) pairs, so the
    sum of squares is one einsum with no temporary; a non-contiguous input is
    copied first, because only a contiguous last axis has that view.
    """
    M = np.asarray(M)
    if np.iscomplexobj(M):
        M = np.ascontiguousarray(M).view(M.real.dtype)
    return float(np.sqrt(np.max(np.einsum("...ij,...ij->...", M, M))))


def hermiticity_defect(M) -> float:
    """||M - M^dagger||_F, maximized over batch axes."""
    M = _as_square(M)
    return frobenius_norm(M - np.conj(np.swapaxes(M, -2, -1)))


def unitarity_defect(U) -> float:
    """||U^dagger U - I||_F, maximized over batch axes."""
    U = _as_square(U)
    d = U.shape[-1]
    gram = _matmul(np.conj(np.swapaxes(U, -2, -1)), U)  # a fresh contiguous stack
    gram.reshape(-1, d * d)[:, :: d + 1] -= 1.0  # its diagonal, in place
    return frobenius_norm(gram)


def require_hermitian(M, tol: float = 1e-12, name: str = "matrix") -> np.ndarray:
    """Validate the relative Hermiticity invariant and return the input.

    A matrix whose Frobenius norm is not finite fails, Hermitian or not: an
    overflowing norm (entries above about 1e154) would make the bound infinite
    and admit any defect, and a NaN compares false.
    """
    M = _as_square(M, name)
    scale = frobenius_norm(M)
    if not scale < math.inf:
        raise ContractError(f"{name} has a non-finite Frobenius norm ({scale})")
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
    """Closed-form exp(-i dt H) for a stack (..., 2, 2) of Hermitian H.

    sin(dt r)/r is dt * np.sinc(dt r / pi), not sin(dt r) / r: it is exact at
    r = 0, and it keeps an absurdly coarse grid visible.  np.sinc rounds its
    scaled argument apart from the cos(dt r) beside it, so once dt r is huge
    the two no longer make a unitary and `PropagatorPath`'s gate fails
    (`simulate --omega 1e-300 --steps 20`: defect 0.249).  With sin(x)/x at
    the same x as cos, that run passes the gate and prints phi_d = 6.25e300.
    """
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

    A recursively blocked prefix product (Blelloch's blocked scan): the steps
    are cut into blocks of `_SCAN_BLOCK`, the last padded with identities.  The
    running product inside every block is formed for all blocks at once, one
    stacked product per position in a block.  The carries, the running
    products of the block totals, come from the same scan applied to the
    totals, and one GEMM per block applies them, writing straight into U.
    At most `_SCAN_LOOP` matrices are multiplied one by one.  The blocking
    depends on N alone, so the output is byte-deterministic.
    """
    n, dim = steps.shape[0], steps.shape[-1]
    U = np.empty((1 + _scan_length(n), dim, dim), dtype=complex)
    U[0] = np.eye(dim)
    _scan(steps, U[1:])
    return U[: n + 1]  # the padded tail is cut off


_SCAN_BLOCK = 16  # steps per block of the scan
_SCAN_LOOP = 64  # the longest scan done as a plain loop


def _scan_length(n: int) -> int:
    """Rows `_scan` writes for n matrices: n, or n padded to whole blocks."""
    return n if n <= _SCAN_LOOP else -(-n // _SCAN_BLOCK) * _SCAN_BLOCK


def _scan(steps: np.ndarray, out: np.ndarray) -> None:
    """out[j] = steps[j] ... steps[0], into a contiguous `out` of
    `_scan_length(len(steps))` rows.

    The in-block scan runs position-major, scan[k, m] over position k of
    block m, so that each of its stacked products reads and writes contiguous
    stacks (block-major, it reads one matrix per 4 KiB page at d = 4).  The
    carries are then applied block-major, where the 16 products of a block are
    the rows of one (16 d, d) matrix and one GEMM per block multiplies them by
    the block's carry.
    """
    n, dim = steps.shape[0], steps.shape[-1]
    if n <= _SCAN_LOOP:
        out[:1] = steps[:1]
        for j in range(1, n):
            _matmul(steps[j], out[j - 1], out=out[j])
        return
    block = _SCAN_BLOCK
    blocks = len(out) // block
    full, tail = divmod(n, block)
    src = np.empty((block, blocks, dim, dim), dtype=complex)  # src[k, m] = steps[block m + k]
    src[:, -1] = np.eye(dim)  # a partial last block is padded with identities
    np.swapaxes(src[:, :full], 0, 1)[...] = steps[: n - tail].reshape(full, block, dim, dim)
    src[:tail, -1] = steps[n - tail :]
    scan = out.reshape(block, blocks, dim, dim)
    scan[0] = src[0]
    for k in range(1, block):
        _matmul(src[k], scan[k - 1], out=scan[k])
    # carry[m] = T_m ... T_0 over the block totals T; block m + 1 takes carry[m]
    carry = np.empty((_scan_length(blocks - 1), dim, dim), dtype=complex)
    _scan(scan[-1, :-1], carry)
    rows = src.reshape(blocks, block * dim, dim)  # src's memory, now block-major
    rows.reshape(blocks, block, dim, dim)[...] = np.swapaxes(scan, 0, 1)
    by_block = out.reshape(blocks, block * dim, dim)
    by_block[0] = rows[0]
    np.matmul(rows[1:], carry[: blocks - 1], out=by_block[1:])


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b for (broadcast) stacks of d x d matrices, into `out` if given.

    `np.matmul` pays about half a microsecond per matrix, which dominates on
    stacks of 2x2 matrices; for those the four entries are written
    elementwise, each a sum over the inner index in the same order.  A single
    pair of matrices and every other dimension keep `np.matmul`.
    """
    if a.shape[-1] != 2 or a.ndim == b.ndim == 2:
        return np.matmul(a, b, out=out)
    if out is None:
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
