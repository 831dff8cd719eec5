"""Small dense complex linear algebra: the propagator's kernels (the step
exponential and the ordered product), Hermitian eigendecomposition with a
deterministic phase convention, and structure diagnostics.

`hermitian_step_exp` computes exp(-i dt H) for a batch of Hermitian
generators, in closed form for 2x2 generators and from one batched
eigendecomposition otherwise.  `ordered_exponentials` turns N generators into
the running products U(t_j) of their step exponentials with a recursively
blocked prefix product: a scan inside blocks of 16 steps, the same scan over
the block totals for the carries, and one broadcast product that applies
them.  Two-level systems stay in Cayley-Klein form end to end: every step and
every running product is e^{i phi} [[a, -conj(b)], [b, conj(a)]], the scan
multiplies the pairs (a, b) (4 complex products where a 2x2 matrix product
takes 8, on half the memory), the real phases phi add by one cumulative sum,
and U is formed once.  Other dimensions multiply matrices with `np.matmul`,
the carries with one GEMM per block.  The checks (`require_hermitian`,
`hermiticity_defect`, `unitarity_defect`) are entrywise for stacks of 2x2
matrices too: they read the squared Frobenius norms off the real and
imaginary parts of the entries, with no conjugate-transposed copy and no Gram
stack; a single matrix and other dimensions keep the general forms.
Everything batches over leading axes and reproduces bit-identical results
run to run, which the golden tests rely on.
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
    """||M - M^dagger||_F, maximized over batch axes.

    For a stack of 2x2 matrices the squared norm is read entry by entry
    (`_two_level_squares`), with no conjugate-transposed copy.  A single
    matrix and other dimensions take the difference itself.
    """
    M = _as_square(M)
    if M.shape[-1] != 2 or M.ndim == 2:
        return frobenius_norm(M - np.conj(np.swapaxes(M, -2, -1)))
    return float(np.sqrt(np.max(_two_level_squares(M)[0])))


def _two_level_squares(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """||M - M^dagger||_F^2 and ||M||_F^2 of each matrix of a (..., 2, 2) stack.

    Both are summed on the real and imaginary parts of the entries, in one
    pass: ||M - M^dagger||^2 = 4 (Im m00)^2 + 4 (Im m11)^2 + 2 d, where
    d = |m01 - conj(m10)|^2, and ||M||^2 = (Re m00)^2 + (Re m11)^2 +
    (Im m00)^2 + (Im m11)^2 + (d + |m01 + conj(m10)|^2) / 2.
    """
    m00, m01, m10, m11 = M[..., 0, 0], M[..., 0, 1], M[..., 1, 0], M[..., 1, 1]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is an inf norm
        diagonal = m00.imag * m00.imag
        diagonal += m11.imag * m11.imag
        difference, part = m01.real - m10.real, m01.imag + m10.imag
        difference *= difference
        part *= part
        difference += part
        norm, part = m01.real + m10.real, m01.imag - m10.imag
        norm *= norm
        part *= part
        norm += part
        norm += difference
        norm *= 0.5
        norm += diagonal
        norm += m00.real * m00.real
        norm += m11.real * m11.real
        difference *= 2.0
        diagonal *= 4.0
        difference += diagonal
    return difference, norm


def unitarity_defect(U) -> float:
    """||U^dagger U - I||_F, maximized over batch axes.

    For a stack of 2x2 matrices the Gram entries are read column by column:
    g00 = |u00|^2 + |u10|^2 - 1, g11 = |u01|^2 + |u11|^2 - 1 and
    g01 = conj(u00) u01 + conj(u10) u11, so the squared norm is
    g00^2 + g11^2 + 2 |g01|^2, with no Gram stack.  A single matrix and other
    dimensions form U^dagger U.
    """
    U = _as_square(U)
    d = U.shape[-1]
    if d == 2 and U.ndim > 2:
        u00, u01, u10, u11 = U[..., 0, 0], U[..., 0, 1], U[..., 1, 0], U[..., 1, 1]
        g00 = u00.real * u00.real + u00.imag * u00.imag + u10.real * u10.real + u10.imag * u10.imag
        g11 = u01.real * u01.real + u01.imag * u01.imag + u11.real * u11.real + u11.imag * u11.imag
        g01 = np.conj(u00) * u01 + np.conj(u10) * u11
        g00 -= 1.0
        g11 -= 1.0
        squared = g00 * g00 + g11 * g11 + 2.0 * (g01.real * g01.real + g01.imag * g01.imag)
        return float(np.sqrt(np.max(squared)))
    gram = np.conj(np.swapaxes(U, -2, -1)) @ U  # a fresh contiguous stack
    gram.reshape(-1, d * d)[:, :: d + 1] -= 1.0  # its diagonal, in place
    return frobenius_norm(gram)


def require_hermitian(M, tol: float = 1e-12, name: str = "matrix") -> np.ndarray:
    """Validate the relative Hermiticity invariant and return the input.

    A matrix whose Frobenius norm is not finite fails, Hermitian or not: an
    overflowing norm (entries above about 1e154) would make the bound infinite
    and admit any defect, and a NaN compares false.
    """
    M = _as_square(M, name)
    if M.shape[-1] == 2 and M.ndim > 2:
        defect, scale = np.sqrt([np.max(squares) for squares in _two_level_squares(M)])
    else:
        defect, scale = hermiticity_defect(M), frobenius_norm(M)
    if not scale < math.inf:
        raise ContractError(f"{name} has a non-finite Frobenius norm ({scale})")
    if not defect <= tol * max(scale, 1.0):  # a NaN defect fails too
        raise ContractError(
            f"{name} is not Hermitian: ||M - M^H||_F = {defect:.3e} "
            f"exceeds {tol:.1e} * max(||M||_F, 1)"
        )
    return M


def hermitian_step_exp(H, dt: float) -> np.ndarray:
    """exp(-i dt H) for a Hermitian matrix or a batch (..., d, d) of them.

    For d = 2 the closed form of `_two_level_steps`, materialized as matrices.
    For d >= 3, one batched `eigh` gives H = V diag(lam) V^dagger, and the
    result is V diag(exp(-i dt lam)) V^dagger; this is exact for degenerate
    eigenvalues too, since any orthonormal basis of an eigenspace yields the
    same projector.  Both read the lower triangle and the real diagonal only,
    as `eigh` does.  H must be Hermitian; that is not checked here, because
    the propagator's samples are already validated (finite, Hermitian to
    1e-12) by `HamiltonianTrajectory.sample`.
    """
    H = _as_square(H)
    if H.shape[-1] == 2:
        return _two_level_matrices(*_two_level_steps(H, dt))
    vals, vecs = np.linalg.eigh(H)
    phases = np.exp(-1j * dt * vals)
    return (vecs * phases[..., None, :]) @ np.conj(np.swapaxes(vecs, -2, -1))


def ordered_exponentials(H, dt: float) -> np.ndarray:
    """Running products I, S_0, S_1 S_0, ..., S_{N-1} ... S_0 of the steps
    S_j = exp(-i dt H_j) of a stack (N, d, d) of Hermitian H_j.

    A recursively blocked prefix product (Blelloch's blocked scan, `_scan`).
    For d = 2 it runs on Cayley-Klein pairs: every step and every product is
    e^{i phi} [[a, -conj(b)], [b, conj(a)]], the pairs (a, b) multiply as
    SU(2) elements and the real phases phi add by one cumulative sum, so U is
    formed once, at the end.  For d >= 3 the steps come from
    `hermitian_step_exp` and multiply as matrices.  The blocking depends on N
    alone, so the output is byte-deterministic.
    """
    H = _as_square(H)
    n, dim = H.shape[0], H.shape[-1]
    if dim == 2:
        steps, step_phases = _two_level_steps(H, dt)
        pairs = np.empty_like(steps, shape=(1 + _scan_length(n), 2))  # component-major, as steps
        pairs[0] = (1.0, 0.0)
        _scan(steps, pairs[1:], _pair_product)
        phases = np.zeros(n + 1)
        np.cumsum(step_phases, out=phases[1:])
        return _two_level_matrices(pairs[: n + 1], phases)
    U = np.empty((1 + _scan_length(n), dim, dim), dtype=complex)
    U[0] = np.eye(dim)
    _scan(hermitian_step_exp(H, dt), U[1:], _matrix_product)
    return U[: n + 1]  # the padded tail is cut off


def _two_level_steps(H: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """exp(-i dt H) = e^{i phi} [[a, -conj(b)], [b, conj(a)]] for a stack
    (..., 2, 2) of Hermitian H, as Cayley-Klein pairs (..., 2) and phases.

    With H = h0 I + h.sigma and r = |h|, a = cos(dt r) - i s hz,
    b = -i s (hx + i hy) and phi = -dt h0, where s = sin(dt r)/r, all in real
    arithmetic.  The pairs are stored component-major, so that a and b are
    each contiguous.  s is dt * np.sinc(dt r / pi), not sin(dt r) / r: it is
    exact at r = 0, and it keeps an absurdly coarse grid visible.  np.sinc
    rounds its scaled argument apart from the cos(dt r) beside it, so once
    dt r is huge a and b no longer make a unitary and `PropagatorPath`'s gate
    fails (`simulate --omega 1e-300 --steps 20`: defect 0.249).  With sin(x)/x
    at the same x as cos, that run passes the gate and prints phi_d = 6.25e300.
    """
    h00, h11 = H[..., 0, 0].real, H[..., 1, 1].real
    hz = 0.5 * (h00 - h11)
    hx, hy = H[..., 1, 0].real, H[..., 1, 0].imag
    x = dt * np.sqrt(hz * hz + hx * hx + hy * hy)
    s = dt * np.sinc(x / np.pi)
    pairs = np.empty((2, *hz.shape), dtype=complex)
    a, b = pairs[0, ...], pairs[1, ...]  # views, also for a single matrix
    np.cos(x, out=a.real)
    np.multiply(s, hy, out=b.real)
    s = -s
    np.multiply(s, hz, out=a.imag)
    np.multiply(s, hx, out=b.imag)
    return np.moveaxis(pairs, 0, -1), -dt * (0.5 * (h00 + h11))


def _two_level_matrices(pairs: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """e^{i phi} [[a, -conj(b)], [b, conj(a)]] for pairs (..., 2) and real
    phases phi (...), as a stack (..., 2, 2)."""
    e = np.empty(phases.shape, dtype=complex)
    np.cos(phases, out=e.real)
    np.sin(phases, out=e.imag)
    a, b = pairs[..., 0], pairs[..., 1]
    out = np.empty((*phases.shape, 2, 2), dtype=complex)
    np.multiply(e, a, out=out[..., 0, 0])
    np.multiply(e, b, out=out[..., 1, 0])
    np.multiply(e, np.conj(a), out=out[..., 1, 1])
    np.multiply(-e, np.conj(b), out=out[..., 0, 1])
    return out


_SCAN_BLOCK = 16  # steps per block of the scan
_SCAN_LOOP = 64  # the longest scan done as a plain loop


def _scan_length(n: int) -> int:
    """Rows `_scan` writes for n elements: n, or n padded to whole blocks."""
    return n if n <= _SCAN_LOOP else -(-n // _SCAN_BLOCK) * _SCAN_BLOCK


def _scan(steps: np.ndarray, out: np.ndarray, product) -> None:
    """out[j] = steps[j] ... steps[0], into `out` of `_scan_length(len(steps))`
    rows, where `product(x, y, out)` writes the products x y of two stacks.

    The elements are whatever `product` multiplies: d x d matrices
    (`_matrix_product`) or Cayley-Klein pairs (`_pair_product`).  The steps
    are cut into blocks of `_SCAN_BLOCK`, the last padded with zeros, whose
    products land past the end of `out`'s first n rows only.  The in-block
    scan runs position-major, scan[k, m] over position k of block m, so that
    each of its stacked products reads and writes contiguous stacks.  The
    carries, the running products of the block totals, come from the same
    scan applied to the totals; they are then applied block-major, each to
    the 16 products of its block.  At most `_SCAN_LOOP` elements are
    multiplied one by one.  Scratch arrays keep the layout of `steps`.
    """
    n, element = steps.shape[0], steps.shape[1:]
    if n <= _SCAN_LOOP:
        out[0] = steps[0]
        for j in range(1, n):
            product(steps[j], out[j - 1], out[j])
        return
    block = _SCAN_BLOCK
    blocks = len(out) // block
    full, tail = divmod(n, block)
    src = np.empty_like(steps, shape=(block * blocks, *element)).reshape(block, blocks, *element)
    src[tail:, -1] = 0.0  # a partial last block is padded with zeros
    np.swapaxes(src[:, :full], 0, 1)[...] = steps[: n - tail].reshape(full, block, *element)
    src[:tail, -1] = steps[n - tail :]
    scan = out.reshape(block, blocks, *element)  # src[k, m] = steps[block m + k]
    scan[0] = src[0]
    for k in range(1, block):
        product(src[k], scan[k - 1], scan[k])
    # carry[m] = T_m ... T_0 over the block totals T; block m + 1 takes carry[m]
    carry = np.empty_like(steps, shape=(_scan_length(blocks - 1), *element))
    _scan(scan[-1, :-1], carry, product)
    rows = src.reshape(blocks, block, *element)  # src's memory, now block-major
    rows[...] = np.swapaxes(scan, 0, 1)
    by_block = out.reshape(blocks, block, *element)
    by_block[0] = rows[0]
    product(rows[1:], carry[: blocks - 1, None], by_block[1:])


def _matrix_product(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> None:
    """x y for (broadcast) stacks of d x d matrices, into `out`.

    A y of shape (m, 1, d, d), one carry for each block of x's (m, block, d,
    d), is applied with one GEMM per block, the block's products being the
    rows of one (block d, d) matrix; `np.matmul` broadcasting it pays about
    half a microsecond per matrix.
    """
    if y.ndim == 4:
        m, d = len(x), x.shape[-1]
        np.matmul(x.reshape(m, -1, d), y[:, 0], out=out.reshape(m, -1, d))
    else:
        np.matmul(x, y, out=out)


def _pair_product(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> None:
    """(a1, b1)(a2, b2) = (a1 a2 - conj(b1) b2, b1 a2 + conj(a1) b2) for
    (broadcast) stacks (..., 2) of Cayley-Klein pairs, into `out`.

    This is the product of [[a, -conj(b)], [b, conj(a)]] matrices: 4 complex
    products where the matrices take 8.  A single pair is multiplied in
    Python complex scalars, cheaper than ufuncs on one-element views.
    """
    if x.ndim == 1:
        (a1, b1), (a2, b2) = x.tolist(), y.tolist()
        out[:] = (a1 * a2 - b1.conjugate() * b2, b1 * a2 + a1.conjugate() * b2)
        return
    a1, b1, a2, b2 = x[..., 0], x[..., 1], y[..., 0], y[..., 1]
    a, b = out[..., 0], out[..., 1]
    np.multiply(a1, a2, out=a)
    a -= np.conj(b1) * b2
    np.multiply(b1, a2, out=b)
    b += np.conj(a1) * b2


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
