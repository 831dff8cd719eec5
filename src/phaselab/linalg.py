"""Small dense complex linear algebra: the propagator's kernels (the step
exponential and the ordered product) and structure diagnostics.  No basis
gauge is fixed here: an eigendecomposition is `np.linalg.eigh`'s, called where
it is read, and no output depends on its eigenvector phases.

`hermitian_step_exp` computes exp(-i dt H) for a batch of Hermitian
generators of any dimension, by scaling and squaring around one truncated
Taylor series evaluated on a component-major (d, d, n) copy of the stack, so
that each matrix product runs over contiguous rows of length n; one norm for
the whole stack sets the squarings and the degree.  `ordered_exponentials`
turns N generators into the running products U(t_j) of their step
exponentials with a recursively blocked prefix product: a scan inside blocks
of 16 steps, the same scan over the block totals for the carries, and one
broadcast product that applies them; the steps multiply with `np.matmul`,
the carries with one GEMM per block.  Two-level systems stay in Cayley-Klein
form end to end (`ordered_pairs`): every step and every running product is
e^{i phi} [[a, -conj(b)], [b, conj(a)]], the steps come from their closed
form, the scan multiplies the pairs (a, b) (4 complex products where a 2x2
matrix product takes 8, on half the memory), and the real phases phi add by
one cumulative sum.  That scan starts from the SU(2) frame W of a unit ket
s, whose pair is (s0, s1), so the pairs are those of U(t_j) W and, up to
e^{i phi_j}, U(t_j)|s> itself.  The propagator keeps those pairs and phases
(`evolution.PropagatorPath`), and U W is formed from them
(`_two_level_matrices`) only when read, component-major: its (N+1, 2, 2)
shape is a view of four contiguous rows.  Both kernels let go of their
samples once the step factors exist, and `ordered_pairs` of the steps once
they are scanned, so a temporary sample stack is freed before the scan.
Of the propagator's checks, `require_hermitian` reads a stack of 2x2
matrices, and `pair_norm_defect` the squared norms of the Cayley-Klein pairs
(`_pair_norms`), both off the real and imaginary parts of the entries, with no
conjugate-transposed copy; larger matrices form M - M^dagger.  `unitarity_defect` sums the Gram
entries of U^dagger U on and above the diagonal by row multiply-adds over a
component-major copy of one piece (`_pieces`) at a time, a single matrix
included, where `np.matmul` pays its per-matrix cost on every U(t_j).
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
    """||M - M^dagger||_F, maximized over batch axes, in one C-ordered buffer."""
    M = _as_square(M)
    difference = np.empty(M.shape, dtype=complex)
    np.conj(np.swapaxes(M, -2, -1), out=difference)
    np.subtract(M, difference, out=difference)
    return frobenius_norm(difference)


def _two_level_squares(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """||M - M^dagger||_F^2 and ||M||_F^2 of each matrix of a (..., 2, 2) stack.

    Both are summed on the real and imaginary parts of the entries, in one
    pass: ||M - M^dagger||^2 = 4 (Im m00)^2 + 4 (Im m11)^2 + 2 d, where
    d = |m01 - conj(m10)|^2, and ||M||^2 = (Re m00)^2 + (Re m11)^2 +
    (Im m00)^2 + (Im m11)^2 + (d + |m01 + conj(m10)|^2) / 2.  Four rows of the
    stack's batch shape are allocated: the two results, the diagonal sum and
    one scratch row that every other product is written into.
    """
    m00, m01, m10, m11 = M[..., 0, 0], M[..., 0, 1], M[..., 1, 0], M[..., 1, 1]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is an inf norm
        diagonal = np.multiply(m00.imag, m00.imag)
        part = np.multiply(m11.imag, m11.imag)
        diagonal += part
        difference = np.subtract(m01.real, m10.real)
        difference *= difference
        np.add(m01.imag, m10.imag, out=part)
        part *= part
        difference += part
        norm = np.add(m01.real, m10.real)
        norm *= norm
        np.subtract(m01.imag, m10.imag, out=part)
        part *= part
        norm += part
        norm += difference
        norm *= 0.5
        norm += diagonal
        norm += np.multiply(m00.real, m00.real, out=part)
        norm += np.multiply(m11.real, m11.real, out=part)
        difference *= 2.0
        diagonal *= 4.0
        difference += diagonal
    return difference, norm


def unitarity_defect(U) -> float:
    """||U^dagger U - I||_F, maximized over batch axes.

    Sums the squares over the Gram entries on and above the diagonal,
    g_ij = sum_k conj(u_ki) u_kj, by row multiply-adds over a component-major
    copy of one piece (`_pieces`) at a time, where `np.matmul` would pay its
    per-matrix cost on every matrix.
    """
    U = _as_square(U)
    d = U.shape[-1]
    largest = []
    for piece in _pieces(U):
        columns = piece.transpose(2, 1, 0).copy()  # columns[j, k] = u_kj, each one row
        conj = np.conj(columns)
        squared = np.zeros(len(piece))
        for i in range(d):
            for j in range(i, d):
                g = conj[i, 0] * columns[j, 0]
                for k in range(1, d):
                    g += conj[i, k] * columns[j, k]
                if i == j:
                    g.real -= 1.0
                    squared += g.real * g.real
                else:
                    squared += 2.0 * (g.real * g.real + g.imag * g.imag)
        largest.append(np.max(squared))
    return float(np.sqrt(np.max(largest)))


def _pieces(M: np.ndarray):
    """Successive pieces (m, d, d) of a stack of d x d matrices, or of a single
    matrix, `_CHUNK` entries each (one matrix at least), as `hermitian_step_exp`
    cuts them, so that what `unitarity_defect` computes on a piece stays in
    cache and nothing is stack-sized."""
    d = M.shape[-1]
    stack = M.reshape(-1, d, d)
    step = max(_CHUNK // (d * d), 1)
    return (stack[start : start + step] for start in range(0, len(stack), step))


def _pair_norms(pairs: np.ndarray) -> np.ndarray:
    """|a_j|^2 + |b_j|^2 over a stack (..., 2) of Cayley-Klein pairs, summed
    on the real and imaginary parts."""
    a, b = pairs[..., 0], pairs[..., 1]
    norm = a.real * a.real
    norm += a.imag * a.imag
    norm += b.real * b.real
    norm += b.imag * b.imag
    return norm


def pair_norm_defect(norms: np.ndarray) -> float:
    """max_j | n_j - 1 | over the squared norms n_j = |a_j|^2 + |b_j|^2 of a
    stack of Cayley-Klein pairs (their `_pair_norms`): the larger of
    max_j n_j - 1 and 1 - min_j n_j, with no row formed (both NaN if an n_j is)."""
    return float(max(np.max(norms) - 1.0, 1.0 - np.min(norms)))


def require_hermitian(M, tol: float = 1e-12, name: str = "matrix") -> np.ndarray:
    """Validate the relative Hermiticity invariant and return the input.

    A matrix whose Frobenius norm is not finite fails, Hermitian or not: an
    overflowing norm (entries above about 1e154) would make the bound infinite
    and admit any defect, and a NaN compares false.  So does every matrix with
    a non-finite entry, whose norm is inf or NaN.
    """
    M = _as_square(M, name)
    if M.shape[-1] == 2 and M.ndim > 2:
        defect, scale = np.sqrt([np.max(squares) for squares in _two_level_squares(M)])
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, or an overflow: not finite
            defect, scale = hermiticity_defect(M), frobenius_norm(M)
    if not scale < math.inf:
        raise ContractError(f"{name} has a non-finite Frobenius norm ({scale})")
    if not defect <= tol * max(scale, 1.0):  # a NaN defect fails too
        raise ContractError(
            f"{name} is not Hermitian: ||M - M^H||_F = {defect:.3e} "
            f"exceeds {tol:.1e} * max(||M||_F, 1)"
        )
    return M


_TAYLOR_TOL = 1e-17  # bound on the truncated Taylor tail, against ||exp(-i dt H)|| = 1
_MAX_SQUARINGS = 16  # dt ||H||_1 above 2^16 is rejected, not squared
_CHUNK = 2**14  # matrix entries per component-major chunk of the step exponential


def hermitian_step_exp(H, dt: float) -> np.ndarray:
    """exp(-i dt H) for a Hermitian matrix or a batch (..., d, d) of them.

    Scaling and squaring around a truncated Taylor series (Moler & Van Loan,
    SIAM Rev. 45, 3 (2003)), for every d.  One norm for the whole stack,
    theta = dt max_j ||H_j||_1, sets both the number s of squarings, the
    least with theta / 2^s <= 1, and the degree: the least (rounded up to a
    Paterson-Stockmeyer degree) whose Taylor tail at theta / 2^s is below
    1e-17.  The kernel runs on component-major (d, d, n) copies of
    -i dt H / 2^s, so each matrix product is a few elementwise operations
    over contiguous rows of length n where `np.matmul` would pay its
    per-matrix cost n times; the copies are cut into chunks of `_CHUNK`
    entries, whose powers stay in cache, and the result is handed back
    C-contiguous, in the input's shape.  Every matrix is computed by the
    same operations in the same order, so the output is byte-deterministic.
    A stack with theta > 2^16 (or not finite) raises ContractError: the
    squarings would amplify rounding toward the propagator's unitarity
    check, and such a grid resolves nothing of H anyway (at 2^16 a step's
    unitarity defect is about 2e-11).  H must be Hermitian; that is not
    checked here, because the propagator's samples are already validated
    (finite, Hermitian to 1e-12) by `HamiltonianTrajectory.sample`.
    """
    H = _as_square(H)
    d = H.shape[-1]
    stack = H.reshape(-1, d, d)
    theta = abs(dt) * float(np.max(np.abs(stack).sum(axis=-2), initial=0.0))  # largest column sum
    if not theta <= 2.0**_MAX_SQUARINGS:  # a NaN or inf theta fails too
        raise ContractError(
            f"step exponent dt * ||H||_1 = {theta:.3e} exceeds 2^{_MAX_SQUARINGS}"
        )
    squarings = max(math.frexp(theta)[1], 0)
    scale, theta = math.ldexp(-dt, -squarings) * 1j, math.ldexp(theta, -squarings)
    out = np.empty(stack.shape, dtype=complex)
    columns = max(_CHUNK // (d * d), 1)
    for start in range(0, len(stack), columns):
        part = stack[start : start + columns]
        A = np.empty((d, d, len(part)), dtype=complex)
        np.multiply(part.transpose(1, 2, 0), scale, out=A)
        X = _taylor_polynomial(A, theta)
        for _ in range(squarings):
            X = _component_product(X, X)
        out[start : start + columns] = X.transpose(2, 0, 1)
    return out.reshape(H.shape)


def _taylor_polynomial(A: np.ndarray, theta: float) -> np.ndarray:
    """sum_{k <= m} A^k / k! for a component-major stack A (d, d, n) with
    ||A|| <= theta <= 1, by Paterson-Stockmeyer.  The least degree m0 whose
    tail is below `_TAYLOR_TOL` sets p = ceil(sqrt(m0)), q = ceil(m0 / p)
    and m = p q.  With the powers A^2 .. A^p and the blocks
    B_j = sum_{i < p} A^i / (j p + i)!, Horner's rule in A^p,
    X = A^p / m! + B_{q-1}, then X = X A^p + B_j, takes p + q - 2 products
    where Horner's rule in A takes m - 1."""
    m, tail = 1, 0.5 * theta * theta  # tail = theta^(m+1) / (m+1)!
    while 2.0 * tail > _TAYLOR_TOL:  # the whole tail is below twice its first term
        m += 1
        tail *= theta / (m + 1)
    p = math.isqrt(m - 1) + 1  # ceil(sqrt(m))
    q = -(-m // p)
    powers = [A]
    for _ in range(1, p):
        powers.append(_component_product(powers[-1], A))
    X = powers[-1] * (1.0 / math.factorial(p * q))
    for j in range(q - 1, -1, -1):
        if j < q - 1:
            X = _component_product(X, powers[-1])
        for i in range(1, p):
            X += powers[i - 1] * (1.0 / math.factorial(j * p + i))
        X.reshape(len(A) ** 2, -1)[:: len(A) + 1] += 1.0 / math.factorial(j * p)
    return X


def _component_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x y for component-major stacks (d, d, n) of d x d matrices: one
    broadcast multiply-add per inner index, over rows of length n."""
    out = x[:, :1] * y[0]
    for j in range(1, len(x)):
        out += x[:, j, None] * y[j]
    return out


def ordered_exponentials(H, dt: float) -> np.ndarray:
    """Running products I, S_0, S_1 S_0, ..., S_{N-1} ... S_0 of the steps
    S_j = exp(-i dt H_j) of a stack (N, d, d) of Hermitian H_j.

    A recursively blocked prefix product (Blelloch's blocked scan, `_scan`)
    of the steps of `hermitian_step_exp`, multiplied as matrices; `propagate`
    sends d = 2 to `ordered_pairs` instead.  The blocking depends on N alone,
    so the output is byte-deterministic.  The samples are let go once the
    step factors exist: a temporary stack passed in is freed before the scan
    on CPython 3.11 and later.
    """
    H = _as_square(H)
    n, dim = H.shape[0], H.shape[-1]
    steps = hermitian_step_exp(H, dt)
    del H  # the samples are no longer read
    U = np.empty((1 + _scan_length(n), dim, dim), dtype=complex)
    U[0] = np.eye(dim)
    _scan(steps, U[1:], _matrix_product)
    return U[: n + 1]  # the padded tail is cut off


def ordered_pairs(H, dt: float, start) -> tuple[np.ndarray, np.ndarray]:
    """`ordered_exponentials` of a stack (N, 2, 2) of Hermitian H_j in
    Cayley-Klein form, times the SU(2) frame W = [[s0, -conj(s1)], [s1, conj(s0)]]
    of the unit ket `start` s: the running products
    U(t_j) W = e^{i phi_j} [[a_j, -conj(b_j)], [b_j, conj(a_j)]] as the pairs
    (a_j, b_j), an (N+1, 2) stack stored component-major (a and b each one
    contiguous row), and the real phases phi_j, shape (N+1,).  The pairs are
    the scan of [W, S_0, ..., S_{N-1}], the steps written straight after W,
    multiplied as SU(2) elements, so (a_j, b_j) is U(t_j)|s> up to e^{i phi_j};
    the phases add by one cumulative sum, skipped when every step phase is
    zero.  s = (1, 0) gives U itself.  The
    samples are let go once the steps exist, and the steps once scanned, so
    a temporary sample stack is freed before the scan.
    """
    H = _as_square(H)
    n = H.shape[0]
    steps = np.empty((2, n + 1), dtype=complex)  # component-major: W, then the steps
    steps[:, 0] = start
    step_phases = _two_level_steps(H, dt, steps[:, 1:])[1]
    del H  # the samples are no longer read
    pairs = np.empty_like(steps.T, shape=(_scan_length(n + 1), 2))  # component-major too
    _scan(steps.T, pairs, _pair_product)
    del steps
    phases = np.zeros(n + 1)
    if np.any(step_phases):  # a traceless H, such as the spin model's, has none
        np.cumsum(step_phases, out=phases[1:])
    return pairs[: n + 1], phases


def _two_level_steps(H: np.ndarray, dt: float, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(-i dt H) = e^{i phi} [[a, -conj(b)], [b, conj(a)]] for a stack
    (..., 2, 2) of Hermitian H, as Cayley-Klein pairs (..., 2) and phases.

    With H = h0 I + h.sigma and r = |h|, a = cos(dt r) - i s hz,
    b = -i s (hx + i hy) and phi = -dt h0, where s = sin(dt r)/r, all in real
    arithmetic.  The pairs are stored component-major, so that a and b are
    each contiguous: a and b are written into out[0] and out[1] of the
    caller's (2, ...) buffer `out`.  s is dt * np.sinc(dt r / pi), its operations done in
    place, not sin(dt r) / r: it is exact at r = 0, and it keeps an absurdly
    coarse grid visible.  np.sinc rounds its scaled argument apart from the
    cos(dt r) beside it, so once dt r is huge a and b no longer make a
    unitary and `PropagatorPath`'s gate fails (`simulate --omega 1e-300
    --steps 20`: defect 0.249).  With sin(x)/x at the same x as cos, that run
    passes the gate and prints phi_d = 6.25e300.
    """
    h00, h11 = H[..., 0, 0].real, H[..., 1, 1].real
    hz = 0.5 * (h00 - h11)
    hx, hy = H[..., 1, 0].real, H[..., 1, 0].imag
    x = dt * np.sqrt(hz * hz + hx * hx + hy * hy)
    y = np.divide(x, np.pi, out=np.empty_like(x))  # s = dt * np.sinc(x / pi), in place
    y *= np.pi
    np.copyto(y, np.finfo(float).eps, where=y == 0.0)
    s = np.sin(y)
    s /= y
    s *= dt
    a, b = out[0, ...], out[1, ...]  # views, also for a single matrix
    np.cos(x, out=a.real)
    np.multiply(s, hy, out=b.real)
    s = -s
    np.multiply(s, hz, out=a.imag)
    np.multiply(s, hx, out=b.imag)
    return np.moveaxis(out, 0, -1), -dt * (0.5 * (h00 + h11))


def _two_level_matrices(pairs: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """e^{i phi} [[a, -conj(b)], [b, conj(a)]] for pairs (..., 2) and real
    phases phi (...), as a stack (..., 2, 2)."""
    a, b = pairs[..., 0], pairs[..., 1]
    out = np.moveaxis(np.empty((2, 2, *phases.shape), dtype=complex), (0, 1), (-2, -1))
    e = _phase_factors(phases)
    np.multiply(e, a, out=out[..., 0, 0])
    np.multiply(e, b, out=out[..., 1, 0])
    np.multiply(e, np.conj(a), out=out[..., 1, 1])
    np.multiply(-e, np.conj(b), out=out[..., 0, 1])
    return out


def _phase_factors(phases: np.ndarray) -> np.ndarray:
    """e^{i phi} = cos phi + i sin phi for real phases phi."""
    e = np.empty(np.shape(phases), dtype=complex)
    np.cos(phases, out=e.real)
    np.sin(phases, out=e.imag)
    return e


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
    multiplied one by one.  Scratch arrays take the layout of `out`, not of
    `steps`, because the scan reshapes them as it reshapes `out` and needs
    views: `out` is C-contiguous for matrices (`_matrix_product` merges a
    block's rows) and component-major for pairs, while `steps` may be any
    stack.
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
    src = np.empty_like(out, shape=(block * blocks, *element)).reshape(block, blocks, *element)
    src[tail:, -1] = 0.0  # a partial last block is padded with zeros
    np.swapaxes(src[:, :full], 0, 1)[...] = steps[: n - tail].reshape(full, block, *element)
    src[:tail, -1] = steps[n - tail :]
    scan = out.reshape(block, blocks, *element)  # src[k, m] = steps[block m + k]
    scan[0] = src[0]
    for k in range(1, block):
        product(src[k], scan[k - 1], scan[k])
    # carry[m] = T_m ... T_0 over the block totals T; block m + 1 takes carry[m]
    carry = np.empty_like(out, shape=(_scan_length(blocks - 1), *element))
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
