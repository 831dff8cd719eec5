"""linalg contracts: exponentials, ordered products, diagnostics."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from phaselab.exceptions import ContractError, DimensionError, NumericError
from phaselab.linalg import (
    _matrix_product,
    _pair_norms,
    _pair_product,
    _scan,
    _scan_length,
    _two_level_matrices,
    _two_level_squares,
    _two_level_steps,
    frobenius_norm,
    hermitian_step_exp,
    hermiticity_defect,
    ordered_exponentials,
    ordered_pairs,
    pair_norm_defect,
    require_hermitian,
    unitarity_defect,
)

from conftest import mat_exp, random_hermitian, random_unitary

SZ = np.diag([1.0, -1.0]).astype(complex)


def taylor_exp(M: np.ndarray, terms: int = 60) -> np.ndarray:
    """Independent oracle: plain Taylor summation, valid for ||M|| <= 1."""
    out = np.eye(M.shape[0], dtype=complex)
    term = np.eye(M.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ M / k
        out = out + term
    return out


def test_exp_zero_is_identity():
    assert np.array_equal(mat_exp(np.zeros((3, 3))), np.eye(3))


def test_exp_diagonal():
    M = -1j * (np.pi / 2) * SZ
    expected = np.diag([-1j, 1j])
    assert np.max(np.abs(mat_exp(M) - expected)) < 1e-14


def test_exp_matches_taylor_oracle():
    rng = np.random.default_rng(11)
    for _ in range(5):
        H = random_hermitian(rng, 4)
        M = -1j * H
        M *= 0.9 / np.linalg.norm(M)  # keep the oracle's radius
        assert np.max(np.abs(mat_exp(M) - taylor_exp(M))) < 1e-14


def test_exp_of_skew_hermitian_is_unitary():
    rng = np.random.default_rng(5)
    for dim in (2, 3, 5):
        M = -1j * random_hermitian(rng, dim, scale=3.0)
        assert unitarity_defect(mat_exp(M)) < 1e-10


def test_exp_inverse_property():
    rng = np.random.default_rng(7)
    for _ in range(5):
        M = -1j * random_hermitian(rng, 3)
        M *= 5.0 / np.linalg.norm(M)
        product = mat_exp(M) @ mat_exp(-M)
        assert np.max(np.abs(product - np.eye(3))) < 1e-10


def test_det_exp_equals_exp_trace():
    rng = np.random.default_rng(13)
    for dim in (2, 3, 4, 5):
        M = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        M *= 2.0 / np.linalg.norm(M)
        assert abs(np.linalg.det(mat_exp(M)) - np.exp(np.trace(M))) < 1e-8


def test_exp_batched_matches_loop():
    # the batch shares one scaling power, so agreement is to roundoff, not bitwise
    rng = np.random.default_rng(17)
    stack = np.stack([-1j * random_hermitian(rng, 2) for _ in range(6)])
    batched = mat_exp(stack)
    for j in range(6):
        assert np.max(np.abs(batched[j] - mat_exp(stack[j]))) < 1e-14


def test_exp_rejects_bad_input():
    with pytest.raises(DimensionError):
        mat_exp(np.zeros((2, 3)))
    bad = np.zeros((2, 2))
    bad[0, 0] = np.nan
    with pytest.raises(NumericError):
        mat_exp(bad)


def test_exp_deterministic():
    rng = np.random.default_rng(3)
    M = -1j * random_hermitian(rng, 4, scale=2.0)
    assert np.array_equal(mat_exp(M), mat_exp(M))


def test_hermitian_step_exp_matches_taylor_kernel():
    rng = np.random.default_rng(19)
    dt = 0.37
    batch = [random_hermitian(rng, dim, scale=2.0) for dim in (1, 2, 3, 4, 5, 6) for _ in range(4)]
    batch.append(1.3 * np.eye(3, dtype=complex))  # H = c I
    batch.append(-0.8 * np.eye(2, dtype=complex))
    Q = random_unitary(rng, 3)
    batch.append(Q @ np.diag([0.5, 0.5, -1.2]) @ np.conj(Q.T))  # repeated eigenvalue
    Q = random_unitary(rng, 5)
    batch.append(Q @ np.diag([2.0, -1.0, 2.0, -1.0, 2.0]) @ np.conj(Q.T))  # two, repeated
    batch.append(np.array([[3.0, 9.0], [9.0, -3.0]], dtype=complex))  # dt ||H||_1 > 4: squarings
    batch.append(random_hermitian(rng, 4, scale=40.0))  # dt ||H||_1 of order 100
    batch.append(np.array([[0.0, 0.4 - 1.1j], [0.4 + 1.1j, 0.0]]))  # complex off-diagonal
    batch.append(np.array([[2.5, 0.3 + 0.2j], [0.3 - 0.2j, 1.9]]))  # non-zero trace
    for H in batch:
        step = hermitian_step_exp(H, dt)
        assert step.shape == H.shape
        assert np.max(np.abs(step - mat_exp(-1j * dt * H))) < 1e-13
        assert unitarity_defect(step) < 1e-12
    # stacks share one scaling: a small H next to a large one is squared too
    for dim in (2, 3, 5):
        stack = np.stack([H for H in batch if H.shape == (dim, dim)])
        batched = hermitian_step_exp(stack, dt)
        assert batched.flags.c_contiguous
        for j, H in enumerate(stack):
            assert np.max(np.abs(batched[j] - mat_exp(-1j * dt * H))) < 1e-13
        assert hermitian_step_exp(stack, dt).tobytes() == batched.tobytes()


def eigh_step_exp(H, dt):
    """exp(-i dt H) from one batched eigendecomposition, the form the
    library used before its Taylor kernel."""
    vals, vecs = np.linalg.eigh(H)
    return (vecs * np.exp(-1j * dt * vals)[..., None, :]) @ np.conj(np.swapaxes(vecs, -2, -1))


@pytest.mark.parametrize("dim", [3, 4])
@pytest.mark.parametrize("steps", [200, 400, 20000])
def test_hermitian_step_exp_matches_eigh_on_sampled_models(dim, steps):
    # the custom-sampled files of the benchmark's cli-small mix: H(t) = A +
    # B cos(2 pi t) + C sin(2 pi t) with unit-scale Hermitian A, B, C, at the
    # midpoints of [0, 1]; dt = 0.5 needs one or two squarings
    rng = np.random.default_rng(83 + dim)
    A, B, C = (random_hermitian(rng, dim, scale=np.sqrt(2.0 / dim)) for _ in range(3))
    t = (np.arange(steps) + 0.5) / steps
    H = (A + np.cos(2 * np.pi * t)[:, None, None] * B + np.sin(2 * np.pi * t)[:, None, None] * C)
    for dt in (1.0 / steps, 0.5):
        step = hermitian_step_exp(H, dt)
        assert np.max(np.abs(step - eigh_step_exp(H, dt))) < 1e-14
        assert unitarity_defect(step) < 1e-12


def test_step_exponent_beyond_the_squaring_cap_is_rejected():
    # dt ||H||_1 up to 2^16 is squared and stays unitary well inside the
    # propagator's 1e-9; beyond it, and for an overflowing or NaN exponent,
    # the kernel refuses instead of returning rounding noise
    rng = np.random.default_rng(89)
    H = np.stack([random_hermitian(rng, 3) for _ in range(8)])
    scale = float(np.max(np.abs(H).sum(axis=-2)))
    assert unitarity_defect(hermitian_step_exp(H, 2.0**16 * 0.999 / scale)) < 1e-10
    for dt in (2.0**16 * 1.001 / scale, 1e300, np.nan):
        with pytest.raises(ContractError, match="exceeds 2\\^16"):
            hermitian_step_exp(H, dt)
    with pytest.raises(ContractError):
        hermitian_step_exp(1e200 * H, 1e200)


def field_component():
    """A Pauli-vector component, with exact zeros and near-degenerate sizes."""
    return st.one_of(st.just(0.0), st.floats(-1e-8, 1e-8), st.floats(-10.0, 10.0))


@given(h0=st.floats(-10.0, 10.0), hx=field_component(), hy=field_component(),
       hz=field_component(), dt=st.floats(1e-4, 1.0))
def test_two_level_step_exp_matches_eigh_formula(h0, hx, hy, hz, dt):
    # the closed form of the two-level propagation, e^{i phi} [[a, -conj(b)],
    # [b, conj(a)]] from `_two_level_steps`, materialized as matrices
    H = np.array([[h0 + hz, hx - 1j * hy], [hx + 1j * hy, h0 - hz]])
    step = _two_level_matrices(*_two_level_steps(H, dt, np.empty(2, dtype=complex)))
    assert np.max(np.abs(step - eigh_step_exp(H, dt))) < 1e-13
    assert unitarity_defect(step) < 1e-13


def test_two_level_steps_take_numpy_sinc_bitwise():
    # s = dt sin(x)/x, done in place, against the form dt * np.sinc(x / pi) bit
    # for bit at x = dt r = 0, 1e-300, 1 and 1e300: exact at 0, and rounded as
    # far out as np.sinc, whose drift from cos(x) the unitarity gate catches
    rng = np.random.default_rng(71)
    field = np.array([[0.6, 0.8], [0.8, -0.6]], dtype=complex)  # r = 1
    H = np.stack([np.zeros((2, 2)), field] + [random_hermitian(rng, 2) for _ in range(6)])
    for dt in (1e-300, 1.0, 1e300):
        h00, h11 = H[:, 0, 0].real, H[:, 1, 1].real
        hz = 0.5 * (h00 - h11)
        hx, hy = H[:, 1, 0].real, H[:, 1, 0].imag
        x = dt * np.sqrt(hz * hz + hx * hx + hy * hy)
        s = dt * np.sinc(x / np.pi)
        pairs, phases = _two_level_steps(H, dt, np.empty((2, len(H)), dtype=complex))
        a, b = pairs[:, 0], pairs[:, 1]
        assert x[0] == 0.0 and x[1] == pytest.approx(dt, rel=1e-15)
        for got, expected in ((a.real, np.cos(x)), (a.imag, -s * hz), (b.real, s * hy),
                              (b.imag, -s * hx), (phases, -dt * (0.5 * (h00 + h11)))):
            assert got.tobytes() == expected.tobytes()


def test_unitarity_defect_values():
    assert unitarity_defect(np.eye(4)) == 0.0
    assert abs(unitarity_defect(2.0 * np.eye(2)) - 3.0 * np.sqrt(2)) < 1e-14


def random_stack(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def as_matrices(pairs):
    """[[a, -conj(b)], [b, conj(a)]] for Cayley-Klein pairs (..., 2)."""
    return _two_level_matrices(pairs, np.zeros(pairs.shape[:-1]))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_stacked_product_kernel_matches_matmul(dim):
    # stacks, as the blocked prefix product's scan multiplies them; single
    # elements, as its plain loop does; a broadcast and strided views.  At
    # dim 2 the elements are Cayley-Klein pairs, whose product is checked
    # against np.matmul of the materialized matrices
    rng = np.random.default_rng(53)
    blocks, block = 7, 5
    element = (2,) if dim == 2 else (dim, dim)
    operands = [
        (random_stack(rng, (blocks, *element)), random_stack(rng, (blocks, *element))),
        (random_stack(rng, element), random_stack(rng, element)),
        (random_stack(rng, (blocks, block, *element)), random_stack(rng, (blocks, 1, *element))),
    ]
    scan = random_stack(rng, (blocks, block, *element))
    operands.append((scan[:, 3], scan[:, 2]))
    if dim == 2:  # component-major, the layout of the propagator's pairs
        operands.append(tuple(np.moveaxis(random_stack(rng, (2, blocks)), 0, -1) for _ in "xy"))
    for x, y in operands:
        got = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
        if dim == 2:
            _pair_product(x, y, got)
            expected = np.matmul(as_matrices(x), as_matrices(y))
            assert np.max(np.abs(as_matrices(got) - expected)) < 1e-14
        else:
            _matrix_product(x, y, got)
            assert np.array_equal(got, np.matmul(x, y))


def test_two_level_matrices_are_the_phased_pair_matrices():
    # e^{i phi} [[a, -conj(b)], [b, conj(a)]] entry for entry, with e^{i phi}
    # as cos phi + i sin phi; a single pair gives its row of the stack
    rng = np.random.default_rng(67)
    pairs = random_stack(rng, (9, 2))
    phases = rng.normal(size=9) * 4.0
    e = np.cos(phases) + 1j * np.sin(phases)
    a, b = pairs[:, 0], pairs[:, 1]
    U = _two_level_matrices(pairs, phases)
    assert U.shape == (9, 2, 2)
    assert np.array_equal(U[:, 0, 0], e * a)
    assert np.array_equal(U[:, 1, 0], e * b)
    assert np.array_equal(U[:, 0, 1], -e * np.conj(b))
    assert np.array_equal(U[:, 1, 1], e * np.conj(a))
    assert np.array_equal(_two_level_matrices(pairs[4], phases[4]), U[4])
    # all phases zero, as for a traceless H: the entries are the pair's own,
    # e^{i 0} = 1 changing at most the sign of a zero
    U = _two_level_matrices(pairs, np.zeros(9))
    assert np.array_equal(U[:, 0, 0], a) and np.array_equal(U[:, 1, 0], b)
    assert np.array_equal(U[:, 0, 1], -np.conj(b)) and np.array_equal(U[:, 1, 1], np.conj(a))


@pytest.mark.parametrize("steps", [1, 64, 65, 1041])
def test_two_level_products_start_at_the_identity_and_carry_the_phase(steps):
    # a trace-carrying H = c_j I + h_j.sigma: U(0) = I exactly, and the U(1)
    # channel makes det U(t_j) = exp(-2 i dt sum_{i<j} c_i)
    rng = np.random.default_rng(71)
    H = np.stack([random_hermitian(rng, 2, scale=2.0) for _ in range(steps)])
    dt = 0.05
    U = ordered_exponentials(H, dt)
    assert U.shape == (steps + 1, 2, 2)
    assert np.array_equal(U[0], np.eye(2))
    phases = np.concatenate([[0.0], np.cumsum(-dt * 0.5 * np.trace(H, axis1=1, axis2=2).real)])
    assert np.max(np.abs(np.linalg.det(U) - np.exp(2j * phases))) < 1e-12
    assert unitarity_defect(U) < 1e-12


@pytest.mark.parametrize("layout", ["C", "F", "component-major"])
def test_matrix_scan_is_independent_of_the_step_layout(layout):
    # 1041 steps leave 65 block totals, so the carries take one more level
    # of the scan; its scratch once followed the steps' layout, and a
    # non-C-contiguous stack put the carries into a discarded copy
    rng = np.random.default_rng(73)
    steps = np.stack([random_unitary(rng, 3) for _ in range(1041)])
    expected = np.empty_like(steps)
    expected[0] = steps[0]
    for j in range(1, len(steps)):
        expected[j] = steps[j] @ expected[j - 1]
    if layout == "F":
        steps = np.asfortranarray(steps)
    elif layout == "component-major":
        steps = np.ascontiguousarray(np.moveaxis(steps, 0, -1)).transpose(2, 0, 1)
    out = np.empty((_scan_length(len(steps)), 3, 3), dtype=complex)
    _scan(steps, out, _matrix_product)
    assert np.max(np.abs(out[: len(steps)] - expected)) < 1e-12


def test_unitarity_defect_of_two_level_stacks_matches_matmul():
    rng = np.random.default_rng(59)
    unitary = np.stack([random_unitary(rng, 2) for _ in range(40)])
    for scale in (0.0, 1e-12, 1e-6, 1.0):
        U = unitary + scale * random_stack(rng, unitary.shape)
        expected = frobenius_norm(np.matmul(np.conj(np.swapaxes(U, -2, -1)), U) - np.eye(2))
        assert abs(unitarity_defect(U) - expected) <= 1e-15 + 1e-13 * expected


def test_nan_fails_the_hermiticity_check():
    nan = np.full((3, 2, 2), np.nan, dtype=complex)
    with pytest.raises(ContractError):
        require_hermitian(nan)
    assert np.isnan(unitarity_defect(nan))  # so callers compare it as `not defect <= tol`


@pytest.mark.parametrize("M", [
    [[0.0, 1e200], [0.0, 0.0]],  # its defect and bound both overflow to inf
    [[1e200, 0.0], [0.0, -1e200]],  # Hermitian, but the norm overflows all the same
    [[1.0, np.nan], [np.nan, 1.0]],
], ids=["overflowing-non-hermitian", "overflowing-hermitian", "nan-entry"])
def test_non_finite_norm_fails_the_hermiticity_check(M):
    with pytest.raises(ContractError, match="non-finite"):
        require_hermitian(np.array(M))


def _old_frobenius_norm(M):
    return float(np.max(np.sqrt((np.abs(M) ** 2).sum(axis=(-2, -1)))))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_norms_match_the_elementwise_forms(dim):
    # the real-view einsum against the |M|^2 sums it replaced, on contiguous,
    # transposed (non-contiguous) and real input; unitarity_defect on near-
    # unitary and far-from-unitary stacks, contiguous and transposed
    rng = np.random.default_rng(70 + dim)
    M = random_stack(rng, (6, dim, dim))
    for A in (M, np.swapaxes(M, -2, -1), M[0], M[0].T, M.real, np.swapaxes(M.imag, -2, -1)):
        expected = _old_frobenius_norm(A)
        assert abs(frobenius_norm(A) - expected) <= 1e-14 * expected
    unitary = np.stack([random_unitary(rng, dim) for _ in range(6)])
    for scale in (0.0, 1e-9, 1.0):
        U = unitary + scale * random_stack(rng, unitary.shape)
        for V in (U, np.swapaxes(U, -2, -1), U[0]):
            gram = np.matmul(np.conj(np.swapaxes(V, -2, -1)), V)
            expected = _old_frobenius_norm(gram - np.eye(dim))
            assert abs(unitarity_defect(V) - expected) <= 1e-15 + 1e-13 * expected


def test_hermiticity_defect():
    assert hermiticity_defect(SZ) == 0.0
    assert hermiticity_defect(np.array([[0, 1j], [1j, 0]])) > 1.0


def test_hermiticity_defect_of_two_level_stacks_matches_the_difference():
    # the entrywise 2x2 form against ||M - M^H||_F formed in full, on exactly
    # Hermitian, nearly Hermitian and far from Hermitian stacks, contiguous
    # and transposed (non-contiguous)
    rng = np.random.default_rng(61)
    A = random_stack(rng, (40, 2, 2))
    hermitian = A + np.conj(np.swapaxes(A, -2, -1))
    for scale in (0.0, 1e-13, 1e-6, 1.0):
        M = hermitian + scale * random_stack(rng, A.shape)
        for V in (M, np.swapaxes(M, -2, -1), M[::3]):
            expected = frobenius_norm(V - np.conj(np.swapaxes(V, -2, -1)))
            got = np.sqrt(np.max(_two_level_squares(V)[0]))
            assert abs(got - expected) <= 1e-15 * expected


@pytest.mark.parametrize("entry", [np.nan, 1e200], ids=["nan", "overflowing"])
def test_two_level_stacks_with_a_bad_entry_fail_the_hermiticity_check(entry):
    stack = np.stack([SZ] * 5)
    stack[3, 0, 1] = entry
    with pytest.raises(ContractError):
        require_hermitian(stack)
    stack[3, 1, 0] = entry  # Hermitian, but not finite
    with pytest.raises(ContractError, match="non-finite"):
        require_hermitian(stack)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_gates_read_every_matrix_of_a_long_stack(dim):
    # the unitarity check runs piece by piece, 2^14 entries each, and the
    # Hermiticity check over the whole stack: on a stack of several pieces and
    # a partial last one both match the general forms formed in full, wherever
    # the worst matrix sits, and a NaN in a middle piece fails both
    rng = np.random.default_rng(80 + dim)
    n = 3 * (2**14 // dim**2) + 5
    A = random_stack(rng, (n, dim, dim))
    hermitian = A + np.conj(np.swapaxes(A, -2, -1))
    unitary = np.stack([random_unitary(rng, dim) for _ in range(n)])
    for worst in (0, n // 2, n - 1):
        M, U = hermitian.copy(), unitary.copy()
        M[worst, 0, dim - 1] += 1e-9
        U[worst] *= 1.0 + 1e-7
        gram = np.matmul(np.conj(np.swapaxes(U, -2, -1)), U) - np.eye(dim)
        expected = frobenius_norm(gram)
        assert abs(unitarity_defect(U) - expected) <= 1e-15 + 1e-12 * expected
        with pytest.raises(ContractError, match="not Hermitian") as info:
            require_hermitian(M)
        expected = hermiticity_defect(M)
        assert f"= {expected:.3e}" in str(info.value)
    require_hermitian(hermitian)
    for stack in (hermitian.copy(), unitary.copy()):
        stack[n // 2, 0, 0] = np.nan
        with pytest.raises(ContractError, match="non-finite"):
            require_hermitian(stack)
        assert np.isnan(unitarity_defect(stack))


def test_ordered_pairs_are_the_two_level_products():
    # the pairs and phases formed into U, whatever the layout of H: a
    # Fortran-ordered stack gives the same bits; the Taylor kernel and the
    # matrix scan of `ordered_exponentials` agree with the closed-form pair
    # scan to 1e-13 (the gap is about 4e-15)
    rng = np.random.default_rng(83)
    H = np.stack([random_hermitian(rng, 2, scale=2.0) for _ in range(1041)])
    pairs, phases = ordered_pairs(H, 0.05, (1.0, 0.0))
    assert pairs.shape == (1042, 2) and phases.shape == (1042,)
    assert pairs[:, 0].flags.c_contiguous and pairs[:, 1].flags.c_contiguous
    U = _two_level_matrices(pairs, phases)
    fortran = ordered_pairs(np.asfortranarray(H), 0.05, (1.0, 0.0))
    assert _two_level_matrices(*fortran).tobytes() == U.tobytes()
    assert np.max(np.abs(ordered_exponentials(H, 0.05) - U)) <= 1e-13
    assert pair_norm_defect(_pair_norms(pairs)) < 1e-12
    pairs[7] *= 1.0 + 1e-8
    expected = np.max(np.abs(np.sum(np.abs(pairs) ** 2, axis=1) - 1.0))
    assert 1.9e-8 < expected < 2.1e-8
    assert abs(pair_norm_defect(_pair_norms(pairs)) - expected) <= 1e-15
