"""linalg contracts: exponentials, eigendecomposition gauge, diagnostics."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from phaselab.exceptions import ContractError, DimensionError, NumericError
from phaselab.linalg import (
    _matrix_product,
    _pair_product,
    _two_level_matrices,
    frobenius_norm,
    hermitian_eigen,
    hermitian_step_exp,
    hermiticity_defect,
    ordered_exponentials,
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
    batch = [random_hermitian(rng, dim, scale=2.0) for dim in (2, 3, 4) for _ in range(4)]
    batch.append(1.3 * np.eye(3, dtype=complex))  # H = c I
    Q = random_unitary(rng, 3)
    batch.append(Q @ np.diag([0.5, 0.5, -1.2]) @ np.conj(Q.T))  # repeated eigenvalue
    # edge cases of the d = 2 closed form
    batch.append(-0.8 * np.eye(2, dtype=complex))  # H = c I exactly: r = 0
    batch.append(np.array([[3.0, 9.0], [9.0, -3.0]], dtype=complex))  # dt r > pi
    batch.append(np.array([[0.0, 0.4 - 1.1j], [0.4 + 1.1j, 0.0]]))  # complex off-diagonal
    batch.append(np.array([[2.5, 0.3 + 0.2j], [0.3 - 0.2j, 1.9]]))  # non-zero trace
    for H in batch:
        step = hermitian_step_exp(H, dt)
        assert np.max(np.abs(step - mat_exp(-1j * dt * H))) < 1e-13
        assert unitarity_defect(step) < 1e-12
    stack = np.stack([H for H in batch if H.shape == (2, 2)])
    batched = hermitian_step_exp(stack, dt)
    for j, H in enumerate(stack):
        assert np.max(np.abs(batched[j] - mat_exp(-1j * dt * H))) < 1e-13


def field_component():
    """A Pauli-vector component, with exact zeros and near-degenerate sizes."""
    return st.one_of(st.just(0.0), st.floats(-1e-8, 1e-8), st.floats(-10.0, 10.0))


@given(h0=st.floats(-10.0, 10.0), hx=field_component(), hy=field_component(),
       hz=field_component(), dt=st.floats(1e-4, 1.0))
def test_two_level_step_exp_matches_eigh_formula(h0, hx, hy, hz, dt):
    H = np.array([[h0 + hz, hx - 1j * hy], [hx + 1j * hy, h0 - hz]])
    vals, vecs = np.linalg.eigh(H)
    expected = (vecs * np.exp(-1j * dt * vals)) @ np.conj(vecs.T)
    step = hermitian_step_exp(H, dt)
    assert np.max(np.abs(step - expected)) < 1e-13
    assert unitarity_defect(step) < 1e-13


def test_eigen_sigma_z():
    vals, vecs = hermitian_eigen(SZ)
    assert np.allclose(vals, [-1.0, 1.0])
    assert np.allclose(vecs[:, 0], [0.0, 1.0])
    assert np.allclose(vecs[:, 1], [1.0, 0.0])


def test_eigen_transverse_field():
    # -mu B (B_hat . sigma) at theta = pi/2, phi = 0 is -mu B sigma_x
    mu_b = 0.7
    H = -mu_b * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    vals, vecs = hermitian_eigen(H)
    assert np.allclose(vals, [-mu_b, mu_b])
    assert np.allclose(vecs[:, 0], np.array([1.0, 1.0]) / np.sqrt(2))
    assert np.allclose(vecs[:, 1], np.array([1.0, -1.0]) / np.sqrt(2))


def test_eigen_reconstruction():
    rng = np.random.default_rng(23)
    H = random_hermitian(rng, 5)
    vals, vecs = hermitian_eigen(H)
    rebuilt = (vecs * vals[None, :]) @ np.conj(vecs.T)
    assert np.max(np.abs(rebuilt - H)) < 1e-10


def test_eigen_residual_and_orthonormality():
    rng = np.random.default_rng(29)
    H = random_hermitian(rng, 6, scale=4.0)
    vals, vecs = hermitian_eigen(H)
    assert np.all(np.diff(vals) >= 0)
    residual = np.max(np.abs(H @ vecs - vecs * vals[None, :]))
    assert residual < 1e-10
    assert np.max(np.abs(np.conj(vecs.T) @ vecs - np.eye(6))) < 1e-10


def test_eigen_phase_convention():
    rng = np.random.default_rng(31)
    H = random_hermitian(rng, 5)
    _, vecs = hermitian_eigen(H)
    for k in range(5):
        pivot = vecs[np.argmax(np.abs(vecs[:, k])), k]
        assert abs(pivot.imag) < 1e-14
        assert pivot.real > 0


def test_eigenvalues_invariant_under_conjugation():
    rng = np.random.default_rng(37)
    H = random_hermitian(rng, 4)
    V = random_unitary(rng, 4)
    vals, _ = hermitian_eigen(H)
    vals_conj, _ = hermitian_eigen(V @ H @ np.conj(V.T), tol=1e-10)
    assert np.max(np.abs(vals - vals_conj)) < 1e-10


def test_eigen_rejects_non_hermitian():
    M = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ContractError):
        hermitian_eigen(M)


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
            assert abs(hermiticity_defect(V) - expected) <= 1e-15 * expected


@pytest.mark.parametrize("entry", [np.nan, 1e200], ids=["nan", "overflowing"])
def test_two_level_stacks_with_a_bad_entry_fail_the_hermiticity_check(entry):
    stack = np.stack([SZ] * 5)
    stack[3, 0, 1] = entry
    with pytest.raises(ContractError):
        require_hermitian(stack)
    stack[3, 1, 0] = entry  # Hermitian, but not finite
    with pytest.raises(ContractError, match="non-finite"):
        require_hermitian(stack)
