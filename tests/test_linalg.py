"""Checks for the shared dense-matrix kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualpairs.linalg import (
    MATCH_RTOL,
    isometry_between,
    omega_complex,
    omega_real,
    random_group_element,
    rank_tol,
    relative_diff,
    skew_canonical,
    standard_J,
    stream_rng,
    trace_pairing,
)


def block_diag_skew(pairs, m: int) -> np.ndarray:
    """blockdiag([[0, a], [-a, 0]], ..., 0) of size m from pair values."""
    B = np.zeros((m, m))
    for i, a in enumerate(pairs):
        B[2 * i, 2 * i + 1] = a
        B[2 * i + 1, 2 * i] = -a
    return B


def test_standard_J_smallest():
    np.testing.assert_array_equal(standard_J(1), [[0.0, 1.0], [-1.0, 0.0]])


def test_standard_J_squares_to_minus_identity():
    J = standard_J(3)
    np.testing.assert_array_equal(J @ J, -np.eye(6))


def test_standard_J_skew():
    J = standard_J(2)
    np.testing.assert_array_equal(J.T, -J)
    with pytest.raises(ValueError):
        standard_J(0)


def test_standard_J_is_one_shared_read_only_array():
    for n in range(1, 17):
        J = standard_J(n)
        assert standard_J(n) is J
        Z, I = np.zeros((n, n)), np.eye(n)
        assert np.array_equal(J, np.block([[Z, I], [-I, Z]]))
        assert J.dtype == float and not J.flags.writeable
        with pytest.raises(ValueError):
            J[0, 0] = 1.0
        with pytest.raises(ValueError):
            J *= 2.0


def test_standard_J_refusal_is_not_cached():
    size = standard_J.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError):
            standard_J(0)
    assert standard_J.cache_info().currsize == size


def test_omega_real_vanishes_on_equal_args():
    X = stream_rng(11, 0).standard_normal((4, 2))
    assert omega_real(X, X) == pytest.approx(0.0, abs=1e-13)


def test_omega_real_hand_value():
    # columns e1, e2 of R^2: Tr(X^T J Y) = 1
    assert omega_real([[1.0], [0.0]], [[0.0], [1.0]]) == pytest.approx(1.0)


def test_omega_real_antisymmetric():
    rng = stream_rng(12, 0)
    X = rng.standard_normal((4, 2))
    Y = rng.standard_normal((4, 2))
    assert omega_real(X, Y) == pytest.approx(-omega_real(Y, X))


def test_omega_real_input_validation():
    with pytest.raises(ValueError):
        omega_real(np.zeros((3, 1)), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        omega_real(np.zeros((4, 1)), np.zeros((4, 2)))
    with pytest.raises(ValueError):
        omega_real(np.zeros((5, 4, 1)), np.zeros((5, 4, 2)))
    with pytest.raises(ValueError):
        omega_real(np.zeros(4), np.zeros(4))
    with pytest.raises(ValueError):
        omega_complex(np.zeros(4), np.zeros(4))


def test_omega_complex_vanishes_on_equal_args():
    E = stream_rng(13, 0).standard_normal((3, 2)) * (1 + 1j)
    assert omega_complex(E, E) == pytest.approx(0.0, abs=1e-13)


def test_omega_complex_hand_value():
    assert omega_complex([[1.0]], [[1.0j]]) == pytest.approx(1.0)


def test_omega_complex_multiplication_by_i():
    rng = stream_rng(14, 0)
    E = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    expected = float(np.real(np.trace(np.conj(E).T @ E)))
    assert omega_complex(E, 1j * E) == pytest.approx(expected)


def test_trace_pairing_identity():
    assert trace_pairing(np.eye(3), np.eye(3)) == pytest.approx(3.0)


def test_trace_pairing_skew_square():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert trace_pairing(a, a) == pytest.approx(-2.0)


def test_trace_pairing_positive_against_adjoint():
    rng = stream_rng(15, 0)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert trace_pairing(a, np.conj(a).T) > 0.0


def test_trace_pairing_shape_validation():
    with pytest.raises(ValueError):
        trace_pairing(np.zeros((2, 3)), np.zeros((2, 3)))


def test_rank_tol_zero_matrix():
    assert rank_tol(np.zeros((3, 2))) == 0


def test_rank_tol_identity():
    assert rank_tol(np.eye(4)) == 4


def test_rank_tol_tiny_singular_value():
    assert rank_tol(np.diag([1.0, 1e-18])) == 1


def test_skew_canonical_zero():
    O, pairs = skew_canonical(np.zeros((3, 3)))
    np.testing.assert_array_equal(O, np.eye(3))
    assert pairs == []


def test_skew_canonical_already_canonical():
    xi = np.array([[0.0, 2.0], [-2.0, 0.0]])
    O, pairs = skew_canonical(xi)
    assert pairs == pytest.approx([2.0])
    np.testing.assert_allclose(O @ xi @ O.T, xi, atol=1e-12)


def test_skew_canonical_rejects_non_skew():
    with pytest.raises(ValueError):
        skew_canonical(np.eye(2))


def test_skew_canonical_roundtrip_6x6():
    a_true = [3.0, 1.5, 0.4]
    B = block_diag_skew(a_true, 6)
    O0 = random_group_element("orthogonal", 6, 77)
    xi = O0.T @ B @ O0
    _, pairs = skew_canonical(xi)
    np.testing.assert_allclose(pairs, a_true, atol=1e-10)


@given(st.integers(min_value=1, max_value=16),
       st.sampled_from(("0", "2", "m-2", "full", "repeated")),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_skew_canonical_random_block_form(m, rank, seed):
    # xi = B C^T - C B^T with B, C of width k has rank 2 min(k, m // 2),
    # so "m-2" leaves a kernel of 2 or 3 rows beside the planes;
    # "repeated" conjugates blocks whose values come in equal pairs
    k = {"0": 0, "2": 1, "m-2": max(0, (m - 2) // 2), "full": m,
         "repeated": m // 2}[rank]
    rng = stream_rng(seed, 5)
    if rank == "repeated":
        a = np.repeat(rng.uniform(0.5, 2.0, size=(k + 1) // 2), 2)[:k]
        O0 = random_group_element("orthogonal", m, seed, 6)
        xi = O0.T @ block_diag_skew(a, m) @ O0
    else:
        B = rng.standard_normal((m, k))
        C = rng.standard_normal((m, k))
        xi = B @ C.T - C @ B.T
    O, pairs = skew_canonical(xi)
    assert len(pairs) == min(k, m // 2)
    np.testing.assert_allclose(O @ O.T, np.eye(m), atol=1e-12)
    blocks = block_diag_skew(pairs, m)
    assert np.linalg.norm(O @ xi @ O.T - blocks) <= 1e-14 * max(1.0, np.linalg.norm(xi))
    assert pairs == sorted(pairs, reverse=True)
    assert all(a > 0 for a in pairs)


@pytest.mark.parametrize("t,count", [(1e-12, 2), (1e-15, 1)])
def test_skew_canonical_cutoff_on_pair_values(t, count):
    # the rank rule applies to the pair values (the singular values of
    # xi), not to their squares: t = 1e-12 lies above 100 * 4 * eps
    O0 = random_group_element("orthogonal", 4, 8)
    xi = O0.T @ block_diag_skew([1.0, t], 4) @ O0
    _, pairs = skew_canonical(xi)
    assert len(pairs) == count
    assert pairs[0] == pytest.approx(1.0, abs=1e-14)


def test_skew_canonical_scale_drops_a_pair_the_default_keeps():
    # 1e-12 lies above the default cutoff 100 * 4 * eps * |xi|_2 but below
    # 100 * 4 * eps * scale at the noise scale 1e6 of a Gram's caller
    O0 = random_group_element("orthogonal", 4, 9)
    xi = O0.T @ block_diag_skew([1.0, 1e-12], 4) @ O0
    assert len(skew_canonical(xi)[1]) == 2
    O, pairs = skew_canonical(xi, 1e6)
    assert pairs == [pytest.approx(1.0, abs=1e-14)]
    np.testing.assert_allclose(O @ O.T, np.eye(4), atol=1e-14)
    np.testing.assert_allclose(O @ xi @ O.T, block_diag_skew(pairs, 4), atol=1e-11)


def test_block_diag_skew_layout():
    B = block_diag_skew([2.0], 3)
    expected = np.array([[0.0, 2.0, 0.0], [-2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    np.testing.assert_array_equal(B, expected)


def test_stream_rng_deterministic():
    a = stream_rng(42, 3).standard_normal(5)
    b = stream_rng(42, 3).standard_normal(5)
    np.testing.assert_array_equal(a, b)


def test_stream_rng_streams_differ():
    a = stream_rng(42, 0).standard_normal(5)
    b = stream_rng(42, 1).standard_normal(5)
    assert not np.array_equal(a, b)


def test_random_group_element_orthogonal():
    G = random_group_element("orthogonal", 3, 9)
    assert np.linalg.norm(G.T @ G - np.eye(3)) <= 1e-12


def test_random_group_element_symplectic():
    G = random_group_element("symplectic", 4, 9)
    J = standard_J(2)
    assert np.linalg.norm(G.T @ J @ G - J) <= 1e-10


def test_random_group_element_unitary():
    G = random_group_element("unitary", 3, 9)
    assert np.linalg.norm(np.conj(G).T @ G - np.eye(3)) <= 1e-12


def test_random_group_element_general_linear_invertible():
    G = random_group_element("general_linear", 4, 9)
    assert rank_tol(G) == 4


_EPS = np.finfo(float).eps


@pytest.mark.parametrize("n", range(1, 17))
def test_random_symplectic_draws_are_symplectic_to_roundoff(n):
    J = standard_J(n)
    for seed in range(120):
        S = random_group_element("symplectic", 2 * n, seed, 3)
        bound = 2 * n * _EPS * np.linalg.norm(S) ** 2
        assert np.linalg.norm(S.T @ J @ S - J) <= bound, seed


@pytest.mark.parametrize("dim", range(2, 33))
def test_random_general_linear_draws_have_cond_at_most_9(dim):
    for seed in range(120):
        G = random_group_element("general_linear", dim, seed, 3)
        assert np.linalg.cond(G) <= 9.0, seed


def test_random_group_element_deterministic():
    np.testing.assert_array_equal(random_group_element("unitary", 3, 5),
                                  random_group_element("unitary", 3, 5))


def test_random_group_element_rejects_bad_input():
    with pytest.raises(ValueError):
        random_group_element("banana", 3, 0)
    with pytest.raises(ValueError):
        random_group_element("symplectic", 3, 0)


def test_isometry_between_transports_columns():
    rng = stream_rng(19, 0)
    A = rng.standard_normal((4, 2))
    W0 = random_group_element("orthogonal", 4, 21)
    W = isometry_between(A, W0 @ A)
    np.testing.assert_allclose(W.T @ W, np.eye(4), atol=1e-11)
    np.testing.assert_allclose(W @ A, W0 @ A, atol=1e-10 * np.linalg.norm(A))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_isometry_between_unitary_transport(seed):
    rng = stream_rng(seed, 6)
    A = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    W0 = random_group_element("unitary", 4, seed, 7)
    W = isometry_between(A, W0 @ A)
    np.testing.assert_allclose(np.conj(W).T @ W, np.eye(4), atol=1e-11)
    np.testing.assert_allclose(W @ A, W0 @ A,
                               atol=1e-10 * max(1.0, np.linalg.norm(A)))


def test_isometry_between_rank_deficient():
    rng = stream_rng(20, 0)
    A = rng.standard_normal((4, 3))
    A[:, 2] = A[:, 0] + A[:, 1]
    W0 = random_group_element("orthogonal", 4, 22)
    W = isometry_between(A, W0 @ A)
    np.testing.assert_allclose(W @ A, W0 @ A, atol=1e-10 * np.linalg.norm(A))


def _unitarity_defect(W):
    return np.linalg.norm(np.conj(W).T @ W - np.eye(W.shape[0]))


def _assert_isometry_transport(A, B):
    # W maps A onto B, is unitary to 10 n eps, keeps the dtype, and two
    # calls agree bit for bit
    W = isometry_between(A, B)
    n = A.shape[0]
    assert W.dtype == A.dtype and W.shape == (n, n)
    assert relative_diff(W @ A, B) <= 1e-14
    assert _unitarity_defect(W) <= 10 * n * np.finfo(float).eps
    np.testing.assert_array_equal(isometry_between(A, B), W)


@pytest.mark.parametrize("seed", range(10))
def test_isometry_between_rank_deficient_complex(seed):
    rng = stream_rng(seed, 23)
    L = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    A = L @ (rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5)))
    assert rank_tol(A) == 2
    _assert_isometry_transport(A, random_group_element("unitary", 6, seed, 24) @ A)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("cplx", [False, True])
def test_isometry_between_more_columns_than_rows(seed, cplx):
    rng = stream_rng(seed, 25)
    A = rng.standard_normal((3, 7))
    if cplx:
        A = A + 1j * rng.standard_normal((3, 7))
        W0 = random_group_element("unitary", 3, seed, 26)
    else:
        W0 = random_group_element("orthogonal", 3, seed, 26)
    _assert_isometry_transport(A, W0 @ A)


def _transport_case(n, k, rank, cplx, seed):
    # A of the given rank, and B = W0 A for a random isometry W0
    rng = stream_rng(seed, 40 + n)

    def draw(rows, cols):
        M = rng.standard_normal((rows, cols))
        return M + 1j * rng.standard_normal((rows, cols)) if cplx else M

    A = draw(n, rank) @ draw(rank, k)
    W0 = random_group_element("unitary" if cplx else "orthogonal", n, seed, 41)
    return A, W0 @ A


_SHAPES = [(32, 16), (16, 1), (4, 4), (16, 16), (4, 16), (12, 16), (16, 32)]


@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("half_rank", [False, True])
@pytest.mark.parametrize("n,k", _SHAPES)
def test_isometry_between_properties(n, k, half_rank, cplx):
    rank = max(1, min(n, k) // 2) if half_rank else min(n, k)
    A, B = _transport_case(n, k, rank, cplx, seed=n + k)
    assert rank_tol(A) == rank
    _assert_isometry_transport(A, B)


@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("n,k,rank", [(16, 12, 12), (12, 16, 6), (8, 8, 4)])
def test_isometry_between_stays_unitary_on_nearly_equal_grams(n, k, rank, cplx):
    # B's Gram matrix is off by about 1e-9 relative, inside MATCH_RTOL:
    # W no longer maps A onto B exactly, but it is still an isometry
    A, B = _transport_case(n, k, rank, cplx, seed=60 + n)
    N = _transport_case(n, k, min(n, k), cplx, seed=61 + n)[0]
    B = B + 1e-9 * np.linalg.norm(A) / np.linalg.norm(N) * N
    gram = np.conj(A).T @ A
    gap = np.linalg.norm(np.conj(B).T @ B - gram) / np.linalg.norm(gram)
    assert 1e-10 < gap <= MATCH_RTOL
    W = isometry_between(A, B)
    assert _unitarity_defect(W) <= 10 * n * np.finfo(float).eps
    assert relative_diff(W @ A, B) <= 1e-8


def test_isometry_between_zero_cases():
    Z = np.zeros((3, 2))
    np.testing.assert_array_equal(isometry_between(Z, Z), np.eye(3))
    with pytest.raises(ValueError):
        isometry_between(Z, np.ones((3, 2)))
    with pytest.raises(ValueError):
        isometry_between(np.zeros((3, 2)), np.zeros((3, 1)))


def test_relative_diff_scales():
    assert relative_diff(np.ones((2, 2)), np.ones((2, 2))) == 0.0
    # denominator floors at 1 so small targets do not inflate the ratio
    assert relative_diff(np.array([[1e-3]]), np.array([[0.0]])) == pytest.approx(1e-3)
