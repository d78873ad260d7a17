"""The commuting left/right unitary actions on complex matrices."""

import numpy as np
import pytest

from dualpairs import unitary
from dualpairs.linalg import random_group_element, stream_rng
from dualpairs.pairs import LevelMismatchError


def _random_complex(n, m, seed, stream=0):
    rng = stream_rng(seed, stream)
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def _with_zero_singular_values(n, m, k, seed):
    """n x m matrix with exactly k vanishing singular values."""
    rng = stream_rng(seed, 9)
    sig = np.concatenate([np.linspace(2.0, 1.0, m - k), np.zeros(k)])
    D = np.zeros((n, m))
    D[:m, :m] = np.diag(sig)
    U = random_group_element("unitary", n, seed, 10)
    V = random_group_element("unitary", m, seed, 11)
    return U @ D @ np.conj(V).T


def test_momentum_left_zero():
    np.testing.assert_array_equal(unitary.momentum_left(np.zeros((2, 1))),
                                  np.zeros((2, 2)))


def test_momentum_left_hand_value():
    out = unitary.momentum_left(np.array([[1.0], [0.0]]))
    np.testing.assert_array_equal(out, 0.5j * np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_momentum_right_hand_value():
    out = unitary.momentum_right(np.array([[1.0], [0.0]]))
    np.testing.assert_array_equal(out, np.array([[0.5j]]))


def test_momenta_anti_hermitian():
    E = _random_complex(4, 3, 60)
    for j in (unitary.momentum_left(E), unitary.momentum_right(E)):
        assert np.linalg.norm(j + np.conj(j).T) <= 1e-14 * np.linalg.norm(j)


def test_momenta_share_trace():
    E = _random_complex(3, 2, 61)
    assert np.trace(unitary.momentum_left(E)) == pytest.approx(
        np.trace(unitary.momentum_right(E)))


def test_witness_left_fixed_point():
    E = _random_complex(3, 2, 62)
    rep = unitary.witness_left(E, E)
    assert rep.residual <= 1e-12
    assert rep.witness.shape == (3, 3)


def test_witness_left_swap_case():
    E = np.array([[1.0], [0.0]])
    E2 = np.array([[0.0], [1.0]])
    rep = unitary.witness_left(E, E2)
    U = rep.witness
    np.testing.assert_allclose(np.conj(U).T @ U, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(U @ E, E2, atol=1e-12)


def test_witness_left_recovers_fiber():
    E = _random_complex(4, 2, 63)
    U0 = random_group_element("unitary", 4, 64)
    rep = unitary.witness_left(E, U0 @ E)
    assert rep.residual <= 1e-9
    U = rep.witness
    assert np.linalg.norm(np.conj(U).T @ U - np.eye(4)) <= 1e-11


def test_witness_left_rank_deficient_inputs():
    # zero column keeps the right momenta equal while dropping rank
    E = _random_complex(4, 3, 65)
    E[:, 2] = 0.0
    U0 = random_group_element("unitary", 4, 66)
    rep = unitary.witness_left(E, U0 @ E)
    assert rep.residual <= 1e-9


def test_witness_left_level_mismatch():
    with pytest.raises(LevelMismatchError):
        unitary.witness_left(_random_complex(3, 2, 67),
                             _random_complex(3, 2, 68))


def test_witness_right_fixed_point():
    E = _random_complex(3, 3, 69)
    assert unitary.witness_right(E, E).residual <= 1e-12


def test_witness_right_recovers_fiber():
    E = _random_complex(3, 3, 70)
    V0 = random_group_element("unitary", 3, 71)
    rep = unitary.witness_right(E, E @ V0)
    assert rep.residual <= 1e-9
    V = rep.witness
    assert np.linalg.norm(np.conj(V).T @ V - np.eye(3)) <= 1e-11


def test_witness_right_swap_case():
    E = np.array([[1.0, 0.0]])
    E2 = np.array([[0.0, 1.0]])
    rep = unitary.witness_right(E, E2)
    np.testing.assert_allclose(E @ rep.witness, E2, atol=1e-12)


def test_witness_right_level_mismatch():
    with pytest.raises(LevelMismatchError):
        unitary.witness_right(_random_complex(2, 2, 72),
                              2.0 * _random_complex(2, 2, 72))


def _sigmas(E):
    return unitary.orbit(E)[0]["sigmas"]


def test_orbit_invariants_zero():
    np.testing.assert_array_equal(_sigmas(np.zeros((3, 2))), np.zeros(2))


def test_orbit_invariants_diagonal():
    E = np.zeros((3, 2))
    E[0, 0] = 3.0
    E[1, 1] = 1.0
    np.testing.assert_allclose(_sigmas(E), [3.0, 1.0])


def test_orbit_invariants_match_right_momentum_spectrum():
    E = _random_complex(4, 3, 73)
    sig = np.array(_sigmas(E))
    eigs = np.sort(np.linalg.eigvalsh(-2j * unitary.momentum_right(E)))[::-1]
    np.testing.assert_allclose(eigs, sig**2, atol=1e-9)


def test_jacobian_rank_full_rank_points():
    for n, m in ((2, 2), (3, 2), (4, 3)):
        E = _random_complex(n, m, 74 + n)
        assert unitary.jacobian_rank_right(E) == m * m


def test_jacobian_rank_zero_matrix():
    assert unitary.jacobian_rank_right(np.zeros((3, 2))) == 0


def test_jacobian_rank_single_defect_case():
    E = _with_zero_singular_values(3, 2, 1, seed=75)
    assert unitary.jacobian_rank_right(E) == 3


def test_jacobian_rank_matches_block_count():
    # with k vanishing singular values the image splits into a Hermitian
    # (m-k) x (m-k) block and a free complex (m-k) x k block, so the
    # real rank is m^2 - k^2 for every defect level k
    for n in range(1, 5):
        for m in range(1, n + 1):
            for k in range(m + 1):
                E = _with_zero_singular_values(n, m, k, seed=100 + 10 * n + m)
                assert unitary.jacobian_rank_right(E) == m * m - k * k
