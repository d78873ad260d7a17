"""Cross-pair embeddings and restriction diagrams."""

import numpy as np
import pytest

from dualpairs import seesaw, symplectic, unitary
from dualpairs.general_linear import CotangentPoint
from dualpairs.linalg import omega_complex, omega_real, stream_rng
from dualpairs.pairs import (PAIRS, DualPairInstance, algebra_size, algebra_tag,
                             random_algebra_element)
from test_batched_oracles import _ref_algebra_basis


def test_embed_u_zero():
    np.testing.assert_array_equal(seesaw.embed_u_to_sp(np.zeros((2, 2))),
                                  np.zeros((4, 4)))


def test_embed_u_hand_value():
    out = seesaw.embed_u_to_sp(np.array([[1j]]))
    np.testing.assert_array_equal(out, [[0.0, -1.0], [1.0, 0.0]])


def test_embed_u_lands_in_sp():
    rng = stream_rng(160, 0)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    zeta = A - A.conj().T
    out = seesaw.embed_u_to_sp(zeta)
    J = np.block([[np.zeros((3, 3)), np.eye(3)], [-np.eye(3), np.zeros((3, 3))]])
    assert np.linalg.norm(out.T @ J + J @ out) <= 1e-12


def test_embed_u_bracket_morphism():
    rng = stream_rng(161, 0)
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    x = A - A.conj().T
    y = B - B.conj().T
    left = seesaw.embed_u_to_sp(x @ y - y @ x)
    X = seesaw.embed_u_to_sp(x)
    Y = seesaw.embed_u_to_sp(y)
    np.testing.assert_allclose(left, X @ Y - Y @ X, atol=1e-12)


def test_embed_u_rejects_non_anti_hermitian():
    with pytest.raises(ValueError):
        seesaw.embed_u_to_sp(np.eye(2))


def test_embed_u_tolerance_is_relative_to_the_norm():
    # |zeta|_F is about 1e8 and the defect about 1e-4, a relative 1e-12
    # below ANTI_HERMITIAN_RTOL: accepted, though the defect is far above
    # ANTI_HERMITIAN_RTOL in absolute terms
    rng = stream_rng(162, 0)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    zeta = 1e8 * (A - A.conj().T) + 1e-4 * np.eye(3)
    np.testing.assert_array_equal(seesaw.embed_u_to_sp(zeta)[:3, :3], zeta.real)
    with pytest.raises(ValueError):
        seesaw.embed_u_to_sp(zeta + 1e-1 * np.eye(3))


def test_embed_gl_identity():
    out = seesaw.embed_gl_to_sp(np.eye(2))
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[1, 1] = 1.0
    expected[2, 2] = expected[3, 3] = -1.0
    np.testing.assert_array_equal(out, expected)


def test_embed_gl_shift_placement():
    z = np.array([[0.0, 1.0], [0.0, 0.0]])
    out = seesaw.embed_gl_to_sp(z)
    expected = np.zeros((4, 4))
    expected[0, 1] = 1.0
    expected[3, 2] = -1.0
    np.testing.assert_array_equal(out, expected)


def test_embed_gl_bracket_morphism():
    rng = stream_rng(162, 0)
    x = rng.standard_normal((3, 3))
    y = rng.standard_normal((3, 3))
    left = seesaw.embed_gl_to_sp(x @ y - y @ x)
    X = seesaw.embed_gl_to_sp(x)
    Y = seesaw.embed_gl_to_sp(y)
    np.testing.assert_allclose(left, X @ Y - Y @ X, atol=1e-12)


def test_embed_gl_rejects_nonsquare():
    with pytest.raises(ValueError):
        seesaw.embed_gl_to_sp(np.zeros((2, 3)))


def test_complex_to_real_stacking():
    np.testing.assert_array_equal(unitary.to_real(np.zeros((2, 1), complex)),
                                  np.zeros((4, 1)))
    np.testing.assert_array_equal(unitary.to_real(np.array([[1j]])),
                                  [[0.0], [1.0]])


def test_complex_to_real_preserves_form():
    rng = stream_rng(163, 0)
    E = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    F = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    assert abs(omega_complex(E, F) -
               omega_real(unitary.to_real(E), unitary.to_real(F))) <= 1e-12


def test_complex_to_real_intertwines_action():
    rng = stream_rng(164, 0)
    E = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    zeta = A - A.conj().T
    lhs = unitary.to_real(zeta @ E)
    rhs = seesaw.embed_u_to_sp(zeta) @ unitary.to_real(E)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("pair,embed", [("unitary", seesaw.embed_u_to_sp),
                                        ("symplectic", lambda zeta: zeta),
                                        ("general_linear", seesaw.embed_gl_to_sp)])
@pytest.mark.parametrize("n,m", [(2, 1), (3, 2), (4, 4)])
def test_to_real_is_the_seesaw_real_model(pair, embed, n, m):
    # each pair's real model is a point of Sp(2n,R) x O(m): 2n x m, with
    # o(m) acting on the right by the same product and the left algebra
    # acting through its embedding into sp(2n,R)
    mod = PAIRS[pair]
    rng = stream_rng(171, 16 * n + m)
    inst = DualPairInstance(pair, n, m, mod.random_point(n, m, rng))
    x = mod.to_real(inst.point)
    assert x.shape == (2 * n, m)
    xi = random_algebra_element("o", m, rng)
    assert np.array_equal(mod.to_real(mod.infinitesimal_right(inst.point, xi)), x @ xi)
    zeta = random_algebra_element(algebra_tag(pair, "left"), algebra_size(inst, "left"), rng)
    err = np.linalg.norm(mod.to_real(mod.infinitesimal_left(zeta, inst.point)) - embed(zeta) @ x)
    bound = 4 * 2 * n * np.finfo(float).eps * np.linalg.norm(zeta) * np.linalg.norm(x)
    assert err <= bound


def test_restrict_u_fixed_on_real_skew():
    mu = np.array([[0.0, 2.0], [-2.0, 0.0]], dtype=complex)
    np.testing.assert_allclose(seesaw.restrict_u_to_o(mu),
                               [[0.0, 2.0], [-2.0, 0.0]])


def test_restrict_u_takes_real_part():
    mu = np.array([[1j, 1.0], [-1.0, -1j]])
    np.testing.assert_allclose(seesaw.restrict_u_to_o(mu),
                               [[0.0, 1.0], [-1.0, 0.0]])


@pytest.mark.parametrize("m", range(2, 7))
def test_restrict_u_pairs_with_o_like_its_input(m):
    # restrict_u_to_o takes any complex matrix: for real b in o(m),
    # Re Tr(X b) = Tr(Re(X) b), and each trace is one difference of two
    # entries, so the two sides agree bit for bit
    rng = stream_rng(172, m)
    X = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    assert np.linalg.norm(X + X.conj().T) > 1.0
    R = seesaw.restrict_u_to_o(X)
    for b in _ref_algebra_basis("o", m):
        assert np.real(np.trace(X @ b)) == np.trace(R @ b)


def test_restrict_gl_takes_skew_part():
    xi = np.array([[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(seesaw.restrict_gl_to_o(xi),
                               [[0.0, 0.5], [-0.5, 0.0]])


def test_diagram_u_zero_point():
    out = seesaw.check_diagram_sp_u(np.zeros((2, 1), dtype=complex))
    assert out["left"] <= 1e-15 and out["right"] <= 1e-15


def test_diagram_u_scalar():
    out = seesaw.check_diagram_sp_u(np.array([[1.0 + 0j]]))
    assert out["left"] <= 1e-14 and out["right"] <= 1e-14


def test_diagram_u_random():
    for trial in range(20):
        rng = stream_rng(165, trial)
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        E = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        out = seesaw.check_diagram_sp_u(E)
        assert out["left"] <= 1e-11
        assert out["right"] <= 1e-11


def test_diagram_gl_zero_point():
    pt = CotangentPoint(np.zeros((2, 1)), np.zeros((2, 1)))
    out = seesaw.check_diagram_sp_gl(pt)
    assert out["left"] <= 1e-15 and out["right"] <= 1e-15


def test_diagram_gl_identity_point():
    pt = CotangentPoint(np.eye(1), np.eye(1))
    out = seesaw.check_diagram_sp_gl(pt)
    assert out["left"] <= 1e-14 and out["right"] <= 1e-14


def test_diagram_gl_random():
    for trial in range(20):
        rng = stream_rng(166, trial)
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, n + 1))
        pt = CotangentPoint(rng.standard_normal((n, m)),
                            rng.standard_normal((n, m)))
        out = seesaw.check_diagram_sp_gl(pt)
        assert out["left"] <= 1e-11
        assert out["right"] <= 1e-11


def test_diagram_gl_right_identity_direct():
    # the restricted right momentum is the skew part of P^T Q, which is the
    # right momentum of the stacked realization
    rng = stream_rng(167, 0)
    Q = rng.standard_normal((3, 2))
    P = rng.standard_normal((3, 2))
    stacked = np.vstack([Q, P])
    np.testing.assert_allclose(
        0.5 * (P.T @ Q - Q.T @ P),
        symplectic.momentum_right(stacked), atol=1e-12)


def test_diagram_u_left_pairing_hand_case():
    # E = 3 + 2i: against the generator i both models pair to -13/2
    E = np.array([[3.0 + 2.0j]])
    ju = unitary.momentum_left(E)
    assert abs(np.real(np.trace(ju @ np.array([[1j]]))) + 6.5) <= 1e-13
    jsp = symplectic.momentum_left(unitary.to_real(E))
    emb = seesaw.embed_u_to_sp(np.array([[1j]]))
    assert abs(np.trace(jsp @ emb) + 6.5) <= 1e-13


def test_diagram_u_right_restriction_direct():
    rng = stream_rng(168, 0)
    E = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    lhs = seesaw.restrict_u_to_o(unitary.momentum_right(E))
    rhs = symplectic.momentum_right(unitary.to_real(E))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("restrict,embed,dtype", [
    (seesaw.restrict_sp_to_u, seesaw.embed_u_to_sp, complex),
    (seesaw.restrict_sp_to_gl, seesaw.embed_gl_to_sp, float)])
def test_sp_restriction_undoes_embedding_twice(restrict, embed, dtype):
    # the trace form of sp(2n) is twice that of u(n) and gl(n) on their
    # images, so restricting an embedded element doubles it, exactly
    rng = stream_rng(169, 0)
    A = rng.standard_normal((3, 3)) + (1j * rng.standard_normal((3, 3)) if dtype is complex else 0)
    zeta = A - A.conj().T if dtype is complex else A
    out = restrict(embed(zeta))
    assert out.dtype == dtype
    assert np.array_equal(out, 2 * zeta)


def test_restrict_sp_hand_values():
    j = np.arange(16.0).reshape(4, 4)
    np.testing.assert_array_equal(seesaw.restrict_sp_to_u(j),
                                  [[10 + 6j, 12 + 6j], [18 + 6j, 20 + 6j]])
    np.testing.assert_array_equal(seesaw.restrict_sp_to_gl(j), [[-10, -13], [-7, -10]])


@pytest.mark.parametrize("restrict", [seesaw.restrict_sp_to_u, seesaw.restrict_sp_to_gl])
def test_restrict_sp_rejects_odd_or_nonsquare(restrict):
    for shape in [(3, 3), (2, 4), (4,)]:
        with pytest.raises(ValueError):
            restrict(np.zeros(shape))
