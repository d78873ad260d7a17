"""Symplectic/orthogonal pair: momenta, Witt extension by the left witness,
decomposition."""

import numpy as np
import pytest

from dualpairs import symplectic
from dualpairs.linalg import random_group_element, standard_J, stream_rng
from dualpairs.pairs import LevelMismatchError


def _random_rank_m(n, m, seed, stream=0):
    E = stream_rng(seed, stream).standard_normal((2 * n, m))
    return E


def _random_invariants(n, m, seed):
    rng = stream_rng(seed, 3)
    p = int(rng.integers(max(0, m - n), m // 2 + 1))
    sig = tuple(np.sort(rng.uniform(0.6, 1.9, size=p))[::-1])
    return symplectic.SpOrbitInvariants(p, sig, m - 2 * p, n - m + p, n, m)


# ---------------------------------------------------------------------------
# momenta and invariants container

def test_momentum_left_zero():
    np.testing.assert_array_equal(symplectic.momentum_left(np.zeros((4, 2))),
                                  np.zeros((4, 4)))


def test_momentum_left_hand_value():
    out = symplectic.momentum_left(np.eye(2))
    np.testing.assert_allclose(out, [[0.0, -0.5], [0.5, 0.0]])


def test_momentum_right_hand_value():
    out = symplectic.momentum_right(np.eye(2))
    np.testing.assert_allclose(out, [[0.0, -0.5], [0.5, 0.0]])


def test_momentum_memberships():
    E = _random_rank_m(2, 3, 80)
    J = standard_J(2)
    jl = symplectic.momentum_left(E)
    jr = symplectic.momentum_right(E)
    scale = max(1.0, np.linalg.norm(jl))
    assert np.linalg.norm(jl.T @ J + J @ jl) <= 1e-13 * scale
    np.testing.assert_allclose(jr, -jr.T, atol=1e-13 * max(1, np.linalg.norm(jr)))


def test_invariants_validation():
    with pytest.raises(ValueError):
        symplectic.SpOrbitInvariants(1, (-1.0,), 0, 1, 2, 2)
    with pytest.raises(ValueError):
        symplectic.SpOrbitInvariants(2, (1.0, 2.0), 0, 0, 2, 4)  # ascending
    with pytest.raises(ValueError):
        symplectic.SpOrbitInvariants(1, (1.0,), 1, 0, 2, 2)  # q mismatch
    with pytest.raises(ValueError):
        symplectic.SpOrbitInvariants(1, (1.0, 1.0), 0, 1, 2, 2)  # len != p


def test_invariants_to_obj():
    inv = symplectic.SpOrbitInvariants(1, (2.0,), 0, 1, 2, 2)
    obj = inv.to_obj()
    assert obj["p"] == 1
    assert obj["sigmas"] == [2.0]
    assert obj["q"] == 0 and obj["r"] == 1


def test_build_template_hand_case():
    inv = symplectic.SpOrbitInvariants(1, (2.0,), 0, 1, 2, 2)
    D = symplectic.build_template(inv)
    expected = np.zeros((4, 2))
    expected[0, 0] = 2.0
    expected[2, 1] = 2.0
    np.testing.assert_array_equal(D, expected)
    np.testing.assert_allclose(symplectic.momentum_right(D),
                               [[0.0, -2.0], [2.0, 0.0]])


def test_build_template_mixed_blocks():
    # one dual pair, one kernel column, no spare rows
    inv = symplectic.SpOrbitInvariants(1, (1.5,), 1, 0, 2, 3)
    D = symplectic.build_template(inv)
    expected = np.zeros((4, 3))
    expected[0, 0] = 1.5
    expected[1, 1] = 1.0
    expected[2, 2] = 1.5
    np.testing.assert_array_equal(D, expected)


# ---------------------------------------------------------------------------
# Witt extension: the left witness on matched column families

def test_witt_extend_fixed_family():
    E = _random_rank_m(2, 2, 81)
    S = symplectic.witness_left(E, E).witness
    J = standard_J(2)
    assert np.linalg.norm(S.T @ J @ S - J) <= 1e-10
    np.testing.assert_allclose(S @ E, E, atol=1e-10 * np.linalg.norm(E))


def test_witt_extend_full_basis_unique():
    S0 = random_group_element("symplectic", 4, 82)
    S = symplectic.witness_left(np.eye(4), S0).witness
    np.testing.assert_allclose(S, S0, atol=1e-10)


def test_witt_extend_isotropic_vector():
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    S = symplectic.witness_left(e1, e2).witness
    J = standard_J(1)
    assert np.linalg.norm(S.T @ J @ S - J) <= 1e-12
    np.testing.assert_allclose(S @ e1, e2, atol=1e-12)


def test_witt_extend_rejects_gram_mismatch():
    E = _random_rank_m(2, 2, 83)
    with pytest.raises(LevelMismatchError):
        symplectic.witness_left(E, 2.0 * E)


def _template_partners(n, p, sigmas, q, seed):
    # one template moved by two seeded symplectic elements (cond <= 9)
    m = 2 * p + q
    inv = symplectic.SpOrbitInvariants(p, sigmas, q, n - m + p, n, m)
    D = symplectic.build_template(inv)
    return (random_group_element("symplectic", 2 * n, seed, 1) @ D,
            random_group_element("symplectic", 2 * n, seed, 2) @ D)


def _assert_extends(V, W, S):
    J = standard_J(V.shape[0] // 2)
    assert np.linalg.norm(S, 2) <= 10.0
    assert np.linalg.norm(S @ V - W) <= 1e-14 * max(1.0, np.linalg.norm(W))
    assert np.linalg.norm(S.T @ J @ S - J) <= 1e-13


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2), (4, 3), (6, 6), (16, 16)])
def test_witt_extend_isotropic_family(n, m):
    # p = 0: every column is in the radical and gets a partner
    V, W = _template_partners(n, 0, (), m, 100 + n + m)
    _assert_extends(V, W, symplectic.witness_left(V, W).witness)


@pytest.mark.parametrize("n,p,q", [(2, 1, 1), (4, 2, 1), (5, 2, 2), (8, 3, 4),
                                   (16, 4, 8)])
def test_witt_extend_mixed_family(n, p, q):
    # planes with sigmas 1.6, 1.3, ... and a radical beside them
    sigmas = tuple(1.6 - 0.3 * np.arange(p))
    V, W = _template_partners(n, p, sigmas, q, 200 + n)
    _assert_extends(V, W, symplectic.witness_left(V, W).witness)


@pytest.mark.parametrize("n", [1, 3, 8])
def test_witt_extend_square_family_has_empty_complement(n):
    # m = 2n forces p = n: V is a basis and S = W V^-1 is unique
    sigmas = tuple(1.8 - 1.0 * np.arange(n) / n)
    V, W = _template_partners(n, n, sigmas, 0, 300 + n)
    S = symplectic.witness_left(V, W).witness
    _assert_extends(V, W, S)
    np.testing.assert_allclose(S, W @ np.linalg.inv(V), atol=1e-13)


# ---------------------------------------------------------------------------
# witnesses

def test_witness_left_fixed_point():
    E = _random_rank_m(2, 2, 84)
    assert symplectic.witness_left(E, E).residual <= 1e-12


def test_witness_left_recovers_fiber():
    E = _random_rank_m(2, 2, 85)
    S0 = random_group_element("symplectic", 4, 86)
    rep = symplectic.witness_left(E, S0 @ E)
    assert rep.residual <= 1e-8
    J = standard_J(2)
    S = rep.witness
    assert np.linalg.norm(S.T @ J @ S - J) <= 1e-9


def test_witness_left_independent_template_realizations():
    # every shape n <= 16, m <= min(2n, 16) at seeds 0-3: 800 pairs of
    # seeded template points moved by symplectic elements of cond <= 9,
    # so a witness of norm <= 9 exists
    worst = {"norm": 0.0, "map": 0.0, "defining": 0.0}
    for n in range(1, 17):
        J = standard_J(n)
        for m in range(1, min(2 * n, 16) + 1):
            for seed in range(4):
                E, E2 = symplectic.normal_form_partners(n, m, seed)
                rep = symplectic.witness_left(E, E2)
                S = rep.witness
                for key, value in (("norm", np.linalg.norm(S, 2)), ("map", rep.residual),
                                   ("defining", np.linalg.norm(S.T @ J @ S - J))):
                    worst[key] = max(worst[key], value)
    assert worst["norm"] <= 10.0, worst
    assert worst["map"] <= 1e-14, worst
    assert worst["defining"] <= 1e-13, worst


def test_witness_left_level_mismatch():
    with pytest.raises(LevelMismatchError):
        symplectic.witness_left(_random_rank_m(2, 2, 90),
                                _random_rank_m(2, 2, 91))


def test_witness_left_needs_full_rank():
    E = np.zeros((4, 2))
    E[0, 0] = 1.0
    with pytest.raises(ValueError):
        symplectic.witness_left(E, E)


@pytest.mark.parametrize("who", ["witness_left", "witness_right"])
def test_rank_refusal_names_the_point_m_and_rank(who):
    # two equal columns: rank 1 against m = 2
    E = np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0], [3.0, 3.0]])
    witness = getattr(symplectic, who)
    with pytest.raises(ValueError, match=f"^{who} requires E of full column rank 2; "
                                         "its rank is 1$"):
        witness(E, E)
    with pytest.raises(ValueError, match=f"^{who} requires E' of full column rank 2; "
                                         "its rank is 1$"):
        witness(_random_rank_m(2, 2, 96), E)


def test_symplectic_svd_rank_refusal_names_the_point():
    with pytest.raises(ValueError, match="^symplectic_svd requires E of full column rank 2; "
                                         "its rank is 1$"):
        symplectic.symplectic_svd(np.eye(4)[:, [0, 0]])


def test_witness_right_fixed_point():
    E = _random_rank_m(2, 2, 92)
    assert symplectic.witness_right(E, E).residual <= 1e-12


def test_witness_right_recovers_fiber():
    E = _random_rank_m(2, 2, 93)
    O0 = random_group_element("orthogonal", 2, 94)
    rep = symplectic.witness_right(E, E @ O0)
    assert rep.residual <= 1e-9
    O = rep.witness
    assert np.linalg.norm(O.T @ O - np.eye(2)) <= 1e-11


def test_witness_right_sign_case():
    E = np.array([[1.0], [1.0]])
    rep = symplectic.witness_right(E, -E)
    np.testing.assert_allclose(rep.witness, [[-1.0]], atol=1e-12)
    assert rep.residual <= 1e-12


def test_witness_right_level_mismatch():
    with pytest.raises(LevelMismatchError):
        symplectic.witness_right(_random_rank_m(2, 2, 95),
                                 2.0 * _random_rank_m(2, 2, 95))


# ---------------------------------------------------------------------------
# structured decomposition

def test_decomposition_of_template_is_clean():
    inv = symplectic.SpOrbitInvariants(1, (2.0,), 0, 1, 2, 2)
    D0 = symplectic.build_template(inv)
    S, D, O, out = symplectic.symplectic_svd(D0)
    np.testing.assert_allclose(S @ D @ O, D0, atol=1e-10)
    assert out.p == 1 and out.q == 0 and out.r == 1
    np.testing.assert_allclose(out.sigmas, (2.0,), atol=1e-12)


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 4), (2, 4), (3, 2)])
def test_decomposition_random(n, m, seed=96):
    E = _random_rank_m(n, m, seed + n + 10 * m)
    S, D, O, inv = symplectic.symplectic_svd(E)
    J = standard_J(n)
    assert np.linalg.norm(S.T @ J @ S - J) <= 1e-8
    assert np.linalg.norm(O.T @ O - np.eye(m)) <= 1e-10
    np.testing.assert_array_equal(D, symplectic.build_template(inv))
    assert np.linalg.norm(S @ D @ O - E) <= 1e-8 * max(1, np.linalg.norm(E))
    assert list(inv.sigmas) == sorted(inv.sigmas, reverse=True)


def test_decomposition_roundtrip_recovers_invariants():
    inv = _random_invariants(3, 3, 97)
    D = symplectic.build_template(inv)
    S0 = random_group_element("symplectic", 6, 98)
    O0 = random_group_element("orthogonal", 3, 99)
    _, _, _, out = symplectic.symplectic_svd(S0 @ D @ O0)
    assert (out.p, out.q, out.r) == (inv.p, inv.q, inv.r)
    np.testing.assert_allclose(out.sigmas, inv.sigmas, atol=1e-8)


def test_decomposition_needs_full_rank():
    E = np.zeros((4, 2))
    E[0, 0] = 1.0
    with pytest.raises(ValueError):
        symplectic.symplectic_svd(E)


@pytest.mark.parametrize("n,p,q", [(1, 0, 1), (4, 0, 3), (16, 0, 16),  # p = 0
                                   (4, 2, 0), (8, 3, 0),                # q = 0
                                   (4, 1, 3), (8, 3, 5),                # r = 0
                                   (1, 1, 0), (3, 3, 0), (16, 16, 0)])  # m = 2n
def test_symplectic_svd_of_template_partners(n, p, q):
    # S D = E O^T fixes S's template columns; one Darboux completion
    # adds the rest, and the invariants are those of the template
    sigmas = tuple(1.8 - 1.0 * np.arange(p) / max(p, 1))
    J = standard_J(n)
    for seed in range(4):
        for E in _template_partners(n, p, sigmas, q, 400 + seed):
            S, D, O, inv = symplectic.symplectic_svd(E)
            assert (inv.p, inv.q, inv.r) == (p, q, n - p - q)
            np.testing.assert_allclose(inv.sigmas, sigmas, rtol=1e-13, atol=0)
            assert np.linalg.norm(S.T @ J @ S - J) <= 1e-13
            assert np.linalg.norm(S @ D @ O - E) <= 1e-14 * np.linalg.norm(E)


def test_no_columns_give_the_identity():
    E = np.zeros((4, 0))
    np.testing.assert_array_equal(symplectic.witness_left(E, E).witness, np.eye(4))
    S, D, O, inv = symplectic.symplectic_svd(E)
    np.testing.assert_array_equal(S, np.eye(4))
    assert D.shape == (4, 0) and O.shape == (0, 0)
    assert (inv.p, inv.q, inv.r) == (0, 0, 2)


@pytest.mark.parametrize("who", ["witness_left", "symplectic_svd"])
def test_one_svd_and_no_two_norm_per_call(monkeypatch, who):
    # the rank check's SVD also gives |E|_2, the Gram's noise scale
    counts = {"svd": 0, "2-norm": 0}
    svd, norm = np.linalg.svd, np.linalg.norm

    def counting_svd(*args, **kwargs):
        counts["svd"] += 1
        return svd(*args, **kwargs)

    def counting_norm(x, ord=None, *args, **kwargs):
        counts["2-norm"] += ord == 2
        return norm(x, ord, *args, **kwargs)

    # a radical, planes and a nonempty complement: every step runs
    V, W = _template_partners(5, 2, (1.6, 1.3), 1, 500)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    if who == "witness_left":
        symplectic.witness_left(V, W)
    else:
        symplectic.symplectic_svd(V)
    assert counts == {"svd": 1, "2-norm": 0}


# ---------------------------------------------------------------------------
# normal forms

def test_normal_form_empty_edge():
    inv = symplectic.SpOrbitInvariants(0, (), 0, 2, 2, 0)
    np.testing.assert_array_equal(symplectic.normal_form_left(inv),
                                  np.zeros((4, 4)))


def test_normal_form_left_hand_case():
    inv = symplectic.SpOrbitInvariants(1, (1.0,), 0, 0, 1, 2)
    np.testing.assert_allclose(symplectic.normal_form_left(inv),
                               [[0.0, -0.5], [0.5, 0.0]])


def test_normal_form_left_block_pattern():
    inv = symplectic.SpOrbitInvariants(1, (2.0,), 0, 1, 2, 2)
    out = symplectic.normal_form_left(inv)
    expected = np.zeros((4, 4))
    expected[0, 2] = -2.0
    expected[2, 0] = 2.0
    np.testing.assert_array_equal(out, expected)


def test_normal_form_left_nilpotent_cells():
    inv = symplectic.SpOrbitInvariants(1, (1.0,), 1, 0, 2, 3)
    out = symplectic.normal_form_left(inv)
    expected = np.zeros((4, 4))
    expected[0, 2] = -0.5
    expected[2, 0] = 0.5
    expected[1, 3] = -0.5
    np.testing.assert_array_equal(out, expected)


def test_normal_form_right_hand_case():
    inv = symplectic.SpOrbitInvariants(1, (np.sqrt(2.0),), 0, 0, 1, 2)
    np.testing.assert_allclose(symplectic.normal_form_right(inv),
                               [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)


def test_normal_form_right_spectrum():
    inv = symplectic.SpOrbitInvariants(1, (np.sqrt(2.0),), 0, 0, 1, 2)
    eigs = np.sort_complex(np.linalg.eigvals(symplectic.normal_form_right(inv)))
    np.testing.assert_allclose(eigs, [-1j, 1j], atol=1e-12)


def test_normal_form_matches_template_momentum_exactly():
    inv = symplectic.SpOrbitInvariants(1, (2.0,), 0, 1, 2, 2)
    D = symplectic.build_template(inv)
    np.testing.assert_array_equal(symplectic.momentum_left(D),
                                  symplectic.normal_form_left(inv))
    np.testing.assert_array_equal(symplectic.momentum_right(D),
                                  symplectic.normal_form_right(inv))


def test_correspond_charpoly_against_raw_momentum():
    E = _random_rank_m(2, 2, 100)
    E = E / np.linalg.norm(E, 2)
    _, _, _, inv = symplectic.symplectic_svd(E)
    nfl, _ = symplectic.correspond(inv)
    c1 = np.poly(symplectic.momentum_left(E))
    c2 = np.poly(nfl)
    np.testing.assert_allclose(c1, c2, atol=1e-7)


def _mp_sigmas(E):
    """Symplectic singular values of E from a 50-digit eigensolve of
    -xi^2, xi the right momentum formed in that precision."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        n = E.shape[0] // 2
        Em = mpmath.matrix(E.tolist())
        J = mpmath.zeros(2 * n, 2 * n)
        for i in range(n):
            J[i, n + i], J[n + i, i] = 1, -1
        xi = -(Em.T * J * Em) / 2
        w = sorted(mpmath.eigsy(-(xi * xi), eigvals_only=True), reverse=True)
        # eigenvalues a^2 come in equal pairs; sigma = sqrt(2 a)
        return [mpmath.sqrt(2 * mpmath.sqrt(x)) for x in w[0:2 * (len(w) // 2):2]]


def test_symplectic_svd_small_sigma_keeps_relative_accuracy():
    # 8x6 Gaussian point whose smallest sigma, 0.0371, is small against
    # |E|; sqrt of an eigenvalue of -xi^2 lost it to 4e-9 relative
    E = np.random.default_rng([9, 5, 62]).standard_normal((16, 6))
    _, _, _, inv = symplectic.symplectic_svd(E)
    ref = _mp_sigmas(E)
    assert inv.p == len(ref) == 3
    assert abs(inv.sigmas[-1] - 0.0371) < 1e-4
    for got, want in zip(inv.sigmas, ref):
        assert abs(got - float(want)) <= 1e-12 * float(want)


@pytest.mark.parametrize("s", [1e-4, 1e-5, 1e-6])
def test_symplectic_svd_resolves_small_sigma_pair(s):
    # sigma_2^2 / 2 lies far above the Gram's noise floor near eps |E|^2,
    # so the pair must be counted, not folded into q; its accuracy may
    # degrade as (|E| / s)^2
    inv = symplectic.SpOrbitInvariants(2, (1.0, s), 0, 1, 3, 4)
    E = (random_group_element("symplectic", 6, 7, 3) @ symplectic.build_template(inv)
         @ random_group_element("orthogonal", 4, 7, 4))
    _, _, _, out = symplectic.symplectic_svd(E)
    assert (out.p, out.q) == (2, 0)
    bound = 100 * np.finfo(float).eps * np.linalg.norm(E, 2) ** 2 / s ** 2
    assert abs(out.sigmas[1] - s) / s <= bound
