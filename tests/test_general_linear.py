"""Cotangent-lift pair on matrix space: momenta, witnesses, Jordan forms."""

import collections
import json
from pathlib import Path

import numpy as np
import pytest

from dualpairs import general_linear as gl
from dualpairs.linalg import column_frames, random_group_element, stream_rng
from dualpairs.pairs import LevelMismatchError


def _point(n, m, seed):
    rng = stream_rng(seed, 2)
    return gl.CotangentPoint(rng.standard_normal((n, m)),
                             rng.standard_normal((n, m)))


def _invertible(k, seed):
    return random_group_element("general_linear", k, seed)


# ---------------------------------------------------------------------------
# points and the lifted actions

def test_point_validation():
    with pytest.raises(ValueError):
        gl.CotangentPoint(np.zeros((2, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        gl.CotangentPoint(np.zeros(2), np.zeros(2))
    # a complex Q or P would lose its imaginary part to the float cast
    with pytest.raises(ValueError, match="real"):
        gl.CotangentPoint(np.eye(2) + 0j, np.eye(2))
    with pytest.raises(ValueError, match="real"):
        gl.CotangentPoint(np.eye(2), 1j * np.eye(2))


def test_act_left_identity():
    pt = _point(3, 2, 120)
    out = gl.act_left(np.eye(3), pt)
    np.testing.assert_array_equal(out.Q, pt.Q)
    np.testing.assert_array_equal(out.P, pt.P)


def test_act_left_scalar():
    pt = gl.CotangentPoint(np.eye(2), np.eye(2))
    out = gl.act_left(2.0 * np.eye(2), pt)
    np.testing.assert_allclose(out.Q, 2.0 * np.eye(2))
    np.testing.assert_allclose(out.P, 0.5 * np.eye(2))


def test_act_composition():
    pt = _point(3, 3, 121)
    A = _invertible(3, 122)
    B = _invertible(3, 123)
    one = gl.act_left(A @ B, pt)
    two = gl.act_left(A, gl.act_left(B, pt))
    np.testing.assert_allclose(one.Q, two.Q, atol=1e-10)
    np.testing.assert_allclose(one.P, two.P, atol=1e-10)


def test_act_right_composition():
    pt = _point(3, 2, 124)
    A = _invertible(2, 125)
    B = _invertible(2, 126)
    one = gl.act_right(pt, A @ B)
    two = gl.act_right(gl.act_right(pt, A), B)
    np.testing.assert_allclose(one.Q, two.Q, atol=1e-10)
    np.testing.assert_allclose(one.P, two.P, atol=1e-10)


def test_act_preserves_canonical_pairing():
    # Tr(P^T Q) is invariant under both lifted actions
    pt = _point(4, 3, 127)
    A = _invertible(4, 128)
    B = _invertible(3, 129)
    before = np.trace(pt.P.T @ pt.Q)
    after_l = gl.act_left(A, pt)
    after_r = gl.act_right(pt, B)
    assert abs(np.trace(after_l.P.T @ after_l.Q) - before) <= 1e-10
    assert abs(np.trace(after_r.P.T @ after_r.Q) - before) <= 1e-10


# ---------------------------------------------------------------------------
# momenta

def test_momentum_identity_point():
    pt = gl.CotangentPoint(np.eye(2), np.eye(2))
    np.testing.assert_array_equal(gl.momentum_left(pt), np.eye(2))
    np.testing.assert_array_equal(gl.momentum_right(pt), np.eye(2))


def test_momentum_nilpotent_hand_case():
    pt = gl.CotangentPoint(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))
    np.testing.assert_array_equal(gl.momentum_left(pt),
                                  np.array([[0.0, 1.0], [0.0, 0.0]]))
    np.testing.assert_array_equal(gl.momentum_right(pt), np.array([[0.0]]))


def test_momenta_share_trace():
    pt = _point(4, 2, 130)
    zl = gl.momentum_left(pt)
    zr = gl.momentum_right(pt)
    assert abs(np.trace(zl) - np.trace(zr)) <= 1e-12


def test_momentum_left_rank_bound():
    pt = _point(5, 2, 131)
    assert np.linalg.matrix_rank(gl.momentum_left(pt)) <= 2


# ---------------------------------------------------------------------------
# witnesses

def test_witness_right_identity():
    pt = _point(3, 2, 132)
    rep = gl.witness_right(pt, pt)
    assert rep.residual <= 1e-12
    np.testing.assert_allclose(rep.witness, np.eye(2), atol=1e-10)


def test_witness_right_recovers_action():
    pt = _point(4, 3, 133)
    B0 = _invertible(3, 134)
    rep = gl.witness_right(pt, gl.act_right(pt, B0))
    assert rep.residual <= 1e-9
    np.testing.assert_allclose(rep.witness, B0, atol=1e-8 * np.linalg.norm(B0))


def test_witness_right_scalar_case():
    pt = gl.CotangentPoint(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))
    pt2 = gl.CotangentPoint(np.array([[2.0], [0.0]]), np.array([[0.0], [0.5]]))
    rep = gl.witness_right(pt, pt2)
    np.testing.assert_allclose(rep.witness, [[2.0]], atol=1e-12)
    assert rep.residual <= 1e-12


def test_witness_right_level_mismatch():
    pt = _point(3, 2, 135)
    other = _point(3, 2, 136)
    with pytest.raises(LevelMismatchError):
        gl.witness_right(pt, other)


def test_witness_right_needs_full_rank():
    pt = gl.CotangentPoint(np.zeros((2, 2)), np.eye(2))
    with pytest.raises(ValueError):
        gl.witness_right(pt, pt)


@pytest.mark.parametrize("which", ["Q", "P"])
@pytest.mark.parametrize("side", [0, 1])
def test_witness_left_needs_full_rank(which, side):
    pt = _point(4, 2, 136)
    deficient = {"Q": pt.Q.copy(), "P": pt.P.copy()}
    deficient[which][:, 1] = 2.0 * deficient[which][:, 0]
    bad = gl.CotangentPoint(deficient["Q"], deficient["P"])
    pts = [pt, pt]
    pts[side] = bad
    with pytest.raises(ValueError, match="full column rank"):
        gl.witness_left(*pts)


def test_witness_left_identity():
    pt = _point(3, 3, 137)
    rep = gl.witness_left(pt, pt)
    assert rep.residual <= 1e-10


def test_witness_left_recovers_fiber():
    pt = _point(3, 2, 138)
    A0 = _invertible(3, 139)
    rep = gl.witness_left(pt, gl.act_left(A0, pt))
    assert rep.residual <= 1e-8
    A = rep.witness
    target = gl.act_left(A0, pt)
    np.testing.assert_allclose(A @ pt.Q, target.Q, atol=1e-8)
    np.testing.assert_allclose(np.linalg.solve(A.T, pt.P), target.P, atol=1e-7)


def test_witness_left_square_case_matches_direct_solve():
    pt = _point(2, 2, 140)
    A0 = _invertible(2, 141)
    target = gl.act_left(A0, pt)
    rep = gl.witness_left(pt, target)
    assert rep.residual <= 1e-10
    # square full-rank Q pins A uniquely
    direct = target.Q @ np.linalg.inv(pt.Q)
    np.testing.assert_allclose(rep.witness, direct, atol=1e-8)


def test_witness_left_level_mismatch():
    pt = _point(3, 2, 142)
    with pytest.raises(LevelMismatchError):
        gl.witness_left(pt, _point(3, 2, 143))


def test_witness_left_residual_scales_with_cond_of_gaussian_A0():
    # A0 far from I; the worst of these reads 1.2e-14 cond(A0), at 16x16
    for n, m in [(2, 1), (3, 2), (4, 4), (6, 3), (8, 6), (12, 8), (16, 12), (16, 16)]:
        for seed in range(100):
            rng = stream_rng(47, 1000 * n + 10 * m + 100000 * seed)
            pt = gl.CotangentPoint(rng.standard_normal((n, m)), rng.standard_normal((n, m)))
            A0 = rng.standard_normal((n, n))
            rep = gl.witness_left(pt, gl.act_left(A0, pt))
            assert rep.residual <= 1e-13 * np.linalg.cond(A0)


def test_witness_left_on_normal_form_partners_of_every_shape():
    for n in range(1, 17):
        for m in range(1, n + 1):
            for seed in range(4):
                rep = gl.witness_left(*gl.normal_form_partners(n, m, seed))
                assert rep.residual <= 1e-13


def test_random_jordan_draws_a_complex_block_into_two_last_columns():
    # at n = m = 2 no nilpotent block fits, so both columns remain for the
    # first block, and some seeds fill them with one complex 2-block
    labels = [gl._random_jordan(2, 2, stream_rng(seed, 4)) for seed in range(20)]
    assert any(lam.imag for jd in labels for lam, _ in jd.blocks)


@pytest.mark.parametrize("who,name", [("witness_left", "Q'"), ("witness_right", "P"),
                                      ("orbit labelling", "Q")])
def test_refusal_names_witness_matrix_and_rank(who, name):
    pt = _point(4, 3, 146)
    mats = {"Q": pt.Q.copy(), "P": pt.P.copy()}
    M = mats[name.rstrip("'")]
    M[:, 2] = M[:, 0] - M[:, 1]
    bad = gl.CotangentPoint(mats["Q"], mats["P"])
    run = {"witness_left": lambda: gl.witness_left(pt, bad),
           "witness_right": lambda: gl.witness_right(bad, pt),
           "orbit labelling": lambda: gl.orbit(bad)}[who]
    with pytest.raises(ValueError, match=f"^{who} requires {name} of full column rank 3; "
                                         "its rank is 2$"):
        run()


def test_refusal_of_a_rank_deficient_transported_frame():
    # C^-1 Q' is formed inside witness_left; its refusal names it too
    M = np.eye(4)[:, [0, 1, 1]]
    with pytest.raises(ValueError, match="^witness_left requires C\\^-1 Q' of full column "
                                         "rank 3; its rank is 2$"):
        column_frames("witness_left", ("C^-1 Q'", M))


# ---------------------------------------------------------------------------
# common complement

BOUND = (1 + np.sqrt(2)) * (1 + 1e-12)


def _orthonormal(rng, n, m):
    return np.linalg.qr(rng.standard_normal((n, m)))[0]


def _complement_conds(B1, B2):
    n, m = B1.shape
    X = gl._common_complement(B1, B2)
    assert X.shape == (n, n - m)
    np.testing.assert_allclose(X.T @ X, np.eye(n - m), atol=1e-14)
    return np.linalg.cond(np.hstack([B1, X])), np.linalg.cond(np.hstack([B2, X]))


def test_common_complement_bound_on_random_bases():
    for n in range(1, 17):
        for m in range(0, n):
            rng = stream_rng(144, 100 * n + m)
            assert max(_complement_conds(_orthonormal(rng, n, m),
                                         _orthonormal(rng, n, m))) <= BOUND


def test_common_complement_square_input_needs_no_columns():
    # square bases already span the space: the complement is n x 0 and
    # both completed matrices are the bases themselves
    for n in range(1, 17):
        rng = stream_rng(144, 101 * n)
        np.testing.assert_allclose(_complement_conds(_orthonormal(rng, n, n),
                                                     _orthonormal(rng, n, n)),
                                   1.0, atol=1e-12)


def test_common_complement_bound_on_equal_spans():
    for n in range(1, 17):
        for m in range(1, n + 1):
            rng = stream_rng(145, 100 * n + m)
            B = _orthonormal(rng, n, m)
            conds = _complement_conds(B, B @ _orthonormal(rng, m, m))
            # equal spans are completed by their orthogonal complement
            np.testing.assert_allclose(conds, 1.0, atol=1e-12)


def test_common_complement_bound_on_partly_orthogonal_spans():
    # the spans share m - k directions and are orthogonal in k others,
    # seen through a random rotation of the whole space
    for n in range(2, 17):
        for m in range(1, n // 2 + 1):
            for k in range(1, m + 1):
                R = _orthonormal(stream_rng(146, 1000 * n + 10 * m + k), n, n)
                B1, B2 = R[:, :m], R[:, m - k:2 * m - k]
                assert max(_complement_conds(B1, B2)) <= BOUND


def test_common_complement_right_angle_is_sharp():
    # Q = e1 -> Q' = e2 in R^2: the spans meet at 90 degrees, the bound's
    # sharp case
    conds = _complement_conds(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))
    np.testing.assert_allclose(conds, 1 + np.sqrt(2), rtol=1e-12)
    assert max(conds) <= BOUND


# ---------------------------------------------------------------------------
# image membership

def test_in_image_left_full_square():
    assert gl.in_image_left(np.eye(3), 3)


def test_in_image_left_zero():
    assert not gl.in_image_left(np.zeros((3, 3)), 2)


def test_in_image_left_nilpotent():
    zeta = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert gl.in_image_left(zeta, 1)


def test_in_image_right_zero_wide_kernel():
    # n >= 2m leaves room for Q, P with disjoint row spans
    assert gl.in_image_right(np.zeros((2, 2)), 4)
    assert not gl.in_image_right(np.zeros((2, 2)), 2)
    assert not gl.in_image_right(np.zeros((2, 2)), 3)


def test_in_image_right_full():
    assert gl.in_image_right(np.eye(2), 2)


def test_in_image_right_rank_violation():
    assert not gl.in_image_right(np.diag([1.0, 0.0]), 2)


def test_in_image_takes_exact_rank_of_integral_input():
    # this det-1 matrix (a 16 x 16 Jordan block at -1, moved by an integer
    # unimodular matrix) has float rank 14 under rank_tol; it is integral,
    # so its rank is taken exactly, as jordan_structure takes it
    path = Path(__file__).parent / "data" / "scattered_jordan_block.json"
    M = np.array(json.loads(path.read_text())["matrix"], dtype=float)
    assert gl.in_image_left(M, 16)
    assert not gl.in_image_left(M, 14)
    assert gl.in_image_right(M, 16)


def test_integral_rows_are_exact_python_ints():
    # whole-number entries of any magnitude, 2^62 and beyond included,
    # become exact Python ints
    for value in (np.array([[3.0, -0.0], [-7.0, 2.0 ** 62 - 1024]]),
                  np.array([[2.0 ** 62, 1.0], [-(2.0 ** 70), 0.0]])):
        got = gl._integral(value)
        assert got == [[int(x) for x in row] for row in value]
        assert all(type(x) is int for row in got for x in row)
    assert gl._integral(np.array([[0.5]])) is None
    assert gl._integral(np.array([[np.inf]])) is None


# ---------------------------------------------------------------------------
# Jordan bookkeeping

def test_jordan_data_sorts_blocks():
    jd = gl.JordanData(blocks=((1.0, 1), (3.0, 2), (1.0, 2)),
                       nilpotent=(2, 3), n=10, m=8)
    assert jd.blocks == ((1.0, 2), (3.0, 2), (1.0, 1))
    assert jd.nilpotent == (3, 2)


def test_jordan_data_validation():
    with pytest.raises(ValueError):
        gl.JordanData(blocks=((0.0, 1),), nilpotent=(), n=1, m=1)
    with pytest.raises(ValueError):
        gl.JordanData(blocks=((1.0 - 1j, 2),), nilpotent=(), n=2, m=2)
    with pytest.raises(ValueError):
        gl.JordanData(blocks=((1j, 3),), nilpotent=(), n=3, m=3)  # even only
    with pytest.raises(ValueError):
        gl.JordanData(blocks=(), nilpotent=(1,), n=1, m=0)  # length >= 2
    with pytest.raises(ValueError):
        gl.JordanData(blocks=((2.0, 1),), nilpotent=(), n=2, m=2)  # budget
    with pytest.raises(ValueError):
        gl.JordanData(blocks=(), nilpotent=(2, 2), n=3, m=2)  # nil count


def test_jordan_data_hashable():
    a = gl.JordanData(blocks=((2.0, 1),), nilpotent=(), n=1, m=1)
    b = gl.JordanData(blocks=((2.0, 1),), nilpotent=(), n=1, m=1)
    assert len({a, b}) == 1


def test_build_point_smallest_nilpotent():
    jd = gl.JordanData(blocks=(), nilpotent=(2,), n=2, m=1)
    pt = gl.build_qp_from_jordan(jd)
    zl = gl.momentum_left(pt)
    assert np.count_nonzero(zl) == 1
    assert np.linalg.matrix_rank(zl) == 1 and np.trace(zl) == 0.0
    np.testing.assert_array_equal(zl @ zl, np.zeros((2, 2)))
    np.testing.assert_array_equal(gl.momentum_right(pt), np.array([[0.0]]))


def test_build_point_scalar():
    jd = gl.JordanData(blocks=((5.0, 1),), nilpotent=(), n=1, m=1)
    pt = gl.build_qp_from_jordan(jd)
    np.testing.assert_array_equal(gl.momentum_left(pt), np.array([[5.0]]))
    np.testing.assert_array_equal(gl.momentum_right(pt), np.array([[5.0]]))


def test_build_point_complex_pair():
    jd = gl.JordanData(blocks=((1j, 2),), nilpotent=(), n=4, m=2)
    pt = gl.build_qp_from_jordan(jd)
    zl = gl.momentum_left(pt)
    expected = np.zeros((4, 4))
    expected[0, 1] = 1.0
    expected[1, 0] = -1.0
    np.testing.assert_array_equal(zl, expected)


def test_jordan_correspond_matches_built_momenta():
    jd = gl.JordanData(blocks=((2.0, 1), (1j, 2)), nilpotent=(2,), n=5, m=4)
    zeta, xi = gl.jordan_correspond(jd)
    pt = gl.build_qp_from_jordan(jd)
    np.testing.assert_array_equal(zeta, gl.momentum_left(pt))
    np.testing.assert_array_equal(xi, gl.momentum_right(pt))


def test_jordan_correspond_nilpotent_shift():
    jd = gl.JordanData(blocks=(), nilpotent=(2,), n=2, m=1)
    zeta, xi = gl.jordan_correspond(jd)
    np.testing.assert_array_equal(zeta, [[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_array_equal(xi, [[0.0]])


# ---------------------------------------------------------------------------
# structure recovery

def test_structure_left_diagonal():
    jd = gl.jordan_structure(np.diag([3.0, 3.0, 0.0]), side="left")
    assert jd.blocks == ((3.0, 1), (3.0, 1))
    assert jd.nilpotent == ()
    assert (jd.n, jd.m) == (3, 2)


def test_structure_left_single_chain():
    z = np.zeros((3, 3))
    z[1, 0] = 1.0
    z[2, 1] = 1.0
    jd = gl.jordan_structure(z, side="left")
    assert jd.blocks == ()
    assert jd.nilpotent == (3,)


def test_structure_right_zero_matrix():
    jd = gl.jordan_structure(np.zeros((1, 1)), side="right", n=2)
    assert jd.blocks == ()
    assert jd.nilpotent == (2,)


def test_factor_route_reuses_the_candidate_chains_of_its_factors(monkeypatch):
    # the companion of (x - 2)(x^2 - 2): its candidates 2, 1 and -1 leave
    # the block unfilled, so it takes the factor route, where x - 2 is a
    # factor whose chain the candidates already ranked
    calls = collections.Counter()
    inner = gl._chain

    def counted(B, g, cap):
        calls[tuple(g)] += 1
        return inner(B, g, cap)
    monkeypatch.setattr(gl, "_chain", counted)
    jd = gl._structure_exact([[0, 0, -4], [1, 0, 2], [0, 1, 2]], "left", 3, None)
    root2 = float(np.sqrt(2.0))
    assert jd == gl.JordanData(((-root2, 1), (root2, 1), (2.0, 1)), (), 3, 3)
    assert calls == {(1, -2): 1, (1, -1): 1, (1, 1): 1, (1, 0, -2): 1}


def test_structure_left_rank_is_exact_on_both_exact_paths():
    # one block with eigenvalues +-sqrt 2 and 0 leaves Z[i], so the factor
    # route gives its chains, and m = 3 - nu_1(0) = 2 comes from them as it
    # does on the integer path
    M = [[0, 2, 0], [1, 0, 1], [0, 0, 0]]
    assert gl._factor_chains(M, np.linalg.eigvals(M), {})[0, 0] == [1]
    jd = gl._structure_exact(M, "left", 3, None)
    assert (jd.n, jd.m, jd.nilpotent) == (3, 2, ())
    assert sorted(round(lam.real, 12) for lam, _ in jd.blocks) == [-1.414213562373, 1.414213562373]
    assert gl.jordan_structure(np.array(M, dtype=float), side="left") == jd
    # no zero eigenvalue: m is the size
    assert gl._structure_exact([[0, 1], [-1, 0]], "left", 2, None).m == 2


@pytest.mark.parametrize("jd", [
    gl.JordanData(blocks=((2.0, 2),), nilpotent=(), n=2, m=2),
    gl.JordanData(blocks=((1j, 2),), nilpotent=(2,), n=4, m=3),
    gl.JordanData(blocks=((2.0, 1),), nilpotent=(3, 2), n=6, m=4),
    gl.JordanData(blocks=((-1.0, 1), (1 + 1j, 2)), nilpotent=(), n=3, m=3),
])
def test_structure_roundtrip(jd):
    zeta, xi = gl.jordan_correspond(jd)
    assert gl.jordan_structure(zeta, side="left") == jd
    assert gl.jordan_structure(xi, side="right", n=jd.n) == jd


def test_structure_float_path_after_conjugation():
    jd = gl.JordanData(blocks=((2.0, 1), (-0.5, 2)), nilpotent=(), n=3, m=3)
    zeta, _ = gl.jordan_correspond(jd)
    A = _invertible(3, 150)
    conj = A @ zeta @ np.linalg.inv(A)
    out = gl.jordan_structure(conj, side="left")
    # float recovery reports clustered eigenvalue means, not snapped values
    assert out.nilpotent == jd.nilpotent and (out.n, out.m) == (3, 3)
    assert [c for _, c in out.blocks] == [c for _, c in jd.blocks]
    key = lambda z: (z.real, z.imag)
    got = sorted((lam for lam, _ in out.blocks), key=key)
    ref = sorted((complex(lam) for lam, _ in jd.blocks), key=key)
    np.testing.assert_allclose(got, ref, atol=1e-8)


@pytest.mark.parametrize("seed", range(5))
def test_structure_float_nilpotent_pair_under_noise(seed):
    # the 4x2 label (2, 2), as its normal form and conjugated, under 1e-14
    # noise: each power of the value is ranked against ||A||_2^k, so A^2,
    # pure roundoff, reads as rank 0 and the chain reaches [2, 4].  Ranked
    # against its own largest singular value, A^2 reads as full rank and
    # the chain [2] is refused ("block sizes fill 0 columns")
    jd = gl.JordanData(blocks=(), nilpotent=(2, 2), n=4, m=2)
    zeta, _ = gl.jordan_correspond(jd)
    A = _invertible(4, 160 + seed)
    noise = 1e-14 * np.random.default_rng(seed).standard_normal(zeta.shape)
    for value in (zeta, A @ zeta @ np.linalg.inv(A)):
        assert gl.jordan_structure(value + noise, side="left") == jd


def test_structure_float_ambiguity_raises():
    z = np.diag([1.0, 1.0 + 2e-4, 5.0])
    with pytest.raises(gl.AmbiguousStructureError, match="cannot be separated") as err:
        gl.jordan_structure(z, side="left")
    assert isinstance(err.value, ValueError)
    assert len(err.value.centers) == len(err.value.gaps) == 3
    assert min(err.value.gaps) == pytest.approx(2e-4)
    assert err.value.chains == {}


def test_structure_float_overfilled_budget_is_refused():
    # 1e-14 noise splits the (-2, 7) block into a ring of clusters whose
    # chains overfill the 12 columns; the refusal must come before
    # JordanData's own budget check and carry the evidence
    jd = gl._random_jordan(16, 12, stream_rng(1, 4))
    zeta, _ = gl.jordan_correspond(jd)
    noisy = zeta + 1e-14 * np.random.default_rng(1).standard_normal(zeta.shape)
    with pytest.raises(gl.AmbiguousStructureError,
                       match="fill 13 columns, expected 12") as err:
        gl.jordan_structure(noisy, side="left")
    assert len(err.value.gaps) == len(err.value.centers) > 1
    assert err.value.chains and set(err.value.chains) <= set(err.value.centers)
    assert all(chain == sorted(chain) for chain in err.value.chains.values())


def test_structure_float_nilpotent_limit_is_refused():
    # the right value diag(0.5, 0) of a 2 x 2 pair needs one nilpotent
    # block, but n - m = 0 allows none
    with pytest.raises(gl.AmbiguousStructureError,
                       match=r"1 nilpotent blocks exceed the limit n - m = 0") as err:
        gl.jordan_structure(np.diag([0.5, 0.0]), side="right", n=2)
    assert set(err.value.chains) == set(err.value.centers) == {0j, 0.5 + 0j}


def test_cluster_eigenvalues_merges_transitively():
    # the ends are 1.03e-6 apart and linked only through 0.6e-6
    z = [0j, 0.5e-6 + 0.9e-6j, 0.6e-6 + 0j, 5 + 0j]
    clusters = gl._cluster_eigenvalues(z, 1e-6)
    assert {frozenset(cl) for cl in clusters} == {frozenset(z[:3]), frozenset(z[3:])}


def test_structure_right_requires_n():
    with pytest.raises(ValueError):
        gl.jordan_structure(np.zeros((1, 1)), side="right")
    with pytest.raises(ValueError, match="^side='right' needs the ambient row count n$"):
        gl.jordan_structure(np.eye(3), side="right")


def test_structure_right_refuses_n_below_m():
    # the right value is m x m, and GL(n) x GL(m) needs m <= n
    with pytest.raises(ValueError, match="^ambient row count must be at least m$"):
        gl.jordan_structure(np.eye(3), side="right", n=2)


def test_structure_rejects_nonsquare():
    with pytest.raises(ValueError):
        gl.jordan_structure(np.zeros((2, 3)), side="left")
