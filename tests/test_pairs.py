"""Instance plumbing, algebra elements and the structural checks."""

import numpy as np
import pytest

from dualpairs import general_linear, pairs, seesaw, symplectic, unitary
from dualpairs.linalg import (
    SKEW_RTOL,
    algebra_residual,
    group_residual,
    random_group_element,
    skew_canonical,
    standard_J,
    stream_rng,
)
from dualpairs.pairs import (
    DualPairInstance,
    LevelMismatchError,
    MomentumValue,
    act,
    algebra_size,
    algebra_tag,
    check_equivariance,
    check_level_invariance,
    check_lie_weinstein,
    check_pairing_identity,
    infinitesimal_action,
    momentum,
    random_algebra_element,
    require_level_match,
    tangent_omega,
)
from test_batched_oracles import _ref_algebra_basis, _ref_basis_stack


def _unitary_inst(n, m, seed):
    rng = stream_rng(seed, 0)
    E = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    return DualPairInstance("unitary", n, m, E)


def _symplectic_inst(n, m, seed):
    rng = stream_rng(seed, 1)
    return DualPairInstance("symplectic", n, m, rng.standard_normal((2 * n, m)))


def _gl_inst(n, m, seed):
    rng = stream_rng(seed, 2)
    pt = general_linear.CotangentPoint(rng.standard_normal((n, m)),
                                       rng.standard_normal((n, m)))
    return DualPairInstance("general_linear", n, m, pt)


# ---------------------------------------------------------------------------
# instance validation

def test_instance_rejects_unknown_pair():
    with pytest.raises(ValueError):
        DualPairInstance("banana", 1, 1, np.zeros((1, 1)))


def test_instance_rejects_bad_shapes():
    with pytest.raises(ValueError):
        DualPairInstance("unitary", 2, 2, np.zeros((2, 1)))
    with pytest.raises(ValueError):
        DualPairInstance("symplectic", 2, 2, np.zeros((3, 2)))


def test_symplectic_instance_needs_rank_m():
    E = np.zeros((4, 2))
    E[0, 0] = 1.0
    E[1, 1] = 0.0  # rank 1 < m
    with pytest.raises(ValueError):
        DualPairInstance("symplectic", 2, 2, E)
    with pytest.raises(ValueError):
        DualPairInstance("symplectic", 1, 3, np.ones((2, 3)))  # m > 2n


def test_symplectic_instance_refuses_complex_point():
    # the float cast would drop the imaginary parts
    with pytest.raises(ValueError, match="real"):
        DualPairInstance("symplectic", 1, 2, np.eye(2) + 1j * np.eye(2)[::-1])


def test_gl_instance_needs_point_pair():
    with pytest.raises(ValueError):
        DualPairInstance("general_linear", 2, 1, np.zeros((2, 1)))
    with pytest.raises(ValueError):
        DualPairInstance("general_linear", 1, 2,
                         general_linear.CotangentPoint(np.ones((1, 2)),
                                                       np.ones((1, 2))))


# ---------------------------------------------------------------------------
# algebra bases and elements

@pytest.mark.parametrize("algebra,size,expected", [
    ("u", 3, 9),
    ("o", 4, 6),
    ("sp", 4, 10),
    ("gl", 3, 9),
])
def test_algebra_basis_dimension(algebra, size, expected):
    # the loop basis of the oracles, and the span of the sampler's draws
    assert len(_ref_algebra_basis(algebra, size)) == expected
    rng = stream_rng(33, size)
    draws = [random_algebra_element(algebra, size, rng) for _ in range(expected + 3)]
    coords = np.array([np.concatenate([d.real.ravel(), np.imag(d).ravel()]) for d in draws])
    assert np.linalg.matrix_rank(coords) == expected


def test_algebra_basis_defining_identities():
    rng = stream_rng(34, 0)
    for algebra, group, size in (("u", "unitary", 3), ("o", "orthogonal", 3),
                                 ("sp", "symplectic", 4)):
        for b in _ref_algebra_basis(algebra, size) + [random_algebra_element(algebra, size, rng)]:
            assert algebra_residual(group, b) == 0.0


def test_algebra_basis_independent():
    cols = np.column_stack([b.ravel() for b in _ref_algebra_basis("sp", 4)])
    assert np.linalg.matrix_rank(cols) == 10


def test_algebra_basis_rejects_bad_tags():
    size = pairs._probes.cache_info().currsize
    # a refused key raises on every call and is never cached
    for _ in range(2):
        with pytest.raises(ValueError, match="unknown algebra tag"):
            random_algebra_element("x", 2, stream_rng(0))
        with pytest.raises(ValueError, match="sp size must be even"):
            random_algebra_element("sp", 3, stream_rng(0))
        with pytest.raises(ValueError, match="sp size must be even"):
            pairs._probes("sp", 3)
    assert pairs._probes.cache_info().currsize == size


# ---------------------------------------------------------------------------
# momentum and actions

def test_momentum_zero_point():
    inst = DualPairInstance("unitary", 2, 1, np.zeros((2, 1)))
    mv = momentum(inst, "left")
    assert mv.algebra == "u"
    np.testing.assert_array_equal(mv.value, np.zeros((2, 2)))


def test_momentum_gl_identity():
    pt = general_linear.CotangentPoint(np.eye(2), np.eye(2))
    inst = DualPairInstance("general_linear", 2, 2, pt)
    np.testing.assert_array_equal(momentum(inst, "left").value, np.eye(2))


def test_momentum_symplectic_hand_value():
    inst = DualPairInstance("symplectic", 1, 2, np.eye(2))
    mv = momentum(inst, "right")
    np.testing.assert_allclose(mv.value, [[0.0, -0.5], [0.5, 0.0]])
    assert mv.algebra == "o"
    assert mv.identity_residual() <= 1e-15


def test_momentum_identity_residuals_vanish():
    for inst in (_unitary_inst(3, 2, 30), _symplectic_inst(2, 2, 30),
                 _gl_inst(3, 2, 30)):
        for side in ("left", "right"):
            assert momentum(inst, side).identity_residual() <= 1e-13


# each group with an instance it acts on, the side, and its algebra
_MEMBERSHIP = {
    "unitary": (_unitary_inst, "left", "u"),
    "orthogonal": (_symplectic_inst, "right", "o"),
    "symplectic": (_symplectic_inst, "left", "sp"),
    "general_linear": (_gl_inst, "left", "gl"),
}


@pytest.mark.parametrize("group", sorted(_MEMBERSHIP))
def test_membership_residuals_and_refusals(group):
    make, side, algebra = _MEMBERSHIP[group]
    inst = make(3, 2, 32)
    k = algebra_size(inst, side)
    g = random_group_element(group, k, 32, 1)
    assert group_residual(group, g) <= 1e-14
    basis = _ref_basis_stack(algebra, k)
    assert np.all(algebra_residual(group, basis) == 0.0)
    # a hand-made non-member of the algebra, when it has an identity
    X = basis.sum(axis=0) + 1e-6 * np.eye(k)
    identity = MomentumValue(algebra, X).identity_residual()
    if group == "general_linear":
        # no form to preserve: only rank decides, and the action's solve
        # refuses an exactly singular element
        assert identity == 0.0
        g[:, 0] = 0.0
        assert group_residual(group, g) == 1.0
        with pytest.raises(np.linalg.LinAlgError):
            act(inst, side, g)
        return
    assert identity > 1e-13
    # require_member's bound, then its refusal inside act
    assert group_residual(group, g + 1e-3 * np.eye(k)) > 1e-6 * max(1.0, np.linalg.norm(g))
    with pytest.raises(ValueError, match="not in the expected group"):
        act(inst, side, 2.0 * np.eye(k))
    if group == "unitary":
        with pytest.raises(ValueError, match="must be anti-Hermitian"):
            seesaw.embed_u_to_sp(X)
    if group == "orthogonal":
        assert algebra_residual(group, X) > SKEW_RTOL * np.linalg.norm(X)
        with pytest.raises(ValueError, match="not skew-symmetric"):
            skew_canonical(X)


def test_momentum_rejects_bad_side():
    with pytest.raises(ValueError):
        momentum(_unitary_inst(2, 2, 31), "up")


def test_act_identity_fixes_point():
    inst = _unitary_inst(2, 2, 32)
    out = act(inst, "left", np.eye(2))
    np.testing.assert_array_equal(out.point, inst.point)


def test_act_then_inverse_returns():
    inst = _unitary_inst(3, 2, 33)
    U = random_group_element("unitary", 3, 34)
    back = act(act(inst, "left", U), "left", np.conj(U).T)
    np.testing.assert_allclose(back.point, inst.point, atol=1e-12)


def test_act_gl_scalar_case():
    pt = general_linear.CotangentPoint(np.eye(2), np.eye(2))
    inst = DualPairInstance("general_linear", 2, 2, pt)
    out = act(inst, "left", 2.0 * np.eye(2))
    np.testing.assert_allclose(out.point.Q, 2.0 * np.eye(2))
    np.testing.assert_allclose(out.point.P, 0.5 * np.eye(2))


def test_act_enforces_group_membership():
    inst = _unitary_inst(2, 2, 35)
    with pytest.raises(ValueError):
        act(inst, "left", 2.0 * np.eye(2))
    with pytest.raises(ValueError):
        act(inst, "left", np.eye(3))


# ---------------------------------------------------------------------------
# structural checks

def test_equivariance_identity_element():
    inst = _symplectic_inst(2, 2, 36)
    assert check_equivariance(inst, "left", np.eye(4)) <= 1e-15


def test_equivariance_unitary_random():
    inst = _unitary_inst(3, 3, 37)
    U = random_group_element("unitary", 3, 38)
    assert check_equivariance(inst, "left", U) <= 1e-10
    V = random_group_element("unitary", 3, 39)
    assert check_equivariance(inst, "right", V) <= 1e-10


def test_equivariance_gl_random():
    inst = _gl_inst(3, 2, 40)
    A = random_group_element("general_linear", 3, 41)
    assert check_equivariance(inst, "left", A) <= 1e-10
    B = random_group_element("general_linear", 2, 42)
    assert check_equivariance(inst, "right", B) <= 1e-10


def test_level_invariance_identity():
    inst = _gl_inst(2, 2, 43)
    assert check_level_invariance(inst, "left", np.eye(2)) <= 1e-15


def test_level_invariance_symplectic():
    inst = _symplectic_inst(2, 2, 44)
    S = random_group_element("symplectic", 4, 45)
    assert check_level_invariance(inst, "right", S) <= 1e-10


def test_level_invariance_gl():
    inst = _gl_inst(3, 2, 46)
    B = random_group_element("general_linear", 2, 47)
    assert check_level_invariance(inst, "left", B) <= 1e-10


def test_pairing_identity_equal_arguments():
    inst = _unitary_inst(2, 2, 48)
    xi = 1j * np.eye(2)
    assert check_pairing_identity(inst, xi, xi, "left") == pytest.approx(0.0,
                                                                        abs=1e-15)


def test_pairing_identity_symplectic_hand_case():
    inst = DualPairInstance("symplectic", 1, 1, np.array([[1.0], [0.0]]))
    xi = standard_J(1)
    zeta = np.diag([1.0, -1.0])
    assert check_pairing_identity(inst, xi, zeta, "left") <= 1e-12


def test_pairing_identity_gl_right_random():
    inst = _gl_inst(3, 2, 49)
    rng = stream_rng(50, 0)
    xi = rng.standard_normal((2, 2))
    zeta = rng.standard_normal((2, 2))
    assert check_pairing_identity(inst, xi, zeta, "right") <= 1e-9


def test_lie_weinstein_scalar_case():
    inst = DualPairInstance("unitary", 1, 1, np.array([[1.0]]))
    rep = check_lie_weinstein(inst)
    assert rep["dim_left_orbit"] == 1
    assert rep["dim_right_orbit"] == 1
    assert rep["ambient_dim"] == 2


def test_lie_weinstein_symplectic_identity_point():
    inst = DualPairInstance("symplectic", 1, 2, np.eye(2))
    rep = check_lie_weinstein(inst)
    assert rep["dim_left_orbit"] == 3
    assert rep["dim_right_orbit"] == 1
    assert rep["ambient_dim"] == 4
    assert rep["cross_omega_residual"] <= 1e-10


def test_lie_weinstein_needs_full_rank():
    with pytest.raises(ValueError):
        check_lie_weinstein(DualPairInstance("unitary", 2, 2, np.zeros((2, 2))))


@pytest.mark.parametrize("which", ["E", "Q", "P"])
def test_lie_weinstein_refuses_each_deficient_factor(which):
    # the full-rank test reads the singular values of every factor of the
    # point: E on the unitary pair, each of Q and P on the general linear
    # pair
    rng = stream_rng(57, 0)
    a = rng.standard_normal((4, 2))
    a[:, 1] = 2.0 * a[:, 0]
    if which == "E":
        inst = DualPairInstance("unitary", 4, 2, a + 0j)
    else:
        b = rng.standard_normal((4, 2))
        Q, P = (a, b) if which == "Q" else (b, a)
        inst = DualPairInstance("general_linear", 4, 2, general_linear.CotangentPoint(Q, P))
    assert not inst.full_rank()
    with pytest.raises(ValueError, match="^orbit-dimension check requires a full-rank point$"):
        check_lie_weinstein(inst)


def test_lie_weinstein_cross_residual_random():
    for inst in (_unitary_inst(3, 2, 51), _symplectic_inst(2, 3, 51),
                 _gl_inst(3, 2, 51)):
        rep = check_lie_weinstein(inst)
        assert rep["cross_omega_residual"] <= 1e-10


def _transpose(xi):
    return np.swapaxes(xi, -1, -2)


# faults in the general linear actions that move the two orbits off
# omega-orthogonality, by the action they replace
_GL_MUTANTS = {
    "right_sign_flipped": ("infinitesimal_right",
                           lambda pt, xi: (pt.Q @ xi, pt.P @ _transpose(xi))),
    "right_without_transpose": ("infinitesimal_right", lambda pt, xi: (pt.Q @ xi, -pt.P @ xi)),
    "left_without_transpose": ("infinitesimal_left", lambda xi, pt: (xi @ pt.Q, -xi @ pt.P)),
}


@pytest.mark.parametrize("mutant", sorted(_GL_MUTANTS))
def test_lie_weinstein_probes_catch_faulted_gl_actions(mutant, monkeypatch):
    # each fault reads far above the suite's 1e-10 at every one of 20 4x3
    # points (measured: at least 0.17)
    name, action = _GL_MUTANTS[mutant]
    monkeypatch.setattr(general_linear, name, action)
    worst = min(check_lie_weinstein(_gl_inst(4, 3, seed))["cross_omega_residual"]
                for seed in range(20))
    assert worst > 1e-10


@pytest.mark.parametrize("scale", [1e3, 1e4])
def test_lie_weinstein_residual_does_not_grow_with_the_point(scale):
    # an absolute residual of this unitary 8x6 point read 6.1e-10 at 1e3
    # and 7.8e-8 at 1e4, past the suite's 1e-10; the cross values are
    # divided by the norms of their tangents
    rng = np.random.default_rng(0)
    E = rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6))
    rep = check_lie_weinstein(DualPairInstance("unitary", 8, 6, scale * E))
    assert rep["cross_omega_residual"] <= 1e-10
    assert rep["dim_left_orbit"] + rep["dim_right_orbit"] == rep["ambient_dim"]


@pytest.mark.filterwarnings("error")
def test_lie_weinstein_reads_zero_on_the_empty_orthogonal_algebra():
    # o(1) has dimension 0: its probes are zero, so are their tangents and
    # every cross value, which reads 0 with no division warning
    rep = check_lie_weinstein(_symplectic_inst(3, 1, 62))
    assert rep["cross_omega_residual"] == 0.0
    assert (rep["dim_left_orbit"], rep["dim_right_orbit"], rep["ambient_dim"]) == (6, 0, 6)


@pytest.mark.parametrize("make", [_unitary_inst, _symplectic_inst, _gl_inst])
def test_tangent_parts_are_darboux_halves(make):
    # the halves of to_real give (q, p) with omega(t1, t2) = q1 . p2 - p1 . q2,
    # the contract behind check_lie_weinstein's one-product cross term.
    # Left x left values are O(1), not roundoff, so swapped halves or a
    # dropped sign show far above the tolerance.
    inst = make(4, 3, 61)
    basis = _ref_basis_stack(algebra_tag(inst.pair_id, "left"), algebra_size(inst, "left"))
    t = infinitesimal_action(inst, "left", basis)
    q, p = (a.reshape(len(basis), -1) for a in np.split(inst.module.to_real(t), 2, axis=-2))
    gram = np.hstack([q, p]) @ np.hstack([p, -q]).T

    def lift(key):
        return tuple(a[key] for a in t) if isinstance(t, tuple) else t[key]

    want = tangent_omega(inst, lift(np.s_[:, np.newaxis]), lift(np.newaxis))
    assert want.shape == gram.shape == (len(basis), len(basis))
    scale = float(np.max(np.abs(want)))
    assert scale > 1.0
    assert np.max(np.abs(gram - want)) <= 1e-13 * scale


# ---------------------------------------------------------------------------
# orbit correspondence and level matching

def test_orbit_correspondence_unitary_canonical_diagonal():
    # one label for both sides: the min(n, m) singular values, whose
    # canonical point is the n x m diagonal they fill
    inst = _unitary_inst(3, 2, 52)
    label, canonical = inst.module.orbit(inst.point)
    s = np.linalg.svd(inst.point, compute_uv=False)
    np.testing.assert_allclose(label["sigmas"], s)
    want = np.zeros((3, 2), dtype=complex)
    want[[0, 1], [0, 1]] = label["sigmas"]
    np.testing.assert_array_equal(canonical, want)


def test_orbit_correspondence_symplectic_template_point():
    inst = _symplectic_inst(2, 2, 53)
    label, canonical = inst.module.orbit(inst.point)
    inv = symplectic.symplectic_svd(inst.point)[3]
    assert label == inv.to_obj()
    assert inv.m == 2
    np.testing.assert_array_equal(canonical, symplectic.build_template(inv))


def test_orbit_correspondence_gl_nilpotent_case():
    pt = general_linear.CotangentPoint(np.array([[1.0], [0.0]]),
                                       np.array([[0.0], [1.0]]))
    inst = DualPairInstance("general_linear", 2, 1, pt)
    rep = pairs.orbit(inst)
    assert rep.label == {"blocks": [], "nilpotent": [2], "n": 2, "m": 1}
    np.testing.assert_array_equal(rep.normal_form_left, [[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_array_equal(rep.normal_form_right, [[0.0]])


def _signed_zeros(a):
    x = a.view(float) if np.iscomplexobj(a) else a
    return int(np.sum((x == 0) & np.signbit(x)))


@pytest.mark.parametrize("pair_id", sorted(pairs.PAIRS))
def test_orbit_normal_forms_are_the_momenta_of_the_canonical_point(pair_id):
    mod = pairs.PAIRS[pair_id]
    for n, m, seed in ((3, 2, 0), (4, 3, 1), (2, 2, 2)):
        x = mod.normal_form_partners(n, m, seed)[1]
        rep = pairs.orbit(DualPairInstance(pair_id, n, m, x))
        label, canonical = mod.orbit(x)
        assert rep.label == label
        for nf, value in ((rep.normal_form_left, mod.momentum_left(canonical)),
                          (rep.normal_form_right, mod.momentum_right(canonical))):
            assert nf.dtype == value.dtype
            np.testing.assert_array_equal(nf, value)
            assert _signed_zeros(nf) == 0


RANK_ONE_Q = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
RANK_TWO_P = [[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]]


def test_orbit_correspondence_gl_refuses_rank_deficient_point():
    # Q has rank 1 < m = 2; a label read off Q P^T would be one for m = 1
    pt = general_linear.CotangentPoint(np.array(RANK_ONE_Q), np.array(RANK_TWO_P))
    inst = DualPairInstance("general_linear", 3, 2, pt)
    assert not inst.full_rank()
    with pytest.raises(ValueError, match="full column rank"):
        inst.module.orbit(inst.point)


def test_require_level_match_raises():
    with pytest.raises(LevelMismatchError):
        require_level_match(np.eye(2), np.zeros((2, 2)), "left")
    require_level_match(np.eye(2), np.eye(2), "left")
