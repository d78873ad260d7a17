"""The batched structure checks against the per-basis loops they replaced.

The reference functions below keep the loop versions verbatim.  The
batched code does the same arithmetic in the same order, one basis stack
at a time, so every result must equal its reference exactly, not merely
approximately.

One sum is formed by a matrix product instead and is compared within a
rounding bound: the cross term of check_lie_weinstein (one product of the
Darboux coordinates of the two tangent stacks).  Those stacks are
gathered from the point through cached index maps: they equal the
products of basis_stack with the point entry for entry, the cross term
equals that of the products bit for bit, and the maps are read-only,
small, and leave no basis in basis_stack's cache.  Each map is probed in
windows of size consecutive basis elements: it equals, position for
position, the map read off one probe of the whole basis, every window's
tangents are checked (a fault in the last element alone is refused), and
a build at the 16 x 16 cap peaks under 1.5 MB.  algebra_element, the
suite's way to draw an algebra element, equals the sum over basis_stack
bit for bit and leaves no basis in its cache either.
The orbit dimensions of check_lie_weinstein are
still compared exactly.  They are read off the point's own singular
values: those closed-form values are compared within a rounding bound
with the SVD of each loop-assembled stack in orthonormal algebra
coordinates, on all three pairs and both sides.  The dimensions are
checked against rank_tol of the stacks at points of growing condition
number, for the SVDs and Cholesky factors they avoid, and at points
scaled to the ends of the float64 range; a stack moved off the omega
complement shows in the cross residual, and overflowing cross products
are refused.  jacobian_rank_right is the same rule on the unitary right
side: its values are compared within a rounding bound with the SVD of
the loop-assembled Jacobian, its rank is the loop reference's rank_tol
at every defect level, wide points included, and it does not change
when the point is scaled to the ends of the float64 range.  The
left leg of the seesaw diagrams restricts the sp momentum instead of
pairing it with every embedded basis element; that per-basis pairing is
now the oracle for the restriction maps, and the diagrams are compared
exactly with an entrywise restriction.  So is the GL left witness, whose
reference finds the same common complements by another
route (QR bases and a null space instead of SVD bases and a complete QR).

The unitary reference form is omega_real of the stacked real and
imaginary parts, the real model the batched code evaluates, so it is
compared exactly too; that the real model carries the complex form
Im Tr(E^dagger F) is checked in test_seesaw and by the suite's
omega_realification record.
"""

import tracemalloc

import numpy as np
import pytest

from dualpairs import general_linear as gl
from dualpairs import pairs, seesaw, symplectic, unitary
from dualpairs.linalg import random_group_element, rank_tol, relative_diff, stream_rng
from dualpairs.pairs import (
    DualPairInstance,
    algebra_size,
    algebra_tag,
    basis_stack,
    check_lie_weinstein,
    infinitesimal_action,
    tangent_omega,
)

# symplectic m = 1 has a zero-dimensional o(1); (3, 5) and (4, 8) give
# unitary points with n < m, so zero singular values
SHAPES = [(2, 1), (3, 2), (4, 4), (6, 3), (8, 6), (3, 5), (4, 8)]


# ---------------------------------------------------------------------------
# reference loops

def _unit(n, i, j, dtype=float):
    M = np.zeros((n, n), dtype=dtype)
    M[i, j] = 1
    return M


def _ref_algebra_basis(algebra, size):
    # A_kl = E_kl - E_lk (k < l) and S_kl = E_kl + E_lk (k <= l, so
    # S_kk = E_kk), each in row-major order of (k, l)
    out = []
    if algebra in ("o", "u"):
        dtype = complex if algebra == "u" else float
        for k in range(size):
            for l in range(k + 1, size):
                out.append(_unit(size, k, l, dtype) - _unit(size, l, k, dtype))
    if algebra == "u":
        for k in range(size):
            for l in range(k, size):
                M = np.zeros((size, size), dtype=complex)
                M[k, l] = 1j
                M[l, k] = 1j
                out.append(M)
    if algebra == "sp":
        # J^T S_kl: row r of S_kl becomes row r + n, and row n + r
        # becomes row r with its sign flipped
        n = size // 2
        for k in range(size):
            for l in range(k, size):
                M = np.zeros((size, size))
                for r, c in ((k, l), (l, k)):
                    if r < n:
                        M[r + n, c] = 1
                    else:
                        M[r - n, c] = -1
                out.append(M)
    if algebra == "gl":
        for i in range(size):
            for j in range(size):
                out.append(_unit(size, i, j))
    return out


def _ref_omega_real(X, Y):
    n = X.shape[0] // 2
    return float(np.sum(X[:n] * Y[n:]) - np.sum(X[n:] * Y[:n]))


def _ref_trace_pairing(a, b):
    return float(np.real(np.sum(a * b.T)))


def _ref_infinitesimal_action(inst, side, xi):
    if inst.pair_id == "general_linear":
        Q, P = inst.point.Q, inst.point.P
        if side == "left":
            return (xi @ Q, -xi.T @ P)
        return (Q @ xi, -P @ xi.T)
    if side == "left":
        return xi @ inst.point
    return inst.point @ xi


def _ref_tangent_omega(inst, t1, t2):
    if inst.pair_id == "unitary":
        return _ref_omega_real(np.vstack([np.real(t1), np.imag(t1)]),
                               np.vstack([np.real(t2), np.imag(t2)]))
    if inst.pair_id == "symplectic":
        return _ref_omega_real(t1, t2)
    return _ref_omega_real(np.vstack(t1), np.vstack(t2))


def _ref_vectorize_tangent(inst, t):
    if inst.pair_id == "unitary":
        return np.concatenate([np.real(t).ravel(), np.imag(t).ravel()])
    if inst.pair_id == "symplectic":
        return np.asarray(t, dtype=float).ravel()
    return np.concatenate([t[0].ravel(), t[1].ravel()])


def _vectorize_tangent(inst, t):
    # the batched route check_lie_weinstein took before it gathered its
    # stacks: the real models of a stack of tangents, read row-major
    x = inst.module.to_real(t)
    return x.reshape(x.shape[0], x.shape[-2] * x.shape[-1])


def _product_stacks(inst):
    # each side's stack as the product of its basis_stack with the point,
    # the right one swapped to (p, -q) as the gathered one is
    out = []
    for side in ("left", "right"):
        basis = basis_stack(algebra_tag(inst.pair_id, side), algebra_size(inst, side))
        out.append(_vectorize_tangent(inst, infinitesimal_action(inst, side, basis)))
    h = inst.n * inst.m
    out[1] = np.hstack([out[1][:, h:], -out[1][:, :h]])
    return out


def _ref_check_lie_weinstein(inst):
    tangents = {}
    for side in ("left", "right"):
        basis = _ref_algebra_basis(algebra_tag(inst.pair_id, side), algebra_size(inst, side))
        tangents[side] = [_ref_infinitesimal_action(inst, side, b) for b in basis]
    dims = {}
    for side in ("left", "right"):
        if not tangents[side]:
            # zero-dimensional algebra (orthogonal side at m = 1)
            dims[side] = 0
            continue
        cols = np.column_stack([_ref_vectorize_tangent(inst, t) for t in tangents[side]])
        dims[side] = rank_tol(cols)
    cross = 0.0
    for t1 in tangents["left"]:
        for t2 in tangents["right"]:
            cross = max(cross, abs(_ref_tangent_omega(inst, t1, t2)))
    return {
        "dim_left_orbit": dims["left"],
        "dim_right_orbit": dims["right"],
        "ambient_dim": inst.ambient_dim(),
        "cross_omega_residual": cross,
    }


def _ref_embed_u_to_sp(zeta):
    z1, z2 = np.real(zeta), np.imag(zeta)
    return np.block([[z1, -z2], [z2, z1]])


def _ref_embed_gl_to_sp(zeta):
    n = zeta.shape[0]
    out = np.zeros((2 * n, 2 * n))
    out[:n, :n] = zeta
    out[n:, n:] = -zeta.T
    return out


def _ref_restrict_sp_to_u(j):
    n = j.shape[0] // 2
    out = np.zeros((n, n), dtype=complex)
    for k in range(n):
        for l in range(n):
            out[k, l] = complex(j[k, l] + j[n + k, n + l], j[n + k, l] - j[k, n + l])
    return out


def _ref_restrict_sp_to_gl(j):
    n = j.shape[0] // 2
    out = np.zeros((n, n))
    for k in range(n):
        for l in range(n):
            out[k, l] = j[k, l] - j[n + l, n + k]
    return out


def _ref_check_diagram_sp_u(E):
    E = np.asarray(E, dtype=complex)
    Er = np.vstack([np.real(E), np.imag(E)])
    left = float(np.linalg.norm(_ref_restrict_sp_to_u(symplectic.momentum_left(Er))
                                - unitary.momentum_left(E)))
    right = float(np.linalg.norm(
        seesaw.restrict_u_to_o(unitary.momentum_right(E))
        - symplectic.momentum_right(Er)))
    return {"left": left, "right": right}


def _ref_check_diagram_sp_gl(pt):
    Q = np.asarray(pt.Q, dtype=float)
    P = np.asarray(pt.P, dtype=float)
    Er = np.vstack([Q, P])
    left = float(np.linalg.norm(_ref_restrict_sp_to_gl(symplectic.momentum_left(Er))
                                - gl.momentum_left(pt)))
    right = float(np.linalg.norm(
        seesaw.restrict_gl_to_o(gl.momentum_right(pt))
        - symplectic.momentum_right(Er)))
    return {"left": left, "right": right}


def _ref_jacobian_matrix(E):
    E = np.asarray(E, dtype=complex)
    n, m = E.shape
    cols = []
    Ed = np.conj(E).T
    for i in range(n):
        for j in range(m):
            for val in (1.0, 1.0j):
                X = np.zeros((n, m), dtype=complex)
                X[i, j] = val
                T = 0.5j * (np.conj(X).T @ E + Ed @ X)
                cols.append(np.concatenate([np.real(T).ravel(), np.imag(T).ravel()]))
    return np.column_stack(cols)


def _ref_jacobian_rank_right(E):
    return rank_tol(_ref_jacobian_matrix(E))


def _ref_complement(M1, M2):
    # the same subspace by another route: QR bases, the bisector of each
    # principal pair in turn, and the null space of the bisectors' span
    # from a full SVD
    m = M1.shape[1]
    B1, B2 = np.linalg.qr(M1)[0], np.linalg.qr(M2)[0]
    Uy, _, Vzh = np.linalg.svd(B1.T @ B2)
    W = np.column_stack([B1 @ Uy[:, i] + B2 @ Vzh[i] for i in range(m)])
    return np.linalg.svd(W.T)[2][m:].T


def _ref_witness_left(pt, pt_prime):
    # witness_left with the reference complement; the rank and level
    # checks are left to the library call made on the same points
    Q, P = pt.Q, pt.P
    Q2, P2 = pt_prime.Q, pt_prime.P
    Y = _ref_complement(P, P2)
    P2Y = np.column_stack([P2, Y])
    C = (np.column_stack([P, Y]) @ np.linalg.inv(P2Y)).T
    X = _ref_complement(Q, np.linalg.solve(C, Q2))
    QX = np.column_stack([Q, X])
    A = np.column_stack([Q2, C @ X]) @ np.linalg.inv(QX)
    res_q = relative_diff(A @ Q, Q2)
    res_p = relative_diff(np.linalg.solve(A.T, P), P2)
    cond = max(float(np.linalg.cond(QX)), float(np.linalg.cond(P2Y)))
    return A, max(res_q, res_p), cond


# ---------------------------------------------------------------------------
# instances

def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _instances(n, m, seed):
    rng = stream_rng(seed, 100 * n + m)
    out = [DualPairInstance("unitary", n, m, _complex(rng, n, m)),
           DualPairInstance("symplectic", n, m, rng.standard_normal((2 * n, m)))]
    if m <= n:
        pt = gl.CotangentPoint(rng.standard_normal((n, m)), rng.standard_normal((n, m)))
        out.append(DualPairInstance("general_linear", n, m, pt))
    return out


def _norm2(pt):
    # squared Frobenius norm of a point; (Q, P) for the general linear pair
    if isinstance(pt, gl.CotangentPoint):
        return np.linalg.norm(pt.Q) ** 2 + np.linalg.norm(pt.P) ** 2
    return np.linalg.norm(pt) ** 2


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _lift(t, key):
    return tuple(a[key] for a in t) if isinstance(t, tuple) else t[key]


# ---------------------------------------------------------------------------
# tests

@pytest.mark.parametrize("algebra,sizes", [("u", range(1, 9)), ("o", range(1, 9)),
                                           ("sp", range(2, 17, 2)), ("gl", range(1, 9))])
def test_basis_stack_matches_the_loop_basis(algebra, sizes):
    for size in sizes:
        ref = _ref_algebra_basis(algebra, size)
        stack = basis_stack(algebra, size)
        assert stack.shape == (len(ref), size, size)
        assert all(_same_bits(a, b) for a, b in zip(ref, stack))
        # the cached stack is the one every call shares, and equals a build
        # that bypasses the cache
        assert basis_stack(algebra, size) is stack
        assert not stack.flags.writeable
        with pytest.raises(ValueError):
            stack += stack
        assert _same_bits(stack, basis_stack.__wrapped__(algebra, size))


@pytest.mark.parametrize("n", range(1, 13))
def test_embed_u_to_sp_matches_the_block_reference(n):
    basis = basis_stack("u", n)
    got = seesaw.embed_u_to_sp(basis)
    assert got.shape == (n * n, 2 * n, 2 * n)
    assert all(_same_bits(g, _ref_embed_u_to_sp(b)) for g, b in zip(got, basis))
    A = _complex(stream_rng(41, n), n, n)
    zeta = A - np.conj(A).T
    assert _same_bits(seesaw.embed_u_to_sp(zeta), _ref_embed_u_to_sp(zeta))


@pytest.mark.parametrize("n,m", SHAPES)
def test_batched_tangents_and_omega_match_per_element_calls(n, m):
    for inst in _instances(n, m, 7):
        stacks, k = {}, {}
        for side in ("left", "right"):
            basis = basis_stack(algebra_tag(inst.pair_id, side), algebra_size(inst, side))
            stacks[side], k[side] = infinitesimal_action(inst, side, basis), len(basis)
            for a, b in enumerate(basis):
                want = _ref_infinitesimal_action(inst, side, b)
                got = _lift(stacks[side], a)
                if inst.pair_id == "general_linear":
                    assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
                else:
                    assert _same_bits(got, want)
        left, right = stacks["left"], stacks["right"]
        got = tangent_omega(inst, _lift(left, np.s_[:, np.newaxis]), _lift(right, np.newaxis))
        want = np.array([[_ref_tangent_omega(inst, _lift(left, a), _lift(right, b))
                          for b in range(k["right"])] for a in range(k["left"])])
        assert got.shape == (k["left"], k["right"])
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n,m", SHAPES)
def test_check_lie_weinstein_equals_the_loop_reference(n, m):
    eps = np.finfo(float).eps
    for seed in range(4):
        for inst in _instances(n, m, seed):
            if not inst.full_rank():
                continue
            got = check_lie_weinstein(inst)
            want = _ref_check_lie_weinstein(inst)
            cross = got.pop("cross_omega_residual")
            assert abs(cross - want.pop("cross_omega_residual")) <= (
                2 * n * m * eps * _norm2(inst.point))
            assert got == want
            assert isinstance(got["dim_left_orbit"], int)
            assert isinstance(cross, float)


# the gathered stacks, at every shape of the batched tests, the two
# largest the structure checks reach, and a wide unitary point
GATHER_SHAPES = SHAPES + [(12, 8), (16, 16), (6, 12)]


@pytest.mark.parametrize("n,m", GATHER_SHAPES)
def test_gathered_stacks_equal_the_basis_products(n, m):
    for inst in _instances(n, m, 71):
        for got, want in zip(pairs._tangent_stacks(inst), _product_stacks(inst)):
            # == holds for zeros of either sign, the one freedom of a gather
            assert got.shape == want.shape and np.array_equal(got, want), inst.pair_id


@pytest.mark.parametrize("n,m", GATHER_SHAPES)
def test_cross_omega_residual_is_the_basis_product_value(n, m):
    for inst in _instances(n, m, 73):
        left, right = _product_stacks(inst)
        want = float(np.max(np.abs(left @ right.T), initial=0.0))
        got = check_lie_weinstein(inst)["cross_omega_residual"]
        assert _same_bits(np.float64(got), np.float64(want)), inst.pair_id


def test_tangent_maps_are_read_only():
    for inst in _instances(4, 3, 79):
        for side in ("left", "right"):
            _, pos, src = pairs._tangent_map(inst.pair_id, side, inst.n, inst.m)
            for a in (pos, src):
                assert a.dtype == np.int32 and not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 0


def test_check_lie_weinstein_caches_no_basis():
    # with the maps rebuilt from scratch, the probe's bases stay out of
    # basis_stack's cache, so no dense basis outlives the call; nor does
    # the basis of an algebra_element draw at the 16 x 16 cap
    pairs._tangent_map.cache_clear()
    size = basis_stack.cache_info().currsize
    for n, m in [(3, 2), (16, 16)]:
        for inst in _instances(n, m, 83):
            check_lie_weinstein(inst)
    rng = stream_rng(83, 1)
    for algebra, k in (("u", 16), ("o", 16), ("sp", 32), ("gl", 16)):
        pairs.algebra_element(algebra, k, rng.standard_normal(pairs.algebra_dim(algebra, k)))
    assert pairs._tangent_map.cache_info().currsize > 0
    assert basis_stack.cache_info().currsize == size


@pytest.mark.parametrize("moved", [
    # differences of two coordinates: on the left, whole numbers within
    # the probe's range, so only the Gaussian point tells them from one
    # coordinate
    lambda t: t - np.roll(t, 1, axis=-1),
    # twice a coordinate: out of the probe's range
    lambda t: 2.0 * t,
], ids=["difference", "double"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_tangent_map_refuses_an_action_that_is_not_a_gather(moved, side, monkeypatch):
    for name in ("infinitesimal_left", "infinitesimal_right"):
        monkeypatch.setattr(symplectic, name, lambda a, b: moved(np.matmul(a, b)))
    with pytest.raises(ValueError, match=f"^the {side} tangents of the symplectic pair "
                                         "are not signed coordinates of the point$"):
        pairs._tangent_map.__wrapped__("symplectic", side, 3, 2)


@pytest.mark.parametrize("side", ["left", "right"])
def test_tangent_map_refuses_when_only_the_last_row_is_not_a_gather(side, monkeypatch):
    # the doubled tangents belong to the last element of the side's basis
    # alone, in its last probe window: only that window's own checks can
    # refuse the map
    last = basis_stack.__wrapped__(algebra_tag("symplectic", side), 6 if side == "left" else 3)[-1]

    def moved(xi, t):
        t[np.all(xi == last, axis=(-2, -1))] *= 2.0
        return t
    monkeypatch.setattr(symplectic, "infinitesimal_left",
                        lambda xi, x: moved(xi, np.matmul(xi, x)))
    monkeypatch.setattr(symplectic, "infinitesimal_right",
                        lambda x, xi: moved(xi, np.matmul(x, xi)))
    with pytest.raises(ValueError, match=f"^the {side} tangents of the symplectic pair "
                                         "are not signed coordinates of the point$"):
        pairs._tangent_map.__wrapped__("symplectic", side, 3, 3)


def _whole_basis_map(pair, side, n, m):
    # the map read off one probe of the whole dense basis, as the
    # positions and sources of the nonzero entries of its tangent stack
    mod = pairs.PAIRS[pair]
    width = 2 * n * m
    x = mod.from_real(np.arange(1.0, width + 1).reshape(2 * n, m))
    size = x.shape[0 if side == "left" else 1]
    basis = basis_stack.__wrapped__(algebra_tag(pair, side), size)
    t = mod.infinitesimal_left(basis, x) if side == "left" else mod.infinitesimal_right(x, basis)
    v = mod.to_real(t).reshape(-1, width)
    if side == "right":
        v = np.hstack([v[:, width // 2:], -v[:, :width // 2]])
    pos = np.flatnonzero(v)
    return len(v), pos, v.reshape(-1)[pos] + width


@pytest.mark.parametrize("n,m", [(2, 1), (3, 5), (5, 3), (12, 8), (16, 16)])
@pytest.mark.parametrize("pair", ["unitary", "symplectic", "general_linear"])
def test_row_probed_maps_equal_the_whole_basis_probe(pair, n, m):
    # (2, 1) includes the empty o(1)
    for side in ("left", "right"):
        dim, pos, src = pairs._tangent_map(pair, side, n, m)
        want_dim, want_pos, want_src = _whole_basis_map(pair, side, n, m)
        assert dim == want_dim, side
        assert np.array_equal(pos, want_pos) and np.array_equal(src, want_src), side


@pytest.mark.parametrize("pair", ["unitary", "symplectic", "general_linear"])
def test_tangent_map_builds_stay_small_at_the_cap(pair):
    # a whole-basis probe peaks at 2.4-10.7 MB here; windows of size
    # elements stay under 1.5 MB
    for side in ("left", "right"):
        pairs._tangent_map.__wrapped__(pair, side, 16, 16)  # imports and caches warm
        tracemalloc.start()
        try:
            pairs._tangent_map.__wrapped__(pair, side, 16, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6, (side, peak)


@pytest.mark.parametrize("algebra,sizes", [("u", range(2, 9)), ("o", range(2, 9)),
                                           ("sp", range(2, 17, 2)), ("gl", range(1, 9))])
def test_algebra_element_is_the_basis_sum_bit_for_bit(algebra, sizes):
    rng = stream_rng(89, len(algebra))
    for size in sizes:
        basis = basis_stack(algebra, size)
        coef = rng.standard_normal(len(basis))
        want = sum(c * b for c, b in zip(coef, basis))
        assert _same_bits(pairs.algebra_element(algebra, size, coef), want), size


@pytest.mark.parametrize("pair", ["unitary", "symplectic", "general_linear"])
def test_tangent_maps_hold_a_quarter_of_the_dense_basis_at_the_cap(pair):
    for side in ("left", "right"):
        _, pos, src = pairs._tangent_map(pair, side, 16, 16)
        size = 16 if side == "right" or pair != "symplectic" else 32
        dense = basis_stack.__wrapped__(algebra_tag(pair, side), size)
        assert pos.nbytes + src.nbytes <= dense.nbytes / 4, side


def _conditioned(rng, rows, m, kappa, cplx=False, k=None):
    # U diag(logspace(0, -log10 kappa, k)) V, k = min(rows, m) unless
    # given, with U and V from QRs of Gaussians
    k = min(rows, m) if k is None else k

    def draw(a, b):
        return _complex(rng, a, b) if cplx else rng.standard_normal((a, b))
    U = np.linalg.qr(draw(rows, k))[0]
    V = np.linalg.qr(draw(m, k))[0]
    return (U * np.logspace(0, -np.log10(kappa), k)) @ np.conj(V).T


def _conditioned_instances(n, m, kappa, seed):
    rng = stream_rng(seed, 100 * n + m)
    out = [DualPairInstance("unitary", n, m, _conditioned(rng, n, m, kappa, cplx=True)),
           DualPairInstance("symplectic", n, m, _conditioned(rng, 2 * n, m, kappa))]
    if m <= n:
        pt = gl.CotangentPoint(_conditioned(rng, n, m, kappa), _conditioned(rng, n, m, kappa))
        out.append(DualPairInstance("general_linear", n, m, pt))
    return out


def _stack_ranks(inst):
    # the rank_tol of each side's tangent stack, the route the orbit
    # dimensions read off the point's singular values must agree with
    out = {}
    for side in ("left", "right"):
        basis = basis_stack(algebra_tag(inst.pair_id, side), algebra_size(inst, side))
        out[side] = rank_tol(_vectorize_tangent(inst, infinitesimal_action(inst, side, basis)).T)
    return out


@pytest.mark.parametrize("n,m", SHAPES + [(12, 8), (16, 16)])
@pytest.mark.parametrize("kappa", [None, 1.0, 1e4, 1e6, 1e8])
def test_certified_orbit_dims_are_rank_tol_dims(n, m, kappa):
    # kappa None draws Gaussian points; the others, points of condition
    # number kappa (1 for a single column).  At every one the dimensions
    # are rank_tol's
    insts = (_instances(n, m, 61) if kappa is None
             else _conditioned_instances(n, m, kappa, 61))
    for inst in insts:
        assert inst.full_rank()
        got = check_lie_weinstein(inst)
        want = _stack_ranks(inst)
        assert (got["dim_left_orbit"], got["dim_right_orbit"]) == (want["left"], want["right"])


@pytest.mark.parametrize("eps", [1e-3, 1e-9])
def test_orbit_dims_certificate_refuses_a_stack_off_the_omega_complement(eps, monkeypatch):
    # the gathered left tangents of a unitary 3x2 point, moved off the
    # omega complement of the right orbit by eps times noise: the 9 moved
    # rows are independent in R^12, so the two stacks no longer split
    # R^12.  The dimensions are read off the point, not the moved stack,
    # and stay (8, 4); the move shows in the cross residual, which the
    # suite refuses above 1e-10 (measured: 7.7e-3 and 7.7e-9)
    rng = stream_rng(59, 0)
    inst = DualPairInstance("unitary", 3, 2, _complex(rng, 3, 2))
    noise = unitary.to_real(_complex(rng, 9, 3, 2)).reshape(9, 12)
    stacks = pairs._tangent_stacks

    def moved(at):
        left, right = stacks(at)
        return left + eps * noise, right
    assert check_lie_weinstein(inst)["cross_omega_residual"] <= 1e-14
    monkeypatch.setattr(pairs, "_tangent_stacks", moved)
    got = check_lie_weinstein(inst)
    assert (got["dim_left_orbit"], got["dim_right_orbit"]) == (8, 4)
    assert got["cross_omega_residual"] > 1e-10


@pytest.mark.parametrize("n,m", SHAPES + [(12, 8), (16, 16)])
def test_certified_paths_take_no_svd_of_a_stack(n, m, monkeypatch):
    # only the points themselves are factored (full_rank, the stacked SVD
    # of Q and P, the unitary point's SVD in jacobian_rank_right): no
    # tangent stack, no m^2 x 2nm Jacobian matrix and no Gram is
    # factored, for n < m too
    shapes = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    def no_cholesky(a, *args, **kwargs):
        raise AssertionError(f"cholesky of a {np.shape(a)} matrix")
    for inst in _instances(n, m, 67):
        monkeypatch.setattr(np.linalg, "svd", spy)
        monkeypatch.setattr(np.linalg, "cholesky", no_cholesky)
        check_lie_weinstein(inst)
        if inst.pair_id == "unitary":
            unitary.jacobian_rank_right(inst.point)
        monkeypatch.undo()
        rows = 2 * n if inst.pair_id == "symplectic" else n
        assert shapes and all(s[-2:] == (rows, m) for s in shapes), shapes
        shapes.clear()


def _scaled(inst, scale):
    pt = inst.point
    if inst.pair_id == "general_linear":
        pt = gl.CotangentPoint(scale * pt.Q, scale * pt.P)
    else:
        pt = scale * pt
    return DualPairInstance(inst.pair_id, inst.n, inst.m, pt)


def _ref_stack_values(inst, side):
    # singular values of the loop-assembled tangent stack, each row
    # divided by the norm of its basis element
    basis = _ref_algebra_basis(algebra_tag(inst.pair_id, side), algebra_size(inst, side))
    if not basis:
        return np.zeros(0)
    rows = [_ref_vectorize_tangent(inst, _ref_infinitesimal_action(inst, side, b))
            / np.linalg.norm(b) for b in basis]
    return np.linalg.svd(np.array(rows), compute_uv=False)


@pytest.mark.parametrize("n,m", [(2, 1), (3, 2), (4, 4), (6, 3), (3, 5), (4, 8), (12, 8),
                                 (16, 16), (5, 1), (3, 6), (3, 3)])
def test_tangent_singular_values_are_those_of_the_loop_stack(n, m):
    # the closed form against the SVD of the stack in orthonormal algebra
    # coordinates, on every pair that takes the shape ((5, 1) and (3, 6)
    # give the symplectic pair m = 1 and m = 2n, (3, 3) the general
    # linear pair m = n), at Gaussian points (kappa None) and at points
    # of condition number kappa.  A conditioned GL point gives Q and P
    # the same singular values, so the Gaussian ones tell sigma(Q) from
    # sigma(P).  The closed form has one value per basis element, the
    # SVD min(dim, 2nm), so both are padded with zeros to the longer list
    for kappa in (None, 1.0, 1e4, 1e8):
        insts = (_instances(n, m, 89) if kappa is None
                 else _conditioned_instances(n, m, kappa, 89))
        for inst in insts:
            for side in ("left", "right"):
                algebra, size = algebra_tag(inst.pair_id, side), algebra_size(inst, side)
                a, b = inst.module.tangent_scales(inst.point)[side]
                got = pairs.tangent_singular_values(algebra, size, a, b)
                want = _ref_stack_values(inst, side)
                assert len(got) == len(basis_stack(algebra, size))
                longer = max(len(got), len(want))
                got = np.concatenate([got, np.zeros(longer - len(got))])
                want = np.concatenate([want, np.zeros(longer - len(want))])
                bound = 1e-13 * (want[0] if longer else 0.0)
                assert np.max(np.abs(got - want), initial=0.0) <= bound, (
                    inst.pair_id, side, kappa)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("pair", ["unitary", "symplectic", "general_linear"])
def test_lie_weinstein_refuses_overflowing_cross_products(pair):
    # a 4x2 Gaussian point scaled by 1e170: its tangents are finite, but
    # their omega products are not; the check names them, with no numpy
    # warning
    inst = next(i for i in _instances(4, 2, 101) if i.pair_id == pair)
    with pytest.raises(ValueError, match="cross omega products"):
        check_lie_weinstein(_scaled(inst, 1e170))


@pytest.mark.parametrize("n", range(1, 7))
def test_sp_restrictions_are_the_trace_form_duals_of_the_embeddings(n):
    # the per-basis pairing the seesaw's left leg once looped over:
    # <j, embed(b)> = <restrict(j), b> for every basis element b, up to
    # the order in which the few nonzero products are summed
    rng = stream_rng(53, n)
    sp = basis_stack("sp", 2 * n)
    j = np.tensordot(rng.standard_normal(len(sp)), sp, axes=1)
    bound = 4 * np.finfo(float).eps * np.max(np.abs(j))
    for algebra, embed, restrict, ref in (
            ("u", _ref_embed_u_to_sp, seesaw.restrict_sp_to_u, _ref_restrict_sp_to_u),
            ("gl", _ref_embed_gl_to_sp, seesaw.restrict_sp_to_gl, _ref_restrict_sp_to_gl)):
        r = restrict(j)
        assert np.array_equal(r, ref(j))
        for b in _ref_algebra_basis(algebra, n):
            assert abs(_ref_trace_pairing(j, embed(b)) - _ref_trace_pairing(r, b)) <= bound
    # sp(2n) restricts into u(n) exactly: A - A^T is skew and C - B
    # symmetric to the last bit
    r = seesaw.restrict_sp_to_u(j)
    assert np.array_equal(r, -np.conj(r).T)


@pytest.mark.parametrize("n,m", SHAPES)
def test_seesaw_diagrams_equal_the_loop_reference(n, m):
    rng = stream_rng(31, 100 * n + m)
    E = _complex(rng, n, m)
    pt = gl.CotangentPoint(rng.standard_normal((n, m)), rng.standard_normal((n, m)))
    assert seesaw.check_diagram_sp_u(E) == _ref_check_diagram_sp_u(E)
    assert seesaw.check_diagram_sp_gl(pt) == _ref_check_diagram_sp_gl(pt)


@pytest.mark.parametrize("n,m", SHAPES)
def test_jacobian_rank_right_equals_the_loop_reference(n, m):
    rng = stream_rng(37, 100 * n + m)
    E = _complex(rng, n, m)
    assert unitary.jacobian_rank_right(E) == _ref_jacobian_rank_right(E)
    # zero columns leave k = m - rank(D) > 0 zero singular values
    D = E.copy()
    D[:, 0] = 0.0
    D[:, -1] = 0.0
    assert rank_tol(D) < m
    assert unitary.jacobian_rank_right(D) == _ref_jacobian_rank_right(D)


@pytest.mark.parametrize("n,m", [(6, 4), (3, 5), (4, 8)])
def test_jacobian_rank_right_at_every_defect_level(n, m):
    # E = U diag(sig) V^H with r = m - k nonzero singular values; a wide E
    # has at least m - n zero ones, so k starts there
    rng = stream_rng(47, 100 * n + m)
    U = np.linalg.qr(_complex(rng, n, n))[0]
    V = np.linalg.qr(_complex(rng, m, m))[0]
    for k in range(max(0, m - n), m + 1):
        r = m - k
        E = (U[:, :r] * np.linspace(2.0, 1.0, r)) @ np.conj(V[:, :r]).T
        got = unitary.jacobian_rank_right(E)
        assert got == _ref_jacobian_rank_right(E)
        assert got == m * m - k * k


@pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 9) for m in range(1, 9)]
                         + [(12, 8), (6, 12), (4, 16), (16, 16)])
def test_jacobian_rank_right_is_rank_tol_at_conditioned_defective_points(n, m):
    # at every defect level and at condition numbers up to 1e8 the rank
    # is the reference's rank_tol
    rng = stream_rng(71, 100 * n + m)
    for kappa in (1e4, 1e8):
        for r in range(min(n, m) + 1):
            E = _conditioned(rng, n, m, kappa, cplx=True, k=r)
            assert unitary.jacobian_rank_right(E) == _ref_jacobian_rank_right(E), (kappa, r)


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (3, 2), (4, 4), (3, 5), (6, 4), (5, 8),
                                 (12, 8), (6, 12), (4, 16), (16, 16)])
def test_jacobian_singular_values_are_those_of_the_loop_matrix(n, m):
    # the values read off E's against the SVD of the assembled matrix, at
    # every defect level.  Its 2m^2 rows are Re T and Im T entrywise, an
    # isometric image of the m^2 orthonormal coordinates of u(m), so both
    # have the same values, padded with zeros to the longer list
    rng = stream_rng(79, 100 * n + m)
    for kappa in (1.0, 1e4, 1e8):
        for r in range(min(n, m) + 1):
            E = _conditioned(rng, n, m, kappa, cplx=True, k=r)
            want = np.linalg.svd(_ref_jacobian_matrix(E), compute_uv=False)
            got = pairs.tangent_singular_values("u", m, *unitary.tangent_scales(E)["right"])
            assert got.shape == (m * m,)
            size = max(m * m, len(want))
            got = np.concatenate([got, np.zeros(size - m * m)])
            want = np.concatenate([want, np.zeros(size - len(want))])
            assert np.max(np.abs(got - want)) <= 1e-13 * want[0], (kappa, r)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n,m", [(3, 2), (6, 4), (3, 5), (12, 8)])
def test_jacobian_rank_right_is_scale_invariant(n, m):
    # the pair values sqrt((a^2 + b^2)/2) neither overflow nor underflow
    # at the ends of the float64 range, and no numpy warning is raised:
    # for the Jacobian at every rank, and for each side's orbit rank on
    # all three pairs, from orbit_dims since the cross term of
    # check_lie_weinstein overflows at 1e170
    scales = (1e-300, 1e-170, 1e170, 1e300)
    rng = stream_rng(83, 100 * n + m)
    for r in range(min(n, m) + 1):
        E = _conditioned(rng, n, m, 1e3, cplx=True, k=r)
        want = unitary.jacobian_rank_right(E)
        assert want == m * m - (m - r) ** 2
        for scale in scales:
            assert unitary.jacobian_rank_right(scale * E) == want, (r, scale)
    for inst in _conditioned_instances(n, m, 1e3, 97):
        dims = check_lie_weinstein(inst)
        assert dims["dim_left_orbit"] + dims["dim_right_orbit"] == inst.ambient_dim()
        want = {side: dims[f"dim_{side}_orbit"] for side in ("left", "right")}
        for scale in scales:
            at = _scaled(inst, scale)
            assert pairs.orbit_dims(at, at.module.tangent_scales(at.point)) == want, \
                (inst.pair_id, scale)


@pytest.mark.parametrize("n,m", [(2, 1), (3, 2), (4, 4), (6, 3), (8, 6), (12, 8),
                                 (16, 12), (16, 16)])
def test_witness_left_equals_the_loop_reference(n, m):
    for seed in range(10):
        rng = stream_rng(43, 100 * n + m + 10_000 * seed)
        pt = gl.CotangentPoint(rng.standard_normal((n, m)), rng.standard_normal((n, m)))
        A0 = random_group_element("general_linear", n, seed, 100 * n + m)
        pt2 = gl.act_left(A0, pt)
        rep = gl.witness_left(pt, pt2)
        A, residual, cond = _ref_witness_left(pt, pt2)
        # A depends only on the complements' spans, so the two routes
        # agree to rounding (measured: 7.5e-16 at most)
        assert relative_diff(rep.witness, A) <= 1e-13
        assert abs(rep.residual - residual) <= 1e-14
        assert rep.cond == pytest.approx(cond, rel=1e-12)
