"""The batched structure checks against the per-basis loops they replaced.

The reference functions below keep the loop versions verbatim.  The
batched code does the same arithmetic in the same order, one basis stack
at a time, so every result must equal its reference exactly, not merely
approximately.

Some sums are formed by a matrix product instead and are compared within
a rounding bound.  The cross term of check_lie_weinstein is one product
of the Darboux coordinates of its probes' tangents: it equals the loop
over the probe pairs within rounding, and, on actions moved off the
omega complement, the value the loop basis's cross products give in the
probes' coordinates.  The probes' stacked tangents equal their loop
products exactly.  The probes are fixed, read-only and few, so a call
at the 16 x 16 cap caches no basis and stays small.
random_algebra_element, the suite's and the probes' sampler, draws
isotropic Gaussians on the span of the loop basis.
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
    check_lie_weinstein,
    infinitesimal_action,
    random_algebra_element,
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


def _ref_basis_stack(algebra, size):
    # the loop basis as one (dim, size, size) stack
    dtype = complex if algebra == "u" else float
    return np.array(_ref_algebra_basis(algebra, size), dtype=dtype).reshape(-1, size, size)


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
    # the real models of a stack of tangents, read row-major
    x = inst.module.to_real(t)
    return x.reshape(x.shape[0], x.shape[-2] * x.shape[-1])


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
    # omega over the pairs of the check's probes, each value divided by
    # the norms of its two tangents (a zero tangent counts as norm 1)
    probes = {side: pairs._probes(algebra_tag(inst.pair_id, side), algebra_size(inst, side))
              for side in ("left", "right")}
    cross = 0.0
    for xi in probes["left"]:
        t1 = _ref_infinitesimal_action(inst, "left", xi)
        for eta in probes["right"]:
            t2 = _ref_infinitesimal_action(inst, "right", eta)
            norms = [np.linalg.norm(_ref_vectorize_tangent(inst, t)) or 1.0 for t in (t1, t2)]
            cross = max(cross, abs(_ref_tangent_omega(inst, t1, t2)) / norms[0] / norms[1])
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

class _Feed:
    # a stand-in generator whose standard_normal hands out the entries of
    # one fixed vector in turn
    def __init__(self, values):
        self.values = values

    def standard_normal(self, shape):
        count = int(np.prod(shape))
        out, self.values = self.values[:count], self.values[count:]
        return out.reshape(shape)


@pytest.mark.parametrize("algebra,sizes", [("u", range(1, 9)), ("o", range(1, 9)),
                                           ("sp", range(2, 17, 2)), ("gl", range(1, 9))])
def test_random_algebra_element_is_isotropic_on_the_loop_basis(algebra, sizes):
    # the sampler is linear in its Gaussian entries: fed each unit vector
    # in turn, it gives the columns of its map.  Every column lies in the
    # span of the loop basis, and in the basis's orthonormal coordinates C
    # (the elements are orthogonal; each is divided by its norm) C C^T is
    # a multiple of the identity, so a draw is an isotropic Gaussian on
    # the algebra.  Each coordinate has variance 2 for the projections of
    # G +- G^T scaled by 1/sqrt 2, and 1 for G itself and for (Z - Z^H)/2
    variance = 2.0 if algebra in ("o", "sp") else 1.0
    for size in sizes:
        basis = _ref_basis_stack(algebra, size)
        unit = basis / np.linalg.norm(basis, axis=(-2, -1))[:, None, None]
        width = (2 if algebra == "u" else 1) * size * size
        cols = np.array([random_algebra_element(algebra, size, _Feed(e)) for e in np.eye(width)])
        C = np.real(np.einsum("aij,tij->at", np.conj(unit), cols))
        assert np.max(np.abs(np.einsum("at,aij->tij", C, unit) - cols)) <= 1e-15, size
        gram = C @ C.T
        assert np.max(np.abs(gram - variance * np.eye(len(gram))), initial=0.0) <= 1e-15, size


@pytest.mark.parametrize("n", range(1, 13))
def test_embed_u_to_sp_matches_the_block_reference(n):
    basis = _ref_basis_stack("u", n)
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
            basis = _ref_basis_stack(algebra_tag(inst.pair_id, side), algebra_size(inst, side))
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


# the shapes of the batched tests, the two largest the structure checks
# reach, and a wide unitary point
CROSS_SHAPES = SHAPES + [(12, 8), (16, 16), (6, 12)]


@pytest.mark.parametrize("n,m", CROSS_SHAPES)
def test_check_lie_weinstein_equals_the_loop_reference(n, m):
    eps = np.finfo(float).eps
    for seed in range(4 if n * m <= 64 else 1):
        for inst in _instances(n, m, seed):
            if not inst.full_rank():
                continue
            got = check_lie_weinstein(inst)
            want = _ref_check_lie_weinstein(inst)
            cross = got.pop("cross_omega_residual")
            assert abs(cross - want.pop("cross_omega_residual")) <= 4 * n * m * eps
            assert got == want
            assert isinstance(got["dim_left_orbit"], int)
            assert isinstance(cross, float)


@pytest.mark.parametrize("n,m", CROSS_SHAPES)
def test_gathered_stacks_equal_the_basis_products(n, m):
    # the stacks check_lie_weinstein gathers from its probes: one stacked
    # action gives, row for row, each probe's loop product with the point
    # bit for bit, and, within rounding, the loop basis's products with
    # the point combined by the probe's coordinates in the basis
    for inst in _instances(n, m, 71):
        for side in ("left", "right"):
            algebra, size = algebra_tag(inst.pair_id, side), algebra_size(inst, side)
            probes = pairs._probes(algebra, size)
            got = _vectorize_tangent(inst, infinitesimal_action(inst, side, probes))
            assert got.shape == (pairs.PROBES, 2 * n * m), (inst.pair_id, side)
            for row, xi in zip(got, probes):
                want = _ref_vectorize_tangent(inst, _ref_infinitesimal_action(inst, side, xi))
                assert _same_bits(row, want), (inst.pair_id, side)
            basis = _ref_basis_stack(algebra, size)
            coords = np.real(np.einsum("aij,kij->ka", np.conj(basis), probes))
            coords /= np.sum(np.abs(basis) ** 2, axis=(-2, -1))
            products = _vectorize_tangent(inst, infinitesimal_action(inst, side, basis))
            np.testing.assert_allclose(got, coords @ products, rtol=0,
                                       atol=1e-12 * max(1.0, np.max(np.abs(got))),
                                       err_msg=f"{inst.pair_id} {side}")


@pytest.mark.parametrize("n,m", CROSS_SHAPES)
def test_cross_omega_residual_is_the_basis_product_value(n, m, monkeypatch):
    # with the left tangents taken at another point y, the orbits are no
    # longer omega-orthogonal.  The residual is then the largest value of
    # the loop basis's cross products, carried to the probes by their
    # coordinates in the basis and divided by the norms of the probes'
    # tangents (a zero tangent, on o(1), counts as norm 1)
    for inst, other in zip(_instances(n, m, 73), _instances(n, m, 74)):
        mod = inst.module
        left = mod.infinitesimal_left
        monkeypatch.setattr(mod, "infinitesimal_left", lambda xi, x: left(xi, other.point))
        got = check_lie_weinstein(inst)["cross_omega_residual"]
        monkeypatch.undo()
        rows = []
        for side, at in (("left", other), ("right", inst)):
            algebra, size = algebra_tag(inst.pair_id, side), algebra_size(inst, side)
            basis = _ref_basis_stack(algebra, size)
            probes = pairs._probes(algebra, size)
            coords = np.real(np.einsum("aij,kij->ka", np.conj(basis), probes))
            coords /= np.sum(np.abs(basis) ** 2, axis=(-2, -1))
            rows.append(coords @ _vectorize_tangent(at, infinitesimal_action(at, side, basis)))
        h = n * m
        left_rows, right_rows = rows[0], np.hstack([rows[1][:, h:], -rows[1][:, :h]])
        norms = [np.linalg.norm(r, axis=1) for r in (left_rows, right_rows)]
        a, b = (np.where(v > 0, v, 1.0) for v in norms)
        want = np.max(np.abs(left_rows @ right_rows.T) / a[:, None] / b)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15), inst.pair_id
        assert (got > 1e-3) == (min(n, m) > 1 or inst.pair_id != "symplectic"), inst.pair_id


def test_lie_weinstein_probes_are_fixed_and_read_only():
    for algebra, size in (("u", 3), ("o", 1), ("o", 4), ("sp", 6), ("gl", 5)):
        probes = pairs._probes(algebra, size)
        assert probes.shape == (pairs.PROBES, size, size)
        assert pairs._probes(algebra, size) is probes
        assert _same_bits(probes, pairs._probes.__wrapped__(algebra, size))
        assert not probes.flags.writeable
        with pytest.raises(ValueError):
            probes += probes


def test_check_lie_weinstein_caches_no_basis():
    # a call keeps only its probes, PROBES elements per algebra and size:
    # at the 16 x 16 cap, 64 KB for all three pairs, where the dense bases
    # of the same algebras hold 4.9 MB
    pairs._probes.cache_clear()
    for inst in _instances(16, 16, 83):
        check_lie_weinstein(inst)
    keys = [("u", 16), ("sp", 32), ("o", 16), ("gl", 16)]
    assert pairs._probes.cache_info().currsize == len(keys)
    assert all(len(pairs._probes(*key)) == pairs.PROBES for key in keys)
    assert sum(pairs._probes(*key).nbytes for key in keys) == 65536


@pytest.mark.parametrize("pair", ["unitary", "symplectic", "general_linear"])
def test_tangent_maps_hold_a_quarter_of_the_dense_basis_at_the_cap(pair):
    # what a 16 x 16 call keeps or builds a side in place of the dense
    # basis's tangent map: the cached probes and their PROBES x 2nm
    # stack of tangents
    inst = next(i for i in _instances(16, 16, 87) if i.pair_id == pair)
    for side in ("left", "right"):
        algebra, size = algebra_tag(pair, side), algebra_size(inst, side)
        probes = pairs._probes(algebra, size)
        tangents = _vectorize_tangent(inst, infinitesimal_action(inst, side, probes))
        dense = _ref_basis_stack(algebra, size)
        assert probes.nbytes + tangents.nbytes <= dense.nbytes / 4, side


@pytest.mark.parametrize("pair", ["unitary", "symplectic", "general_linear"])
def test_check_lie_weinstein_stays_small_at_the_cap(pair):
    # a 16 x 16 call builds its probes' tangents, PROBES x 2nm a side, and
    # factors the point once: no dim x 2nm stack (1.0-2.2 MB here)
    inst = next(i for i in _instances(16, 16, 85) if i.pair_id == pair)
    check_lie_weinstein(inst)  # probes cached
    tracemalloc.start()
    try:
        check_lie_weinstein(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e5, peak


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
        basis = _ref_basis_stack(algebra_tag(inst.pair_id, side), algebra_size(inst, side))
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
    # the left tangents of a unitary 3x2 point, moved off the omega
    # complement of the right orbit by eps times noise, one noise matrix
    # per probe.  The dimensions are read off the point, not the moved
    # tangents, and stay (8, 4); the move shows in the cross residual,
    # which the suite refuses above 1e-10
    rng = stream_rng(59, 0)
    inst = DualPairInstance("unitary", 3, 2, _complex(rng, 3, 2))
    noise = _complex(rng, pairs.PROBES, 3, 2)
    assert check_lie_weinstein(inst)["cross_omega_residual"] <= 1e-15
    monkeypatch.setattr(unitary, "infinitesimal_left", lambda xi, x: xi @ x + eps * noise)
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
                assert len(got) == len(_ref_algebra_basis(algebra, size))
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


@pytest.mark.filterwarnings("error")
def test_lie_weinstein_refuses_overflowing_tangent_norms():
    # Q scaled by 1e200 and P by 1e-100: every cross product pairs one
    # half with the other and stays near 1e100, but the left tangents'
    # norms overflow, and an infinite norm would read the residual as 0
    Q, P = stream_rng(103, 0).standard_normal((2, 4, 2))
    inst = DualPairInstance("general_linear", 4, 2, gl.CotangentPoint(1e200 * Q, 1e-100 * P))
    with pytest.raises(ValueError, match="or their norms, overflow"):
        check_lie_weinstein(inst)


@pytest.mark.parametrize("n", range(1, 7))
def test_sp_restrictions_are_the_trace_form_duals_of_the_embeddings(n):
    # the per-basis pairing the seesaw's left leg once looped over:
    # <j, embed(b)> = <restrict(j), b> for every basis element b, up to
    # the order in which the few nonzero products are summed
    rng = stream_rng(53, n)
    sp = _ref_basis_stack("sp", 2 * n)
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
