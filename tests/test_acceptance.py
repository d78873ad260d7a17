"""Release gates, one test per criterion.

Each test prints a single summary line; run with -v to get the
per-criterion pass/fail table, or -s to see the residual details.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from dualpairs import cli, general_linear as gl, seesaw, symplectic, unitary
from dualpairs.linalg import (MATCH_RTOL, random_group_element, relative_diff,
                              standard_J, stream_rng)
from dualpairs.pairs import (DualPairInstance, algebra_size, algebra_tag,
                             check_equivariance,
                             check_level_invariance, check_lie_weinstein,
                             check_pairing_identity, infinitesimal_action,
                             momentum, tangent_omega, trace_pairing)
from test_batched_oracles import _ref_algebra_basis

PAIRS = ("unitary", "symplectic", "general_linear")


def _random_instance(pair, rng, max_dim=4):
    n = int(rng.integers(1, max_dim + 1))
    if pair == "unitary":
        m = int(rng.integers(1, max_dim + 1))
        pt = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    elif pair == "symplectic":
        m = int(rng.integers(1, min(max_dim, 2 * n) + 1))
        pt = rng.standard_normal((2 * n, m))
    else:
        m = int(rng.integers(1, n + 1))
        pt = gl.CotangentPoint(rng.standard_normal((n, m)),
                               rng.standard_normal((n, m)))
    return DualPairInstance(pair, n, m, pt)


def _group_element(pair, side, n, m, seed, stream):
    if pair == "unitary":
        return random_group_element("unitary", n if side == "left" else m,
                                    seed, stream)
    if pair == "symplectic":
        if side == "left":
            return random_group_element("symplectic", 2 * n, seed, stream)
        return random_group_element("orthogonal", m, seed, stream)
    return random_group_element("general_linear", n if side == "left" else m,
                                seed, stream)


# --- criterion 1 -----------------------------------------------------------

_GRAM_CACHE = {}


def _gram(tag, size):
    key = (tag, size)
    if key not in _GRAM_CACHE:
        basis = _ref_algebra_basis(tag, size)
        k = len(basis)
        G = np.empty((k, k))
        for a in range(k):
            for b in range(k):
                G[a, b] = trace_pairing(basis[a], basis[b])
        _GRAM_CACHE[key] = (basis, G)
    return _GRAM_CACHE[key]


def _oracle_momentum(inst, side):
    # solve the pairing system over a full algebra basis; never touches
    # the closed-form map under test
    basis, G = _gram(algebra_tag(inst.pair_id, side), algebra_size(inst, side))
    rhs = np.empty(len(basis))
    for a, e in enumerate(basis):
        if inst.pair_id == "general_linear":
            Q, P = inst.point.Q, inst.point.P
            rhs[a] = (np.trace(P.T @ e @ Q) if side == "left"
                      else np.trace(P.T @ Q @ e))
        else:
            t = infinitesimal_action(inst, side, e)
            rhs[a] = 0.5 * tangent_omega(inst, t, inst.point)
    coeff = np.linalg.solve(G, rhs)
    return sum(c * b for c, b in zip(coeff, basis))


def test_criterion_1_momentum_matches_pairing_oracle():
    worst = 0.0
    for pair in PAIRS:
        for trial in range(50):
            inst = _random_instance(pair, stream_rng(1001, trial))
            for side in ("left", "right"):
                got = momentum(inst, side).value
                want = _oracle_momentum(inst, side)
                worst = max(worst, relative_diff(got, want))
    assert worst <= 1e-10
    print(f"criterion 1: PASS (worst oracle residual {worst:.3e})")


# --- criterion 2 -----------------------------------------------------------

def test_criterion_2_equivariance_and_level_invariance():
    worst_eq = 0.0
    worst_lvl = 0.0
    for pair in PAIRS:
        for side in ("left", "right"):
            other = "right" if side == "left" else "left"
            for trial in range(200):
                inst = _random_instance(pair, stream_rng(1002, trial),
                                        max_dim=6)
                g = _group_element(pair, side, inst.n, inst.m, 1003, trial)
                worst_eq = max(worst_eq, check_equivariance(inst, side, g))
                h = _group_element(pair, other, inst.n, inst.m, 1004, trial)
                worst_lvl = max(worst_lvl,
                                check_level_invariance(inst, side, h))
    assert worst_eq <= 1e-9
    assert worst_lvl <= 1e-9
    print(f"criterion 2: PASS (equivariance {worst_eq:.3e}, "
          f"level invariance {worst_lvl:.3e})")


# --- criterion 3 -----------------------------------------------------------

def _unitary_template(n, m, rng, allow_zero):
    r = min(n, m)
    k = int(rng.integers(0, r)) if (allow_zero and r > 1) else 0
    sig = np.sort(rng.uniform(0.5, 2.0, size=r - k))[::-1]
    T = np.zeros((n, m), dtype=complex)
    for i, s in enumerate(sig):
        T[i, i] = s
    return T


def _sp_invariants(n, m, rng):
    # sigma values strictly positive so the template keeps rank m
    p_lo = max(0, m - n)
    p = int(rng.integers(p_lo, m // 2 + 1))
    sig = tuple(np.sort(rng.uniform(0.6, 1.9, size=p))[::-1])
    return symplectic.SpOrbitInvariants(p, sig, m - 2 * p, n - m + p, n, m)


def _gl_same_left_level(pt, rng):
    Z = pt.Q @ pt.P.T
    m = pt.Q.shape[1]
    U, s, Vt = np.linalg.svd(Z)
    return gl.CotangentPoint(U[:, :m] * np.sqrt(s[:m]),
                             Vt[:m].T * np.sqrt(s[:m]))


def _orthonormal_complement(Q):
    # the standard-basis scan that drew this file's GL points, kept
    # verbatim so that criterion 3's inputs stay bit-identical
    n, k0 = Q.shape
    if np.linalg.norm(np.conj(Q).T @ Q - np.eye(k0)) > MATCH_RTOL:
        raise ValueError("the columns of Q are not orthonormal")
    C = np.zeros((n, n), dtype=Q.dtype)
    C[:, :k0] = Q
    k = k0
    for i in range(n):
        if k == n:
            break
        span = C[:, :k]
        v = -(span @ np.conj(span[i]))  # e_i - C C^H e_i
        v[i] += 1.0
        # second pass stabilizes near-dependent candidates
        v -= span @ (np.conj(span).T @ v)
        nv = np.linalg.norm(v)
        if nv > 1e-8:
            C[:, k] = v / nv
            k += 1
    if k != n:
        raise ValueError("failed to complete orthonormal basis")
    return C[:, k0:]


def _gl_same_right_level(pt, rng):
    n, m = pt.Q.shape
    xi = pt.P.T @ pt.Q
    P2 = rng.standard_normal((n, m))
    Q2 = P2 @ np.linalg.solve(P2.T @ P2, xi)
    if n > m:
        W = _orthonormal_complement(np.linalg.qr(P2)[0])
        Q2 = Q2 + W @ rng.standard_normal((n - m, m))
    return gl.CotangentPoint(Q2, P2)


def _unitarity(W):
    return float(np.linalg.norm(np.conj(W).T @ W - np.eye(W.shape[0])))


def test_criterion_3_witnesses_both_generation_modes():
    t0 = time.perf_counter()
    worst_map = 0.0
    worst_def = 0.0

    for trial in range(100):
        rng = stream_rng(1005, trial)
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        if trial < 50:
            E = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
            EL = random_group_element("unitary", n, 1006, trial) @ E
            ER = E @ random_group_element("unitary", m, 1007, trial)
        else:
            T = _unitary_template(n, m, rng, allow_zero=True)
            E = random_group_element("unitary", n, 1006, trial) @ T
            EL = random_group_element("unitary", n, 1008, trial) @ T
            TR = _unitary_template(n, m, rng, allow_zero=True)
            E2 = TR @ random_group_element("unitary", m, 1007, trial)
            ER = TR @ random_group_element("unitary", m, 1009, trial)
        rep = unitary.witness_left(E, EL)
        worst_map = max(worst_map, rep.residual)
        worst_def = max(worst_def, _unitarity(rep.witness))
        rep = unitary.witness_right(E if trial < 50 else E2, ER)
        worst_map = max(worst_map, rep.residual)
        worst_def = max(worst_def, _unitarity(rep.witness))

    for trial in range(100):
        rng = stream_rng(1010, trial)
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 2 * n + 1))
        if trial < 50:
            while True:
                E = rng.standard_normal((2 * n, m))
                if np.linalg.matrix_rank(E) == m:
                    break
            EL = random_group_element("symplectic", 2 * n, 1011, trial) @ E
            ER = E @ random_group_element("orthogonal", m, 1012, trial).T
            EL_src, ER_src = E, E
        else:
            D = symplectic.build_template(_sp_invariants(n, m, rng))
            EL_src = random_group_element("symplectic", 2 * n, 1011, trial) @ D
            EL = random_group_element("symplectic", 2 * n, 1013, trial) @ D
            ER_src = D @ random_group_element("orthogonal", m, 1012, trial).T
            ER = D @ random_group_element("orthogonal", m, 1014, trial).T
        rep = symplectic.witness_left(EL_src, EL)
        worst_map = max(worst_map, rep.residual)
        S = rep.witness
        J = standard_J(n)
        worst_def = max(worst_def, float(np.linalg.norm(S.T @ J @ S - J)))
        rep = symplectic.witness_right(ER_src, ER)
        worst_map = max(worst_map, rep.residual)
        worst_def = max(worst_def, _unitarity(rep.witness))

    for trial in range(100):
        rng = stream_rng(1015, trial)
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, n + 1))
        pt = gl.CotangentPoint(rng.standard_normal((n, m)),
                               rng.standard_normal((n, m)))
        if trial < 50:
            ptL = gl.act_left(random_group_element("general_linear", n,
                                                   1016, trial), pt)
            ptR = gl.act_right(pt, random_group_element("general_linear", m,
                                                        1017, trial))
        else:
            ptL = _gl_same_right_level(pt, rng)
            ptR = _gl_same_left_level(pt, rng)
        rep = gl.witness_left(pt, ptL)
        worst_map = max(worst_map, rep.residual)
        A = rep.witness
        worst_def = max(worst_def,
                        float(np.linalg.norm(A @ np.linalg.inv(A)
                                             - np.eye(n))))
        rep = gl.witness_right(pt, ptR)
        worst_map = max(worst_map, rep.residual)
        B = rep.witness
        worst_def = max(worst_def,
                        float(np.linalg.norm(B @ np.linalg.inv(B)
                                             - np.eye(m))))

    wall = time.perf_counter() - t0
    assert worst_def <= 1e-9
    assert worst_map <= 1e-7
    assert wall < 30.0
    print(f"criterion 3: PASS (map {worst_map:.3e}, defining "
          f"{worst_def:.3e}, wall {wall:.1f}s)")


# --- criterion 4 -----------------------------------------------------------

def test_criterion_4_structured_decomposition():
    worst_recon = 0.0
    worst_sig = 0.0
    done = 0
    trial = 0
    while done < 100:
        rng = stream_rng(1018, trial)
        trial += 1
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 2 * n + 1))
        E = rng.standard_normal((2 * n, m))
        if np.linalg.matrix_rank(E) < m:
            continue
        done += 1
        S, D, O, inv = symplectic.symplectic_svd(E)
        worst_recon = max(worst_recon, relative_diff(S @ D @ O, E))
        assert np.array_equal(D, symplectic.build_template(inv))
        S2 = random_group_element("symplectic", 2 * n, 1019, trial)
        O2 = random_group_element("orthogonal", m, 1020, trial)
        _, _, _, inv2 = symplectic.symplectic_svd(S2 @ D @ O2)
        assert (inv2.p, inv2.q, inv2.r) == (inv.p, inv.q, inv.r)
        if inv.p:
            worst_sig = max(worst_sig,
                            float(np.abs(np.array(inv2.sigmas)
                                         - np.array(inv.sigmas)).max()))
    assert worst_recon <= 1e-8
    assert worst_sig <= 1e-8
    print(f"criterion 4: PASS (reconstruction {worst_recon:.3e}, "
          f"sigma round-trip {worst_sig:.3e})")


# --- criterion 5 -----------------------------------------------------------

REALS = (1.0, -1.0, 2.0)
COMPLEXES = (1j, 1 + 1j)


def _partitions(total, max_part=None):
    if total == 0:
        yield ()
        return
    top = total if max_part is None else min(total, max_part)
    for first in range(top, 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def _eigen_multisets(budget):
    eigs = REALS + COMPLEXES

    def rec(i, remaining):
        if i == len(eigs):
            if remaining == 0:
                yield ()
            return
        lam = eigs[i]
        cplx = complex(lam).imag > 0
        for alloc in range(0, remaining + 1):
            if cplx and alloc % 2:
                continue
            if cplx:
                parts_list = [tuple(2 * p for p in pp)
                              for pp in _partitions(alloc // 2)]
            else:
                parts_list = list(_partitions(alloc))
            for parts in parts_list:
                head = tuple((lam, c) for c in parts)
                for rest in rec(i + 1, remaining - alloc):
                    yield head + rest

    yield from rec(0, budget)


def _all_labels(n, m):
    labels = set()
    for t in range(0, m + 1):
        for nil_parts in _partitions(t):
            if len(nil_parts) > n - m:
                continue
            nil = tuple(p + 1 for p in nil_parts)
            for blocks in _eigen_multisets(m - t):
                labels.add(gl.JordanData(blocks=blocks, nilpotent=nil,
                                         n=n, m=m))
    return labels


def _nilp(d):
    N = np.zeros((d, d))
    for i in range(d - 1):
        N[i, i + 1] = 1.0
    return N


def _real_block(lam, c):
    lam = complex(lam)
    if lam.imag == 0:
        return lam.real * np.eye(c) + _nilp(c)
    B = np.zeros((c, c))
    C = np.array([[lam.real, lam.imag], [-lam.imag, lam.real]])
    for t in range(c // 2):
        B[2 * t:2 * t + 2, 2 * t:2 * t + 2] = C
        if 2 * t + 2 < c:
            B[2 * t:2 * t + 2, 2 * t + 2:2 * t + 4] = np.eye(2)
    return B


def _blockdiag(cells, size):
    Z = np.zeros((size, size))
    off = 0
    for B in cells:
        d = B.shape[0]
        Z[off:off + d, off:off + d] = B
        off += d
    return Z


def _canonical_left(jd):
    cells = [_real_block(lam, c) for lam, c in jd.blocks]
    cells += [_nilp(d) for d in jd.nilpotent]
    return _blockdiag(cells, jd.n)


def _canonical_right(jd):
    cells = [_real_block(lam, c) for lam, c in jd.blocks]
    cells += [_nilp(d - 1) for d in jd.nilpotent]
    return _blockdiag(cells, jd.m)


def _frac_matmul(A, B):
    rows, inner = len(A), len(B)
    cols = len(B[0]) if inner else 0
    return [[sum(A[i][k] * B[k][j] for k in range(inner))
             for j in range(cols)] for i in range(rows)]


def _as_fractions(M):
    return [[Fraction(x) for x in row] for row in np.asarray(M, dtype=float)]


def test_criterion_5_orbit_correspondence():
    worst_poly = 0.0
    done = 0
    trial = 0
    while done < 50:
        rng = stream_rng(1021, trial)
        trial += 1
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 2 * n + 1))
        E = rng.standard_normal((2 * n, m))
        if np.linalg.matrix_rank(E) < m:
            continue
        done += 1
        E = E / np.linalg.norm(E, 2)
        _, _, _, inv = symplectic.symplectic_svd(E)
        nfl, nfr = symplectic.correspond(inv)
        worst_poly = max(
            worst_poly,
            float(np.abs(np.poly(symplectic.momentum_left(E))
                         - np.poly(nfl)).max()),
            float(np.abs(np.poly(symplectic.momentum_right(E))
                         - np.poly(nfr)).max()))
    assert worst_poly <= 1e-6

    total = 0
    for n in range(1, 6):
        for m in range(1, n + 1):
            for jd in _all_labels(n, m):
                total += 1
                zeta, xi = gl.jordan_correspond(jd)
                assert np.array_equal(zeta, _canonical_left(jd))
                assert np.array_equal(xi, _canonical_right(jd))
                pt = gl.build_qp_from_jordan(jd)
                Qf = _as_fractions(pt.Q)
                Pf = _as_fractions(pt.P)
                PfT = [list(col) for col in zip(*Pf)]
                assert _frac_matmul(Qf, PfT) == _as_fractions(zeta)
                assert _frac_matmul(PfT, Qf) == _as_fractions(xi)
    assert total >= 200
    print(f"criterion 5: PASS (char-poly {worst_poly:.3e}, "
          f"{total} labels exact)")


# --- criterion 6 -----------------------------------------------------------

def test_criterion_6_image_characterizations():
    for trial in range(200):
        rng = stream_rng(1022, trial)
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, n + 1))
        pt = gl.CotangentPoint(rng.standard_normal((n, m)),
                               rng.standard_normal((n, m)))
        zl = gl.momentum_left(pt)
        zr = gl.momentum_right(pt)
        assert np.linalg.matrix_rank(zl) == m
        assert np.linalg.matrix_rank(zr) >= 2 * m - n
        assert gl.in_image_left(zl, m)
        assert gl.in_image_right(zr, n)

    accepted = 0
    for n in range(1, 5):
        for m in range(1, n + 1):
            for jd in _all_labels(n, m):
                zeta, xi = gl.jordan_correspond(jd)
                assert gl.in_image_left(zeta, m)
                assert gl.in_image_right(xi, n)
                accepted += 1

    for n in range(1, 5):
        for m in range(1, n + 1):
            assert not gl.in_image_left(np.zeros((n, n)), m)
            expected = n >= 2 * m
            assert gl.in_image_right(np.zeros((m, m)), n) is expected
    assert not gl.in_image_left(np.diag([1.0, 0.0]), 2)
    assert not gl.in_image_right(np.diag([1.0, 0.0]), 2)
    print(f"criterion 6: PASS (200 random rank laws, "
          f"{accepted} canonicals accepted)")


# --- criterion 7 -----------------------------------------------------------

def _random_algebra_element(tag, size, rng):
    basis = _ref_algebra_basis(tag, size)
    if len(basis) == 0:
        # zero-dimensional algebra, e.g. the orthogonal side at m = 1
        dtype = complex if tag == "unitary" else float
        return np.zeros((size, size), dtype=dtype)
    coeff = rng.standard_normal(len(basis))
    return sum(c * b for c, b in zip(coeff, basis))


def test_criterion_7_pairing_and_orbit_dimensions():
    worst_pair = 0.0
    for pair in PAIRS:
        for side in ("left", "right"):
            for trial in range(50):
                rng = stream_rng(1023, trial)
                inst = _random_instance(pair, rng)
                tag = algebra_tag(pair, side)
                size = algebra_size(inst, side)
                xi = _random_algebra_element(tag, size, rng)
                zeta = _random_algebra_element(tag, size, rng)
                worst_pair = max(worst_pair,
                                 check_pairing_identity(inst, xi, zeta, side))
    assert worst_pair <= 1e-9

    worst_cross = 0.0
    checked = 0
    trial = 0
    while checked < 15:
        rng = stream_rng(1024, trial)
        pair = PAIRS[trial % 3]
        trial += 1
        inst = _random_instance(pair, rng, max_dim=3)
        if not inst.full_rank():
            continue
        checked += 1
        out = check_lie_weinstein(inst)
        assert (out["dim_left_orbit"] + out["dim_right_orbit"]
                == out["ambient_dim"])
        worst_cross = max(worst_cross, out["cross_omega_residual"])
    assert worst_cross <= 1e-10
    print(f"criterion 7: PASS (pairing {worst_pair:.3e}, "
          f"cross form {worst_cross:.3e}, dims exact)")


def _with_zero_singular_values(n, m, k, seed):
    rng = stream_rng(seed, 0)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    B = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    U, _ = np.linalg.qr(A)
    V, _ = np.linalg.qr(B)
    sig = np.concatenate([np.linspace(2.0, 1.0, m - k), np.zeros(k)])
    D = np.zeros((n, m))
    np.fill_diagonal(D, sig)
    return U @ D @ np.conj(V).T


@pytest.mark.xfail(strict=True,
                   reason="claimed differential rank m*(m-k) does not hold "
                          "for 0 < k < m; the assembled Jacobian has rank "
                          "m^2 - k^2 there")
def test_criterion_7_right_differential_rank_claim():
    for n in range(1, 7):
        for m in range(1, n + 1):
            for k in range(0, m + 1):
                E = _with_zero_singular_values(n, m, k, 1025 + 31 * n + m)
                got = unitary.jacobian_rank_right(E)
                assert got == m * (m - k), (n, m, k, got)


# --- criterion 8 -----------------------------------------------------------

def test_criterion_8_restriction_diagrams():
    worst = 0.0
    for trial in range(100):
        rng = stream_rng(1026, trial)
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        E = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        out = seesaw.check_diagram_sp_u(E)
        worst = max(worst, out["left"], out["right"])
    for trial in range(100):
        rng = stream_rng(1027, trial)
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, n + 1))
        pt = gl.CotangentPoint(rng.standard_normal((n, m)),
                               rng.standard_normal((n, m)))
        out = seesaw.check_diagram_sp_gl(pt)
        worst = max(worst, out["left"], out["right"])
    assert worst <= 1e-10
    print(f"criterion 8: PASS (worst diagram residual {worst:.3e})")


# --- criterion 9 -----------------------------------------------------------

def test_criterion_9_suite_reproducibility(tmp_path, capsys):
    t0 = time.perf_counter()
    outs = []
    for name in ("one.json", "two.json"):
        out = tmp_path / name
        assert cli.main(["suite", "--seed", "20260822",
                         "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    wall = time.perf_counter() - t0
    assert outs[0] == outs[1]
    assert wall < 60.0
    report = json.loads(outs[0])
    assert report["summary"]["failed"] == 0
    capsys.readouterr()
    print(f"criterion 9: PASS (bit-identical reports, wall {wall:.1f}s)")
