"""Algebra embeddings linking the three pairs, with diagram checks.

u(n) and gl(n,R) sit inside sp(2n,R) through

    zeta1 + i zeta2  ->  [[zeta1, -zeta2], [zeta2, zeta1]],
    zeta             ->  [[zeta, 0], [0, -zeta^T]],

matching each pair module's real model ``to_real``: a complex n x m
matrix E1 + i E2 is the real stack [E1; E2] and a pair (Q, P) is
[Q; P].  Under the trace form Re Tr(a b) the duals of the two
embeddings are restriction maps of a 2n x 2n block matrix
j = [[j11, j12], [j21, j22]],

    restrict_sp_to_u(j)  = (j11 + j22) + i (j21 - j12),
    restrict_sp_to_gl(j) = j11 - j22^T,

so Re Tr(j embed(b)) = Re Tr(restrict(j) b) for every b, and both send
sp(2n,R) into the smaller algebra.  Dually, o(m) sits inside u(m) and
gl(m,R), and its restriction maps are the real part and the skew part;
both pair with each E_kl - E_lk exactly like their input, roundoff
included, as fl(a - b) = -fl(b - a) and halving is exact.
Each diagram check restricts the sp momentum of the stacked point and
reports the Frobenius distance to the pair's own momentum, on both
sides, with no algebra basis involved.
"""

from __future__ import annotations

import numpy as np

from .linalg import ANTI_HERMITIAN_RTOL, algebra_residual
from . import general_linear, symplectic, unitary


def embed_u_to_sp(zeta: np.ndarray) -> np.ndarray:
    """Real 2n x 2n image of an anti-Hermitian matrix; a Lie-algebra
    morphism into sp(2n,R).  A stack of matrices maps to the stack of
    images, here and in embed_gl_to_sp."""
    zeta = np.asarray(zeta, dtype=complex)
    # each matrix of a stack is checked against its own norm
    err = algebra_residual("unitary", zeta)
    if np.any(err > ANTI_HERMITIAN_RTOL * np.maximum(1.0, np.linalg.norm(zeta, axis=(-2, -1)))):
        raise ValueError("embed_u_to_sp input must be anti-Hermitian "
                         f"(residual {np.max(err):.3e})")
    z1, z2 = np.real(zeta), np.imag(zeta)
    n = zeta.shape[-1]
    out = np.empty(zeta.shape[:-2] + (2 * n, 2 * n))
    out[..., :n, :n] = z1
    out[..., :n, n:] = -z2
    out[..., n:, :n] = z2
    out[..., n:, n:] = z1
    return out


def embed_gl_to_sp(zeta: np.ndarray) -> np.ndarray:
    """Block-diagonal image [[zeta, 0], [0, -zeta^T]] in sp(2n,R)."""
    zeta = np.asarray(zeta, dtype=float)
    if zeta.ndim < 2 or zeta.shape[-2] != zeta.shape[-1]:
        raise ValueError("expected a square real matrix")
    n = zeta.shape[-1]
    out = np.zeros(zeta.shape[:-2] + (2 * n, 2 * n))
    out[..., :n, :n] = zeta
    out[..., n:, n:] = -np.swapaxes(zeta, -1, -2)
    return out


def _blocks(j: np.ndarray) -> tuple:
    j = np.asarray(j, dtype=float)
    if j.ndim != 2 or j.shape[0] != j.shape[1] or j.shape[0] % 2:
        raise ValueError("expected a real 2n x 2n matrix")
    n = j.shape[0] // 2
    return j[:n, :n], j[:n, n:], j[n:, :n], j[n:, n:]


def restrict_sp_to_u(j: np.ndarray) -> np.ndarray:
    """(j11 + j22) + i (j21 - j12), the dual of embed_u_to_sp."""
    j11, j12, j21, j22 = _blocks(j)
    return (j11 + j22) + 1j * (j21 - j12)


def restrict_sp_to_gl(j: np.ndarray) -> np.ndarray:
    """j11 - j22^T, the dual of embed_gl_to_sp."""
    j11, _, _, j22 = _blocks(j)
    return j11 - j22.T


def restrict_u_to_o(mu: np.ndarray) -> np.ndarray:
    """Real part of a complex matrix, the dual of o(m) in u(m).  It
    checks no anti-Hermitian form, like restrict_gl_to_o: for real b,
    Re Tr(mu b) = Tr(Re(mu) b), so the real part pairs with every b in
    o(m) exactly as mu does, whatever mu is."""
    return np.real(np.asarray(mu, dtype=complex)).copy()


def restrict_gl_to_o(xi: np.ndarray) -> np.ndarray:
    """Skew part (xi - xi^T)/2, the dual of o(m) in gl(m,R)."""
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 2 or xi.shape[0] != xi.shape[1]:
        raise ValueError("expected a square real matrix")
    return 0.5 * (xi - xi.T)


def _check_diagram(pt, mod, restrict_sp, restrict_o) -> dict:
    # pt is a point of the pair module mod; restrict_sp maps sp(2n,R) to
    # its left algebra and restrict_o the right momenta to o(m)
    stacked = mod.to_real(pt)
    left = restrict_sp(symplectic.momentum_left(stacked)) - mod.momentum_left(pt)
    right = restrict_o(mod.momentum_right(pt)) - symplectic.momentum_right(stacked)
    return {"left": float(np.linalg.norm(left)), "right": float(np.linalg.norm(right))}


def check_diagram_sp_u(E: np.ndarray) -> dict:
    """Residuals of the two momentum identities tying the complex and
    real models of a point.

    left: restricting the sp momentum of the stacked point to u(n)
    gives the complex left momentum; right: restricting the complex
    right momentum to o(m) gives the real right momentum.
    """
    E = np.asarray(E, dtype=complex)
    return _check_diagram(E, unitary, restrict_sp_to_u, restrict_u_to_o)


def check_diagram_sp_gl(pt) -> dict:
    """Same two residuals for a (Q, P) point stacked into [Q; P]."""
    return _check_diagram(pt, general_linear, restrict_sp_to_gl, restrict_gl_to_o)
