"""Pair-agnostic layer: instances, momentum dispatch and structure checks.

A DualPairInstance bundles one of the three supported commuting-action
geometries with a concrete manifold point:

* ``unitary``        complex n x m matrices, groups U(n) and U(m)
* ``symplectic``     real 2n x m matrices of rank m, groups Sp(2n,R), O(m)
* ``general_linear`` pairs (Q, P) of real rank-m n x m matrices,
                     groups GL(n,R) acting on the left, GL(m,R) on the right

Each pair module is the record of its pair: it names its side groups
and supplies the point checks, random points, instance-file fields,
actions, momenta, witnesses and orbit labels under the same names, and
``to_real``, which writes a point or tangent as a real 2n x m matrix
carrying the form ``omega_real``.  A side's algebra follows from its
group, and its size from the point's shape (the left group acts on the
rows, the right group on the columns).  ``PAIRS`` maps each pair id to
its module and is the only place that dispatches on the id.

The checks in this module exercise the general theory: equivariance of
the momentum maps, invariance of each level set under the opposite
group, the pairing identity tying the ambient symplectic form to the
algebra bracket, and the orbit-dimension bookkeeping behind the duality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .linalg import (MATCH_RTOL, RANK_TOL_FACTOR, algebra_residual, gram_cholesky,
                     omega_real, rank_tol, relative_diff, require_member, shared_array,
                     trace_pairing)


@dataclass(frozen=True)
class MomentumValue:
    """A Lie-algebra-valued momentum, tagged with side and algebra."""

    side: str
    algebra: str  # "u", "o", "sp" or "gl"
    value: np.ndarray

    def identity_residual(self) -> float:
        """Distance of the value from its algebra's defining identity
        (``linalg.algebra_residual``), relative to max(1, |value|_F)."""
        group = next((g for g, a in _ALGEBRA_OF_GROUP.items() if a == self.algebra),
                     self.algebra)
        v = self.value
        return algebra_residual(group, v) / max(1.0, float(np.linalg.norm(v)))


class LevelMismatchError(ValueError):
    """Two points expected on one momentum level set are not on it."""


def require_level_match(ja, jb, what: str):
    """Raise LevelMismatchError unless the two momentum values agree."""
    scale = max(1.0, float(np.linalg.norm(ja)), float(np.linalg.norm(jb)))
    err = float(np.linalg.norm(ja - jb))
    if err > MATCH_RTOL * scale:
        raise LevelMismatchError(
            f"{what} momenta differ (residual {err / scale:.3e}); "
            "the points are not on a common level set"
        )


@dataclass(frozen=True)
class WitnessReport:
    """A group element mapping one level-set point to another.

    residual is ||g.x - x'|| / max(1, ||x'||) in the Frobenius norm of
    the point container; cond carries the condition number of the linear
    solve behind the witness when one is involved (general linear pair).
    """

    witness: np.ndarray
    residual: float
    side: str
    cond: float | None = None


@dataclass(frozen=True)
class OrbitReport:
    """Matched orbit labels of a point and both canonical momentum values.

    left and right are the labels of the two momentum orbits, label is
    their JSON form, and the normal forms are the canonical left and
    right momentum values of the orbits.
    """

    left: Any
    right: Any
    label: dict
    normal_form_left: np.ndarray
    normal_form_right: np.ndarray


@dataclass(frozen=True)
class DualPairInstance:
    pair_id: str
    n: int
    m: int
    point: Any

    def __post_init__(self):
        if self.pair_id not in PAIR_IDS:
            raise ValueError(f"unknown pair id {self.pair_id!r}")
        point = self.module.check_point(self.point, self.n, self.m)
        object.__setattr__(self, "point", point)

    @property
    def module(self):
        """The pair module, from ``PAIRS``."""
        return PAIRS[self.pair_id]

    def ambient_dim(self) -> int:
        """Real dimension of the underlying symplectic vector space."""
        return 2 * self.n * self.m

    def full_rank(self) -> bool:
        return self.module.full_rank(self.point)


# ---------------------------------------------------------------------------
# algebra bases

@shared_array
def basis_stack(algebra: str, size: int) -> np.ndarray:
    """Fixed enumerated basis of u(n), o(m), sp(2n,R) or gl(n,R), as one
    (dim, size, size) array, built once per key and shared read-only
    (see ``linalg.shared_array``).

    Each basis follows from the defining identity X^H F + F X = 0
    (``linalg.algebra_residual``): FX is skew-Hermitian for F = I and
    symmetric for F = J.  With A_kl = E_kl - E_lk (k < l) and
    S_kl = E_kl + E_lk (k <= l, so S_kk = E_kk), both row-major in
    (k, l), the orderings are part of the contract (orbit-dimension
    computations and oracle solves must be reproducible):

    * o(m): the A_kl
    * u(n): the A_kl, then the i S_kl
    * sp(2n): the J^T S_kl = [-S_kl bottom rows; S_kl top rows]
    * gl(n): the units E_ij, row-major
    """
    if algebra == "gl":
        return np.eye(size * size).reshape(size * size, size, size)
    d = size * (size - 1) // 2  # the count of A_kl
    if algebra == "o":
        return _place_pairs(np.zeros((d, size, size)), -1.0)
    if algebra == "u":
        out = np.zeros((size * size, size, size), dtype=complex)
        _place_pairs(out.real[:d], -1.0)
        _place_pairs(out.imag[d:], 1.0)
        return out
    if algebra == "sp":
        if size % 2 != 0:
            raise ValueError("sp size must be even")
        return _place_pairs(np.zeros((size * size - d, size, size)), 1.0, size // 2)
    raise ValueError(f"unknown algebra tag {algebra!r}")


def _place_pairs(out: np.ndarray, sign: float, half: int = 0) -> np.ndarray:
    # Writes into the zero stack out, one slice per row-major (k, l), A_kl
    # (sign -1, k < l) or S_kl (sign +1, k <= l).  half = n moves row r to
    # row r + n (mod 2n), negated for r >= n: that is J^T times it, with
    # no product and no signed zeros.
    size = out.shape[-1]
    # the row-major upper triangle, as np.triu_indices at a third of its cost
    k, l = np.nonzero(~np.tri(size, k=-1 if sign > 0 else 0, dtype=bool))
    p = np.arange(len(k))
    for r, c, v in ((k, l, 1.0), (l, k, sign)):
        out[p, (r + half) % size, c] = np.where(r < size - half, v, -v)
    return out


def bracket(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


_ALGEBRA_OF_GROUP = {"unitary": "u", "orthogonal": "o", "symplectic": "sp",
                     "general_linear": "gl"}


def algebra_tag(pair_id: str, side: str) -> str:
    return _ALGEBRA_OF_GROUP[PAIRS[pair_id].GROUP[side]]


def algebra_size(inst: DualPairInstance, side: str) -> int:
    return inst.point.shape[0 if side == "left" else 1]


# ---------------------------------------------------------------------------
# dispatch

def momentum(inst: DualPairInstance, side: str) -> MomentumValue:
    """The Lie-algebra-valued momentum map of the requested side."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    mod = inst.module
    fn = mod.momentum_left if side == "left" else mod.momentum_right
    return MomentumValue(side, algebra_tag(inst.pair_id, side), fn(inst.point))


def act(inst: DualPairInstance, side: str, g: np.ndarray) -> DualPairInstance:
    """Apply a group element on the given side, returning a new instance."""
    g = np.asarray(g)
    size = algebra_size(inst, side)
    if g.shape != (size, size):
        raise ValueError(f"group element shape {g.shape}, expected ({size},{size})")
    mod = inst.module
    require_member(mod.GROUP[side], g)
    pt = mod.act_left(g, inst.point) if side == "left" else mod.act_right(inst.point, g)
    return DualPairInstance(inst.pair_id, inst.n, inst.m, pt)


def infinitesimal_action(inst: DualPairInstance, side: str, xi: np.ndarray):
    """Tangent vector of the one-parameter flow of xi through the point.

    Left actions differentiate to xi.x; right actions to x.xi.  For the
    cotangent-lift actions of the general linear pair the momentum
    conventions give (xi Q, -xi^T P) on the left and (Q xi, -P xi^T) on
    the right.  A stack of algebra elements (leading axes) gives the
    stack of their tangents.
    """
    mod = inst.module
    if side == "left":
        return mod.infinitesimal_left(xi, inst.point)
    return mod.infinitesimal_right(inst.point, xi)


def tangent_omega(inst: DualPairInstance, t1, t2):
    """Ambient symplectic form evaluated on two tangent vectors.

    Stacks of tangents broadcast over their leading axes and give an
    array of values.
    """
    to_real = inst.module.to_real
    return omega_real(to_real(t1), to_real(t2))


def _vectorize_tangent(inst: DualPairInstance, t) -> np.ndarray:
    """Real coordinates of a tangent, along the last axis for a stack:
    its real model read row-major, so the n m entries of the Darboux
    half q (the top n rows) come before those of p."""
    x = inst.module.to_real(t)
    # the explicit product, as -1 cannot be inferred for an empty stack
    return x.reshape(*x.shape[:-2], x.shape[-2] * x.shape[-1])


# ---------------------------------------------------------------------------
# structural checks

def check_equivariance(inst: DualPairInstance, side: str, g: np.ndarray) -> float:
    """Relative defect of j(g.x) against conjugation of j(x) by g.

    The left momentum transforms as g j g^-1, the right one as
    g^-1 j g; both follow from the trace-form identification of the
    coadjoint action with matrix conjugation.
    """
    j_before = momentum(inst, side).value
    j_after = momentum(act(inst, side, g), side).value
    if side == "left":
        # g j g^-1, computed as the solution of X g = g j
        expected = np.linalg.solve(g.T, (g @ j_before).T).T
    else:
        expected = np.linalg.solve(g, j_before @ g)
    return relative_diff(j_after, expected)


def check_level_invariance(inst: DualPairInstance, side: str,
                           g_opposite: np.ndarray) -> float:
    """Relative change of j_side under the opposite group's action."""
    other = "right" if side == "left" else "left"
    j_before = momentum(inst, side).value
    j_after = momentum(act(inst, other, g_opposite), side).value
    return relative_diff(j_after, j_before)


def check_pairing_identity(inst: DualPairInstance, xi: np.ndarray, zeta: np.ndarray,
                           side: str) -> float:
    """|Omega(xi.x, zeta.x) - eps <<j(x), [xi, zeta]>>|, eps = +/-1.

    The sign is +1 for the left action and -1 for the right action; the
    right-hand side is the Kostant pairing of the momentum value with
    the bracket, written through the trace form.
    """
    t1 = infinitesimal_action(inst, side, xi)
    t2 = infinitesimal_action(inst, side, zeta)
    lhs = tangent_omega(inst, t1, t2)
    eps = 1.0 if side == "left" else -1.0
    rhs = eps * trace_pairing(momentum(inst, side).value, bracket(xi, zeta))
    return abs(lhs - rhs)


def check_lie_weinstein(inst: DualPairInstance) -> dict:
    """Orbit-dimension bookkeeping at a full-rank point.

    Returns dim of both group orbits through the point, the ambient
    dimension (the three must satisfy dim_left + dim_right = ambient),
    and the largest symplectic product between tangent directions of
    the two orbits, which must vanish since each momentum map is
    constant along the other group's orbits.  The products come from
    one matrix product X of the Darboux coordinates of the two tangent
    stacks, omega(t1, t2) = q1 . p2 - p1 . q2.

    Each dimension is the ``rank_tol`` of its side's tangent stack.
    ``_certified_dims`` proves both from X and Gram Cholesky factors
    (``linalg.gram_cholesky``) when it can; when it cannot (a point
    near rank deficiency, or stacks that are not omega-orthogonal), the
    two stacks take ``rank_tol``'s SVDs.
    """
    if not inst.full_rank():
        raise ValueError("orbit-dimension check requires a full-rank point")
    coords = {}
    for side in ("left", "right"):
        basis = basis_stack(algebra_tag(inst.pair_id, side), algebra_size(inst, side))
        coords[side] = _vectorize_tangent(inst, infinitesimal_action(inst, side, basis))
    # |omega| over all left x right pairs: each row is (q, p) with h = n m
    # entries per half, so the pairs are q_L . p_R - p_L . q_R, the
    # products of the left rows with the right rows swapped to (p, -q)
    h = inst.n * inst.m
    q, p = coords["right"][:, :h], coords["right"][:, h:]
    swapped = np.hstack([p, -q])
    X = coords["left"] @ swapped.T
    cross = float(np.max(np.abs(X), initial=0.0))
    # one row per basis element; a zero-dimensional algebra (orthogonal
    # side at m = 1) gives no rows and rank 0
    dims = (_certified_dims(coords["left"], swapped, X, inst.ambient_dim())
            or {side: rank_tol(c.T) for side, c in coords.items()})
    return {
        "dim_left_orbit": dims["left"],
        "dim_right_orbit": dims["right"],
        "ambient_dim": inst.ambient_dim(),
        "cross_omega_residual": cross,
    }


def _certified_dims(left: np.ndarray, swapped: np.ndarray, X: np.ndarray, N: int):
    """The ``rank_tol`` of both tangent stacks when a Gram certificate
    proves it, else None.

    The rows of the left stack and of the swapped right stack (an
    orthogonal map of the right stack's rows, so with its singular
    values) lie in R^N, and X holds their products, which omega-duality
    makes vanish.  The side s with fewer rows (the left on a tie) must
    have full row rank d_s: its rows' Gram takes a ``gram_cholesky``
    factor L_s.  The other side b must have rank N - d_s, by two bounds.
    The upper bound: C_b less its projection onto the row space of C_s
    has rank at most N - d_s, so sigma_{N - d_s + 1}(C_b) is at most the
    norm of that projection, |L_s^-1 X_s|_F with X_s the rows of X or
    X^T that belong to s (L_s comes from a shifted Gram, which only
    raises the bound); it must be at most half the least ``svd_rank``
    cut that C_b can have, as sigma_max >= |C_b|_F / sqrt(min(d_b, N)):
    RANK_TOL_FACTOR max(d_b, N) eps |C_b|_F / sqrt(min(d_b, N)).  The
    lower bound: with mu = |C_b|_F^2 / |C_s|_F^2, the Gram
    C_b^T C_b + mu C_s^T C_s takes a ``gram_cholesky`` factor; the added
    term is positive semidefinite of rank d_s, so by Weyl's inequality
    sigma_{N - d_s}(C_b) lies above the shift.  When d_b = N - d_s the
    rank cannot exceed d_b, the upper bound is skipped, and the lower
    bound is C_b's own row Gram.
    """
    stacks = {"left": (left, X), "right": (swapped, X.T)}
    s, b = ("left", "right") if len(left) <= len(swapped) else ("right", "left")
    (Cs, Xs), (Cb, _) = stacks[s], stacks[b]
    ds, db = len(Cs), len(Cb)
    if db < N - ds:
        return None
    Ls = gram_cholesky(Cs)
    if Ls is None:
        return None
    if db == N - ds:
        Lb = gram_cholesky(Cb)
    else:
        fb = np.linalg.norm(Cb) ** 2
        upper = np.linalg.norm(np.linalg.solve(Ls, Xs))
        cut = RANK_TOL_FACTOR * max(db, N) * np.finfo(float).eps * np.sqrt(fb / min(db, N))
        if not upper <= 0.5 * cut:
            return None
        mu = fb / np.linalg.norm(Cs) ** 2 if ds else 0.0
        Lb = gram_cholesky(np.vstack([Cb, np.sqrt(mu) * Cs]).T)
    return None if Lb is None else {s: ds, b: N - ds}


# The pair modules import the reports and require_level_match from here,
# so the table is built last, once those names exist.
from . import general_linear, symplectic, unitary  # noqa: E402

PAIRS = {"unitary": unitary, "symplectic": symplectic, "general_linear": general_linear}
PAIR_IDS = tuple(PAIRS)
