"""Pair-agnostic layer: instances, momentum dispatch and structure checks.

A DualPairInstance bundles one of the three supported commuting-action
geometries with a concrete manifold point:

* ``unitary``        complex n x m matrices, groups U(n) and U(m)
* ``symplectic``     real 2n x m matrices of rank m, groups Sp(2n,R), O(m)
* ``general_linear`` pairs (Q, P) of real rank-m n x m matrices,
                     groups GL(n,R) acting on the left, GL(m,R) on the right

Each pair module is the record of its pair: it names its side groups
and supplies the point checks, random points, instance-file fields,
actions, momenta, witnesses, orbit labels and the scales of its tangent
maps (``tangent_scales``) under the same names, and
``to_real``, which writes a point or tangent as a real 2n x m matrix
carrying the form ``omega_real`` (``from_real`` reads a point back).
A side's algebra follows from its group, and its size from the point's
shape (the left group acts on the rows, the right group on the
columns).  ``PAIRS`` maps each pair id to its module and is the only
place that dispatches on the id.

The checks in this module exercise the general theory: equivariance of
the momentum maps, invariance of each level set under the opposite
group, the pairing identity tying the ambient symplectic form to the
algebra bracket, and the orbit-dimension bookkeeping behind the duality.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Any

import numpy as np

from .linalg import (MATCH_RTOL, algebra_residual, omega_real, relative_diff, require_member,
                     shared_array, svd_rank, trace_pairing)


@dataclass(frozen=True)
class MomentumValue:
    """A Lie-algebra-valued momentum, tagged with its algebra."""

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
        return full_rank(self, self.module.tangent_scales(self.point))


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

    Any window of consecutive elements can be written alone
    (``_write_basis``).  No library code keeps a whole stack:
    ``check_lie_weinstein`` gathers its tangent stacks through maps read
    once off probes of ``size`` elements at a time (``_tangent_map``), and
    ``algebra_element`` sums over a basis written for the call alone.
    """
    if algebra not in ("gl", "o", "u", "sp"):
        raise ValueError(f"unknown algebra tag {algebra!r}")
    if algebra == "sp" and size % 2 != 0:
        raise ValueError("sp size must be even")
    shape = (algebra_dim(algebra, size), size, size)
    return _write_basis(np.zeros(shape, _dtype(algebra)), algebra)


def algebra_dim(algebra: str, size: int) -> int:
    """The count of ``basis_stack(algebra, size)``'s elements."""
    return {"gl": size * size, "u": size * size, "o": size * (size - 1) // 2,
            "sp": size * (size + 1) // 2}[algebra]


def algebra_element(algebra: str, size: int, coef: np.ndarray) -> np.ndarray:
    """sum_i coef[i] basis_stack(algebra, size)[i], over a basis written
    for the call and not cached."""
    basis = _write_basis(np.zeros((algebra_dim(algebra, size), size, size),
                                  _dtype(algebra)), algebra)
    return sum((c * b for c, b in zip(coef, basis)), np.zeros((size, size), _dtype(algebra)))


def _dtype(algebra: str):
    return complex if algebra == "u" else float


def _write_basis(out: np.ndarray, algebra: str, first: int = 0) -> np.ndarray:
    # Writes the elements first, first + 1, ... of basis_stack(algebra,
    # size) into the zero stack out, one per slice.
    size = out.shape[-1]
    if algebra == "gl":
        p = np.arange(first, first + len(out))
        out[p - first, p // size, p % size] = 1.0
    elif algebra == "o":
        _place_pairs(out, -1.0, first=first)
    elif algebra == "sp":
        _place_pairs(out, 1.0, size // 2, first)
    else:
        # u: the A_kl in the real part, then the S_kl in the imaginary part
        d = size * (size - 1) // 2
        a = min(max(d - first, 0), len(out))
        _place_pairs(out.real[:a], -1.0, first=first)
        _place_pairs(out.imag[a:], 1.0, first=max(first - d, 0))
    return out


def _place_pairs(out: np.ndarray, sign: float, half: int = 0, first: int = 0) -> np.ndarray:
    # Writes into the zero stack out the A_kl (sign -1, k < l) or S_kl
    # (sign +1, k <= l) from number first on, row-major in (k, l), one per
    # slice.  half = n moves row r to row r + n (mod 2n), negated for
    # r >= n: that is J^T times it, with no product and no signed zeros.
    size = out.shape[-1]
    # the row-major upper triangle, as np.triu_indices at a third of its cost
    k, l = np.nonzero(~np.tri(size, k=-1 if sign > 0 else 0, dtype=bool))
    k, l = k[first:first + len(out)], l[first:first + len(out)]
    at = np.arange(len(out))
    for r, c, s in ((k, l, 1.0), (l, k, sign)):
        out[at, (r + half) % size, c] = np.where(r < size - half, s, -s)
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
    return MomentumValue(algebra_tag(inst.pair_id, side), fn(inst.point))


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

    Returns dim of both group orbits through the point (``orbit_dims``),
    the ambient dimension (the three must satisfy dim_left + dim_right =
    ambient), and the largest symplectic product between tangent
    directions of the two orbits, which must vanish since each momentum
    map is constant along the other group's orbits.  The products come
    from one matrix product X of the Darboux coordinates of the two
    tangent stacks, omega(t1, t2) = q1 . p2 - p1 . q2, each stack
    gathered from the point's own coordinates (``_tangent_stacks``); a
    point so large that X overflows is refused.  The point is factored
    once: its ``tangent_scales`` give both the full-rank test
    (``full_rank``) and the dimensions.
    """
    scales = inst.module.tangent_scales(inst.point)
    if not full_rank(inst, scales):
        raise ValueError("orbit-dimension check requires a full-rank point")
    left, right = _tangent_stacks(inst)
    with np.errstate(over="ignore", invalid="ignore"):
        X = left @ right.T
    if not np.all(np.isfinite(X)):
        raise ValueError("the cross omega products of the two orbits' tangents "
                         "overflow at this point")
    dims = orbit_dims(inst, scales)
    return {
        "dim_left_orbit": dims["left"],
        "dim_right_orbit": dims["right"],
        "ambient_dim": inst.ambient_dim(),
        "cross_omega_residual": float(np.max(np.abs(X), initial=0.0)),
    }


def _tangent_stacks(inst: DualPairInstance) -> list:
    """Real coordinates of both sides' orbit tangents at the point, one
    row per ``basis_stack`` element: the left rows as (q, p), with the n m
    entries of the Darboux half q (the top n rows of the real model) read
    row-major before those of p, and the right rows swapped to (p, -q),
    so that the product of the two stacks is omega over all left x right
    pairs.  Each row is gathered from the signed coordinates of the point
    through ``_tangent_map``; no basis element is multiplied."""
    x = inst.module.to_real(inst.point).ravel()
    return [_gather(x, *_tangent_map(inst.pair_id, side, inst.n, inst.m))
            for side in ("left", "right")]


def _gather(x: np.ndarray, dim: int, pos: np.ndarray, src: np.ndarray) -> np.ndarray:
    """The (dim, x.size) stack whose flat entries pos hold the entries src
    of the signed coordinates [-x reversed, 0, x], and zeros elsewhere."""
    signed = np.concatenate([-x[::-1], [0.0], x])
    out = np.zeros((dim, x.size))
    out.reshape(-1)[pos] = signed.take(src)
    return out


@cache
def _tangent_map(pair_id: str, side: str, n: int, m: int) -> tuple:
    """(dim, positions, sources) of one side's gathered tangent stack.

    Every entry of to_real(xi . x) or to_real(x . xi), for every element
    xi of the side's ``basis_stack``, is 0 or +- one coordinate of
    to_real(x).  So one probe point whose real model holds 1 .. 2nm,
    pushed through the pair module's own infinitesimal action, reads
    off the map: an entry +-k sits at index 2nm +- k of the signed
    coordinates [-x reversed, 0, x], and the flat position of each
    nonzero entry in the (dim, 2nm) stack is kept with that index, both
    as read-only int32 arrays.  The right side's swap (q, p) -> (p, -q)
    is folded in.  A sum of coordinates can also land on a probe value,
    so the map is refused unless it reproduces the action exactly at a
    second, Gaussian point too.  The basis goes through the action in
    windows of ``size`` consecutive elements (``_write_basis``), each
    window with its own probe and Gaussian check and its positions offset
    to its first element, so no (dim, size, size) basis or (dim, 2nm)
    stack is ever built.
    """
    mod = PAIRS[pair_id]
    width = 2 * n * m
    probe = np.arange(1.0, width + 1)
    g = np.random.default_rng(0).standard_normal(width)
    x, y = (mod.from_real(r.reshape(2 * n, m)) for r in (probe, g))
    size = x.shape[0 if side == "left" else 1]
    algebra = algebra_tag(pair_id, side)

    def stack(pt, basis):
        # the side's rows of basis, as _tangent_stacks orders them, at pt
        t = (mod.infinitesimal_left(basis, pt) if side == "left"
             else mod.infinitesimal_right(pt, basis))
        v = mod.to_real(t).reshape(-1, width)
        return v if side == "left" else np.hstack([v[:, width // 2:], -v[:, :width // 2]])

    dim = algebra_dim(algebra, size)
    pos, src = [np.zeros(0, np.int32)], [np.zeros(0, np.int32)]
    for first in range(0, dim, size):
        count = min(size, dim - first)
        basis = _write_basis(np.zeros((count, size, size), _dtype(algebra)), algebra, first)
        v = stack(x, basis)
        exact = np.array_equal(v, np.round(v)) and np.all(np.abs(v) <= width)
        if exact:
            p = np.flatnonzero(v).astype(np.int32)
            s = (v.reshape(-1)[p] + width).astype(np.int32)
            exact = np.array_equal(_gather(g, count, p, s), stack(y, basis))
        if not exact:
            raise ValueError(f"the {side} tangents of the {pair_id} pair are not "
                             "signed coordinates of the point")
        pos.append(p + np.int32(first * width))
        src.append(s)
    pos, src = np.concatenate(pos), np.concatenate(src)
    for a in (pos, src):
        a.setflags(write=False)
    return dim, pos, src


# ---------------------------------------------------------------------------
# orbit dimensions

def tangent_singular_values(algebra: str, size: int, a, b) -> np.ndarray:
    """Singular values of a side's tangent map xi -> to_real(xi . x),
    descending, from the side's scales (a, b) in the pair module's
    ``tangent_scales``, each zero-padded to the algebra's size.

    The map is taken on the orthonormal coordinates of the algebra that
    ``basis_stack`` gives once each element is divided by its Frobenius
    norm.  Rotating by the point's singular frames is orthogonal on the
    algebra and on R^{2nm}, and after it each coordinate, on the entry
    (p, q) of the rotated algebra element, moves entries of the image
    that no other coordinate moves, with weights a_p and b_q.  So the
    map's Gram is diagonal and its singular values are hypot(a_p, b_q),
    over the entries basis_stack's families select: all of them for gl
    and u (the A_kl and i S_kl of u hold p != q twice and p = q once),
    p <= q for sp (the S_kl) and p < q for o (the A_kl).  hypot neither
    overflows nor underflows at any scale of the point.
    """
    pad = np.zeros((2, size))
    pad[0, :len(a)], pad[1, :len(b)] = a, b
    values = np.hypot.outer(*pad)
    if algebra in ("sp", "o"):
        # the row-major upper triangle, diagonal included for sp
        values = values[~np.tri(size, k=-1 if algebra == "sp" else 0, dtype=bool)]
    return np.sort(values, axis=None)[::-1]


def full_rank(inst: DualPairInstance, scales: dict) -> bool:
    """Whether every factor of the point (E, or Q and P) has full rank by
    the ``svd_rank`` rule on the point's shape, read off the pair
    module's ``tangent_scales`` of the point: its left scales are the
    singular values of those factors, up to one common factor."""
    shape = (algebra_size(inst, "left"), algebra_size(inst, "right"))
    return all(svd_rank(s, shape) == len(s) for s in scales["left"])


def orbit_dims(inst: DualPairInstance, scales: dict) -> dict:
    """Dimension of each side's group orbit through the point, by side:
    the ``svd_rank`` of its ``tangent_singular_values`` on the shape of
    its tangent stack, (dim of the algebra, 2nm).  Each value lies
    within a few max(n, m) eps sigma_1 of the true one (the SVD of the
    point is backward stable and hypot is 1-Lipschitz in the scales),
    far inside the cut 100 max(shape) eps sigma_1.  No stack is built or
    factored.  scales are the pair module's ``tangent_scales`` of the
    point.
    """
    dims = {}
    for side, (a, b) in scales.items():
        algebra = algebra_tag(inst.pair_id, side)
        s = tangent_singular_values(algebra, algebra_size(inst, side), a, b)
        dims[side] = svd_rank(s, (len(s), inst.ambient_dim()))
    return dims


def matrix_tangent_scales(E: np.ndarray) -> dict:
    """``tangent_scales`` of the unitary and symplectic pairs, the same on
    both sides: (sigma(E) / sqrt 2, sigma(E) / sqrt 2).

    With E = U S V^H, the left map xi -> xi E becomes xi' -> xi' S for
    xi' = U^H xi U; on u(n) its coordinate on the pair (p, q) of xi' moves
    the entries (p, q) and (q, p) with weights sigma_q and sigma_p, and
    its algebra norm is sqrt 2 times theirs off the diagonal.  So is the
    right map on u(m).  sp(2n) = J^T Sym is the same with symmetric
    in place of skew-Hermitian xi' (J is orthogonal), and o(m) with
    real skew xi'.
    """
    s = np.linalg.svd(E, compute_uv=False) / np.sqrt(2.0)
    return {"left": (s, s), "right": (s, s)}


# The pair modules import the reports and require_level_match from here,
# so the table is built last, once those names exist.
from . import general_linear, symplectic, unitary  # noqa: E402

PAIRS = {"unitary": unitary, "symplectic": symplectic, "general_linear": general_linear}
PAIR_IDS = tuple(PAIRS)
