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
carrying the form ``omega_real``.
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
from typing import Any

import numpy as np

from .linalg import (MATCH_RTOL, algebra_residual, omega_real, relative_diff, require_member,
                     shared_array, standard_J, stream_rng, svd_rank, trace_pairing)


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
# algebra elements

def random_algebra_element(algebra: str, size: int, rng: np.random.Generator) -> np.ndarray:
    """A Gaussian element of u(size), o(size), sp(size,R) or gl(size,R),
    drawn by projecting one Gaussian matrix G (Z = G + iG' for u) onto
    the algebra: G for gl, (G - G^T)/sqrt 2 for o, J^T (G + G^T)/sqrt 2
    for sp and (Z - Z^H)/2 for u."""
    if algebra not in ("gl", "o", "u", "sp"):
        raise ValueError(f"unknown algebra tag {algebra!r}")
    if algebra == "sp" and size % 2 != 0:
        raise ValueError("sp size must be even")
    G = rng.standard_normal((size, size))
    if algebra == "gl":
        return G
    if algebra == "o":
        return (G - G.T) / np.sqrt(2.0)
    if algebra == "sp":
        return standard_J(size // 2).T @ (G + G.T) / np.sqrt(2.0)
    Z = G + 1j * rng.standard_normal((size, size))
    return (Z - np.conj(Z).T) / 2.0


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
    map is constant along the other group's orbits.  The products are
    taken over the pairs of the two sides' fixed probes (``_probes``):
    omega(xi_i . x, x . eta_j) / (|xi_i . x| |x . eta_j|), which does not
    depend on the scale of the point and reads 0 on a zero tangent.
    omega is bilinear in (xi, eta), so Gaussian probes miss a nonzero
    cross form with probability 0 (Freivalds 1977; Hutchinson 1989).
    Each side's probes go through one stacked infinitesimal action, and
    one matrix product of their Darboux coordinates gives every value,
    omega(t1, t2) = q1 . p2 - p1 . q2; a point so large that a product
    or a tangent's norm overflows is refused.  The point is factored once: its
    ``tangent_scales`` give both the full-rank test (``full_rank``) and
    the dimensions.
    """
    scales = inst.module.tangent_scales(inst.point)
    if not full_rank(inst, scales):
        raise ValueError("orbit-dimension check requires a full-rank point")
    left, right = (inst.module.to_real(infinitesimal_action(
        inst, side, _probes(algebra_tag(inst.pair_id, side), algebra_size(inst, side))))
        for side in ("left", "right"))
    # (q, p) on the left and (p, -q) on the right, one row per probe
    half = left.shape[-2] // 2
    left = left.reshape(PROBES, -1)
    right = np.concatenate([right[:, half:], -right[:, :half]], axis=1).reshape(PROBES, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        X = left @ right.T
        norms = np.linalg.norm([left, right], axis=-1)
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(norms))):
        raise ValueError("the cross omega products of the two orbits' tangents, "
                         "or their norms, overflow at this point")
    # a zero tangent has zero products: its norm is taken as 1
    a, b = np.where(norms > 0, norms, 1.0)
    dims = orbit_dims(inst, scales)
    return {
        "dim_left_orbit": dims["left"],
        "dim_right_orbit": dims["right"],
        "ambient_dim": inst.ambient_dim(),
        "cross_omega_residual": float(np.max(np.abs(X) / a[:, None] / b)),
    }


PROBES = 4


@shared_array
def _probes(algebra: str, size: int) -> np.ndarray:
    """The PROBES fixed ``random_algebra_element`` draws of
    ``check_lie_weinstein``, as one (PROBES, size, size) stack drawn once
    per key from one seeded stream and shared read-only (see
    ``linalg.shared_array``)."""
    rng = stream_rng(0)
    return np.stack([random_algebra_element(algebra, size, rng) for _ in range(PROBES)])


# ---------------------------------------------------------------------------
# orbit dimensions

def tangent_singular_values(algebra: str, size: int, a, b) -> np.ndarray:
    """Singular values of a side's tangent map xi -> to_real(xi . x),
    descending, from the side's scales (a, b) in the pair module's
    ``tangent_scales``, each zero-padded to the algebra's size.

    The map is taken on orthonormal coordinates of the algebra, in the
    Frobenius inner product.  Rotating by the point's singular frames is
    orthogonal on the algebra and on R^{2nm}, and after it each
    coordinate, on the entry (p, q) of the rotated algebra element, moves
    entries of the image that no other coordinate moves, with weights a_p
    and b_q.  So the map's Gram is diagonal and its singular values are
    hypot(a_p, b_q), one per coordinate: over all entries (p, q) for gl
    and u (the real skew and imaginary symmetric parts of u hold p != q
    twice and p = q once), p <= q for sp = J^T Sym and p < q for o.
    hypot neither overflows nor underflows at any scale of the point.
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
