"""The commuting Sp(2n,R) x O(m) actions on rank-m real 2n x m matrices.

Momentum maps for the form Tr(E^T J F):

    left  E -> -1/2 E E^T J    in sp(2n,R),
    right E -> -1/2 E^T J E    in o(m).

The left witness extends the column map E -> E' to a symplectic S
(Witt's theorem) through two Darboux completions, and one completion
builds S in an SVD-like factorization E = S D O with S symplectic, O
orthogonal and D a sparse template; the matched orbit normal forms are
read off from D.  The module is the symplectic record of
``pairs.PAIRS``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jsonio import matrix_point_from_obj as point_from_obj, matrix_point_to_obj as point_to_obj
from .linalg import (
    column_frames,
    isometry_between,
    random_group_element,
    rank_tol,
    relative_diff,
    skew_canonical,
    standard_J,
    stream_rng,
)
from .pairs import (OrbitReport, WitnessReport, matrix_tangent_scales as tangent_scales,
                    require_level_match as _require_level_match)

GROUP = {"left": "symplectic", "right": "orthogonal"}
# both actions and their derivatives are matrix products
act_left = act_right = infinitesimal_left = infinitesimal_right = np.matmul
# a point, a tangent or a stack of tangents is its own real model
to_real = from_real = np.asarray


def check_dims(n: int, m: int):
    if m > 2 * n:
        raise ValueError("the symplectic pair needs m <= 2n")


def check_point(E, n: int, m: int) -> np.ndarray:
    if np.iscomplexobj(E):
        raise ValueError("symplectic pair points must be real matrices")
    E = np.asarray(E, dtype=float)
    if E.shape != (2 * n, m):
        raise ValueError(f"point shape {E.shape} does not match ({2 * n},{m})")
    check_dims(n, m)
    if rank_tol(E) < m:
        raise ValueError("symplectic pair points must have rank m")
    return E


def random_point(n: int, m: int, rng) -> np.ndarray:
    return rng.standard_normal((2 * n, m))


def momentum_left(E: np.ndarray) -> np.ndarray:
    E = np.asarray(E, dtype=float)
    J = standard_J(E.shape[0] // 2)
    return -0.5 * (E @ E.T @ J)


def momentum_right(E: np.ndarray) -> np.ndarray:
    E = np.asarray(E, dtype=float)
    J = standard_J(E.shape[0] // 2)
    return -0.5 * (E.T @ J @ E)


@dataclass(frozen=True)
class SpOrbitInvariants:
    """Orbit label (p, sigma_1 >= ... >= sigma_p > 0, q, r) plus dims.

    p counts coupled column pairs, q = m - 2p is forced by the rank
    condition and r = n - m + p is the ambient slack; both must be
    nonnegative.
    """

    p: int
    sigmas: tuple
    q: int
    r: int
    n: int
    m: int

    def __post_init__(self):
        if len(self.sigmas) != self.p:
            raise ValueError("sigma count must equal p")
        if any(s <= 0 for s in self.sigmas):
            raise ValueError("sigmas must be strictly positive")
        if list(self.sigmas) != sorted(self.sigmas, reverse=True):
            raise ValueError("sigmas must be sorted descending")
        if self.q != self.m - 2 * self.p or self.q < 0:
            raise ValueError("q must equal m - 2p >= 0")
        if self.r != self.n - self.m + self.p or self.r < 0:
            raise ValueError("r must equal n - m + p >= 0")

    def to_obj(self) -> dict:
        return {
            "p": self.p,
            "sigmas": [float(s) for s in self.sigmas],
            "q": self.q,
            "r": self.r,
        }


def build_template(inv: SpOrbitInvariants) -> np.ndarray:
    """The sparse 2n x m factor D determined by the invariants.

    Columns split (p | q | p); rows split (p | q | r | p | q | r).  The
    first p columns carry sigma_i at the top, the next q are standard
    basis columns, the last p carry sigma_i in the lower half.
    """
    p, q, n, m = inv.p, inv.q, inv.n, inv.m
    D = np.zeros((2 * n, m))
    for i, s in enumerate(inv.sigmas):
        D[i, i] = s
        D[n + i, p + q + i] = s
    for j in range(q):
        D[p + j, p + j] = 1.0
    return D


# ---------------------------------------------------------------------------
# Darboux completion

def _darboux_basis(M: np.ndarray, p: int, J: np.ndarray) -> np.ndarray:
    """A Darboux basis B (B^T J B = J) whose columns include M's.

    M holds p planes, column pairs (2i, 2i + 1) with omega = 1 that
    couple to nothing else, followed by radical columns R.  The first
    half of B takes the planes' first columns, R and the complement's
    first columns; the second half their partners in the same order.
    An empty M gets the identity.
    """
    k = M.shape[1]
    if k == 0:
        return np.eye(J.shape[0])
    R = M[:, 2 * p:]
    # every radical partner from one minimum-norm solve of
    # omega(M, P) = [0; I].  Adding R X keeps omega(M, P), since R couples
    # to nothing in span(M), and with omega(R, P) = I it turns P^T J P
    # into P^T J P - 2X for skew X, so X = P^T J P / 2 makes P isotropic
    C = np.zeros((k, k - 2 * p))
    C[2 * p:] = np.eye(k - 2 * p)
    P = J.T @ M @ np.linalg.solve(M.T @ M, C)
    P += 0.5 * R @ (P.T @ J @ P)
    # the omega-complement of [M P] is the orthogonal complement of
    # J [M P]: the last columns of its complete QR, orthonormal, so its
    # restricted Gram has noise scale 1, put in Darboux form
    F = np.hstack([M, P])
    Q = np.linalg.qr(J @ F, mode="complete")[0][:, F.shape[1]:]
    O, a = skew_canonical(Q.T @ J @ Q, 1.0)
    if 2 * len(a) != Q.shape[1]:
        raise ValueError("degenerate restricted form on the complement")
    Qc = (Q @ O.T) / np.sqrt(np.repeat(a, 2))
    return np.hstack([M[:, 0:2 * p:2], R, Qc[:, 0::2],
                      M[:, 1:2 * p:2], P, Qc[:, 1::2]])


# ---------------------------------------------------------------------------
# witnesses and the template factorization

def witness_left(E: np.ndarray, E_prime: np.ndarray) -> WitnessReport:
    """S in Sp(2n,R) with S E close to E_prime, given equal right momenta.

    Equal right momenta are equal Grams E^T J E, so Witt's extension
    theorem gives a symplectic S mapping the columns of E to those of
    E_prime: S = B' B^-1 for Darboux bases B and B' that contain them.
    One stacked SVD checks both for full column rank, which keeps the
    families independent, and gives |E|_2; the Gram is quadratic in E,
    so ``skew_canonical`` of it at noise scale |E|_2^2 gives one column
    transform T for both: its planes scaled by a^(-1/2) to omega = 1,
    then its kernel, the radical.  ``_darboux_basis`` completes E T to B and E_prime T to B'.
    """
    E = np.asarray(E, dtype=float)
    E_prime = np.asarray(E_prime, dtype=float)
    s = column_frames("witness_left", ("E", E), ("E'", E_prime), uv=False)
    xi = momentum_right(E)
    _require_level_match(xi, momentum_right(E_prime), "right")
    O, a = skew_canonical(-2.0 * xi, np.max(s[0], initial=0.0) ** 2)  # the Gram is -2 xi
    T = O.T
    T[:, :2 * len(a)] /= np.sqrt(np.repeat(a, 2))
    J = standard_J(E.shape[0] // 2)
    B, B_prime = (_darboux_basis(F @ T, len(a), J) for F in (E, E_prime))
    S = B_prime @ np.linalg.inv(B)
    return WitnessReport(S, relative_diff(S @ E, E_prime), "left")


def witness_right(E: np.ndarray, E_prime: np.ndarray) -> WitnessReport:
    """O in O(m) with E O^T close to E_prime, given equal left momenta.

    Equal left momenta force E E^T = E_prime E_prime^T, i.e. the rows of
    the two matrices have equal Euclidean Gram matrices; the orthogonal
    map matching rows is built by isometry extension.  The returned O
    satisfies E_prime = E @ O.T (O.T is the acting right group element).
    """
    E = np.asarray(E, dtype=float)
    E_prime = np.asarray(E_prime, dtype=float)
    column_frames("witness_right", ("E", E), ("E'", E_prime), uv=False)
    _require_level_match(momentum_left(E), momentum_left(E_prime), "left")
    O = isometry_between(E.T, E_prime.T)
    return WitnessReport(O, relative_diff(E @ O.T, E_prime), "right")


def symplectic_svd(E: np.ndarray):
    """Factor a rank-m matrix as E = S D O, SVD-like for the form J.

    S is symplectic, O orthogonal, and D the sparse template of
    ``build_template``; the sigma values in D are the symplectic
    singular values of E.  One SVD is the rank check and gives |E|_2,
    and ``skew_canonical`` at noise scale |E|_2^2 puts the right
    momentum into skew canonical form: O and the sigmas.  Then S D = W = E O^T fixes
    S's columns a, n + a and p + b as the Darboux planes
    (W_a, W_p+q+a) / sigma_a and the radical W_p+b, and one
    ``_darboux_basis`` completes them to S.

    Returns (S, D, O, invariants).
    """
    E = np.asarray(E, dtype=float)
    two_n, m = E.shape
    n = two_n // 2
    s = column_frames("symplectic_svd", ("E", E), uv=False)
    O0, a_vals = skew_canonical(momentum_right(E), np.max(s, initial=0.0) ** 2)
    p = len(a_vals)
    q = m - 2 * p
    r = n - m + p
    if q < 0 or r < 0:
        raise ValueError("rank condition violated: inconsistent invariants")
    sigmas = tuple(float(np.sqrt(2.0 * a)) for a in a_vals)
    inv = SpOrbitInvariants(p, sigmas, q, r, n, m)

    # reorder the canonical-form rows to the template's block layout: pair
    # (2a, 2a+1) goes to rows (p+q+a, a), kernel rows fill the middle block
    O = O0[np.r_[1:2 * p:2, 2 * p:m, 0:2 * p:2]]
    # W's planes (W_a, W_p+q+a) are E (o_2a+1, o_2a) for the rows o of O0
    M = E @ O0[np.r_[np.arange(2 * p) ^ 1, 2 * p:m]].T
    M[:, :2 * p] /= np.repeat(sigmas, 2)
    S = _darboux_basis(M, p, standard_J(n))

    D = build_template(inv)
    recon = relative_diff(S @ D @ O, E)
    if recon > 1e-6:
        raise ValueError(f"factorization failed to reconstruct (residual {recon:.3e})")
    return S, D, O, inv


# ---------------------------------------------------------------------------
# orbit normal forms

def normal_form_left(inv: SpOrbitInvariants) -> np.ndarray:
    """Canonical sp(2n,R) momentum value for the invariants.

    Block pattern on the (p|q|r|p|q|r) partition: -sigma_i^2/2 at
    (i, n+i), +sigma_i^2/2 at (n+i, i), the q nilpotent cells -1/2 at
    (p+j, n+p+j), zeros elsewhere.  Computed as the left momentum of the
    template so equality with momenta of template-built points is exact.
    """
    return momentum_left(build_template(inv))


def normal_form_right(inv: SpOrbitInvariants) -> np.ndarray:
    """Canonical o(m) momentum value: -sigma_i^2/2 coupling cells at
    (i, p+q+i), the mirrored positive cells below, and a q x q zero
    block in the middle of the partition (p|q|p)."""
    return momentum_right(build_template(inv))


def correspond(inv: SpOrbitInvariants):
    """The matched pair of canonical momentum values."""
    return normal_form_left(inv), normal_form_right(inv)


def orbit(E: np.ndarray) -> OrbitReport:
    """The invariants of ``symplectic_svd`` label both orbits at once."""
    _, _, _, inv = symplectic_svd(E)
    return OrbitReport(inv, inv, inv.to_obj(), *correspond(inv))


def normal_form_partners(n: int, m: int, seed: int) -> tuple:
    """Two points on one orbit: the template of seeded invariants moved
    by two seeded elements of Sp(2n,R)."""
    rng = stream_rng(seed, 2)
    p = int(rng.integers(max(0, m - n), m // 2 + 1))
    sig = tuple(np.sort(rng.uniform(0.7, 1.8, size=p))[::-1])
    D = build_template(SpOrbitInvariants(p, sig, m - 2 * p, n - m + p, n, m))
    return (random_group_element("symplectic", 2 * n, seed, 3) @ D,
            random_group_element("symplectic", 2 * n, seed, 4) @ D)
