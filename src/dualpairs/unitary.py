"""The commuting U(n) x U(m) actions on complex n x m matrices.

Left multiplication by U(n) and right multiplication by U(m) commute,
and both are Hamiltonian for the form Im Tr(E^dagger F).  The two
momentum maps are quadratic,

    left  E -> (i/2) E E^dagger    in u(n),
    right E -> (i/2) E^dagger E    in u(m),

each level set of one map is an orbit of the other group, and the
matched orbits are labelled by the singular values of E.

The module is the unitary record of ``pairs.PAIRS``.
"""

from __future__ import annotations

import numpy as np

from .jsonio import matrix_point_from_obj as point_from_obj, matrix_point_to_obj as point_to_obj
from .linalg import (RANK_TOL_FACTOR, gram_cholesky, isometry_between, random_group_element,
                     rank_tol, relative_diff, shared_array, stream_rng, svd_rank)
from .pairs import OrbitReport, WitnessReport, require_level_match as _require_level_match

GROUP = {"left": "unitary", "right": "unitary"}
# both actions and their derivatives are matrix products
act_left = act_right = infinitesimal_left = infinitesimal_right = np.matmul


def check_dims(n: int, m: int):
    """Every shape is allowed."""


def check_point(E, n: int, m: int) -> np.ndarray:
    E = np.asarray(E)
    if E.shape != (n, m):
        raise ValueError(f"point shape {E.shape} does not match ({n},{m})")
    return E.astype(complex)


def full_rank(E: np.ndarray) -> bool:
    return rank_tol(E) == min(E.shape)


def random_point(n: int, m: int, rng) -> np.ndarray:
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def to_real(x) -> np.ndarray:
    """The real model [Re x; Im x] of a point, a tangent or a stack of
    tangents; it carries Im Tr(E^dagger F) to omega_real."""
    return np.concatenate([np.real(x), np.imag(x)], axis=-2)


def momentum_left(E: np.ndarray) -> np.ndarray:
    """(i/2) E E^dagger, anti-Hermitian by construction."""
    E = np.asarray(E, dtype=complex)
    return 0.5j * (E @ np.conj(E).T)


def momentum_right(E: np.ndarray) -> np.ndarray:
    """(i/2) E^dagger E."""
    E = np.asarray(E, dtype=complex)
    return 0.5j * (np.conj(E).T @ E)


def witness_left(E: np.ndarray, E_prime: np.ndarray) -> WitnessReport:
    """U in U(n) with U E close to E_prime, given equal right momenta.

    Equal right momenta mean equal column Gram matrices, so mapping
    columns of E to the matching columns of E_prime is an isometry of
    spans; ``isometry_between`` extends it to all of C^n by mapping the
    complement of one span onto the other's.  Rank-deficient inputs are
    fine.
    """
    E = np.asarray(E, dtype=complex)
    E_prime = np.asarray(E_prime, dtype=complex)
    _require_level_match(momentum_right(E), momentum_right(E_prime), "right")
    U = isometry_between(E, E_prime)
    return WitnessReport(U, relative_diff(U @ E, E_prime), "left")


def witness_right(E: np.ndarray, E_prime: np.ndarray) -> WitnessReport:
    """V in U(m) with E V close to E_prime, given equal left momenta.

    Runs the left construction on conjugate transposes: W E^dagger =
    E_prime^dagger gives V = W^dagger.
    """
    E = np.asarray(E, dtype=complex)
    E_prime = np.asarray(E_prime, dtype=complex)
    _require_level_match(momentum_left(E), momentum_left(E_prime), "left")
    W = isometry_between(np.conj(E).T, np.conj(E_prime).T)
    V = np.conj(W).T
    return WitnessReport(V, relative_diff(E @ V, E_prime), "right")


def orbit_invariants(E: np.ndarray) -> np.ndarray:
    """Singular values of E, descending.

    The left momentum lies in the adjoint orbit of
    diag((i/2) s_1^2, ..., (i/2) s_k^2, 0, ...) in u(n) and the right
    momentum in the matching orbit in u(m), so the list labels both
    orbits at once.
    """
    return np.linalg.svd(np.asarray(E, dtype=complex), compute_uv=False)


def _diagonal(sigmas, n: int, m: int) -> np.ndarray:
    T = np.zeros((n, m), dtype=complex)
    k = np.arange(len(sigmas))
    T[k, k] = sigmas
    return T


def orbit(E: np.ndarray) -> OrbitReport:
    """Singular values as the label of both orbits, padded with zeros to
    n on the left and to m on the right; the normal forms are the
    momenta of the diagonal matrix they fill."""
    n, m = E.shape
    s = orbit_invariants(E)
    T = _diagonal(s, n, m)
    return OrbitReport(np.concatenate([s, np.zeros(n - len(s))]),
                       np.concatenate([s, np.zeros(m - len(s))]),
                       {"sigmas": [float(x) for x in s]},
                       momentum_left(T), momentum_right(T))


def normal_form_partners(n: int, m: int, seed: int) -> tuple:
    """Two points on one orbit: a seeded diagonal template moved by two
    seeded elements of U(n)."""
    rng = stream_rng(seed, 2)
    T = _diagonal(np.sort(rng.uniform(0.5, 2.0, size=min(n, m)))[::-1], n, m)
    return (random_group_element("unitary", n, seed, 3) @ T,
            random_group_element("unitary", n, seed, 4) @ T)


@shared_array
def _jacobian_pattern(m: int) -> np.ndarray:
    """Where the entries of one row f of a point land in the m^2 x 2m
    block of the Jacobian matrix that the row fills (see
    ``_jacobian_matrix``): one record (row, col, src, coef) per nonzero,
    src indexing [Re f, Im f].  Built once per m and shared read-only (see
    ``linalg.shared_array``).

    The coordinates of row p of u(m) start at row p(2m - p): Im T_pp,
    then sqrt 2 Re T_pr and sqrt 2 Im T_pr for r = p + 1, ..., m - 1.
    Column 2j + t is the direction E_aj (t = 0) or i E_aj (t = 1); call
    Re part 0 and Im part 1.  Its image T vanishes off row and column j.
    Im T_jj is part t of f_j.  For q != j and (p, r) the pair j, q in
    order, sqrt 2 Im T_pr is part t of f_q over sqrt 2, and sqrt 2 Re T_pr
    is its other part over sqrt 2, negated when t = 0 and j < q or t = 1
    and j > q.
    """
    entries = []
    for j in range(m):
        for t in (0, 1):
            col = 2 * j + t
            entries.append((j * (2 * m - j), col, t * m + j, 1.0))
            for q in range(m):
                if q == j:
                    continue
                p, r = min(j, q), max(j, q)
                row = p * (2 * m - p) + 2 * (r - p) - 1
                sign = -1.0 if (t == 0) == (j < q) else 1.0
                entries.append((row, col, (1 - t) * m + q, sign * np.sqrt(0.5)))
                entries.append((row + 1, col, t * m + q, np.sqrt(0.5)))
    return np.array(entries, dtype=[("row", np.intp), ("col", np.intp),
                                    ("src", np.intp), ("coef", float)])


def _jacobian_matrix(E: np.ndarray) -> np.ndarray:
    """The m^2 x 2nm matrix of the right momentum's differential at E
    (see ``jacobian_rank_right``), placed entry by entry from
    ``_jacobian_pattern``: row a of E fills columns 2am..2am + 2m - 1."""
    n, m = E.shape
    P = _jacobian_pattern(m)
    A = np.zeros((m * m, n, 2 * m))
    src = np.concatenate([E.real, E.imag], axis=1).T
    A[P["row"], :, P["col"]] = P["coef"][:, None] * src[P["src"]]
    return A.reshape(m * m, 2 * n * m)


def jacobian_rank_right(E: np.ndarray) -> int:
    """Rank of the differential of the right momentum map at E.

    The differential sends X to (i/2)(X^dagger E + E^dagger X); the rank
    is that of its matrix A over the real basis E_aj, i E_aj of the
    domain, (a, j) row-major, with each image T in orthonormal
    coordinates of u(m), by rows of its upper triangle: Im T_pp, then
    sqrt 2 Re T_pq and sqrt 2 Im T_pq for each q > p, m^2 rows in all.  With
    k zero singular values the observed rank is m^2 - k^2, so the map has
    full rank m^2 exactly when E has full column rank.

    The rank is ``rank_tol``'s, certified at every point from one SVD
    E = U S V^dagger and the matrix A' of E V.  X -> X V and T -> V^dagger
    T V are orthogonal, so A' has A's singular values.  The largest is
    s_1, that of E (the image of X has norm at most s_1 |X|_F, reached at
    X = u_1 v_1^dagger), which fixes ``svd_rank``'s cut c on A.  With
    k = m - ``svd_rank`` of E, the image at E V misses the trailing k x k
    block of u(m), whose k^2 coordinates are the last rows K of A':

    * |K|_F <= c/2 bounds sigma_{m^2-k^2+1}(A) below c, by Weyl;
    * a ``linalg.gram_cholesky`` factor of the other m^2 - k^2 rows puts
      their least singular value, and so sigma_{m^2-k^2}(A) by
      interlacing, above about 1e-6 |A|_F, far above c.

    Then the rank is m^2 - k^2.  Forming E V moves A' by a few m^2 eps s_1
    in Frobenius norm (|A'|_F = sqrt m |E V|_F, and the computed V is
    orthonormal to a few m eps), which lies inside the other half of
    c = 100 max(m^2, 2nm) eps s_1.  When either bound fails, ``rank_tol``
    of A itself gives the rank.
    """
    E = np.asarray(E, dtype=complex)
    n, m = E.shape
    _, s, Vh = np.linalg.svd(E, full_matrices=n < m)
    b = m * m - (m - svd_rank(s, E.shape)) ** 2
    A = _jacobian_matrix(E @ np.conj(Vh).T)
    cut = RANK_TOL_FACTOR * max(m * m, 2 * n * m) * np.finfo(float).eps * s[0]
    if np.linalg.norm(A[b:]) <= cut / 2 and gram_cholesky(A[:b]) is not None:
        return b
    return rank_tol(_jacobian_matrix(E))
