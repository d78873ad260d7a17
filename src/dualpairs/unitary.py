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
from .linalg import (gram_cholesky, isometry_between, random_group_element, rank_tol,
                     relative_diff, stream_rng)
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


def jacobian_rank_right(E: np.ndarray) -> int:
    """Rank of the differential of the right momentum map at E.

    The differential sends X to (i/2)(X^dagger E + E^dagger X); the rank
    is computed over a real basis of the domain, with each image T in
    orthonormal coordinates of u(m): Im T_ii, then sqrt 2 Re T_ij and
    sqrt 2 Im T_ij for i < j, m^2 rows in all.  They have the singular
    values of the 2m^2 rows of real and imaginary parts of every entry,
    since the rows left out are zero (Re T_ii) or repeat the upper
    triangle up to sign (T_ji = -conj T_ij).  With k zero singular
    values the observed rank is m^2 - k^2, so the map has full rank m^2
    exactly when E has full column rank.

    The rank is ``rank_tol``'s.  When n >= m, a ``linalg.gram_cholesky``
    factor of the m^2 x m^2 Gram of the rows proves it is m^2 without an
    SVD; a wide E, or one whose Gram has no factor (E short of full
    column rank, or nearly so), takes ``rank_tol``.
    """
    E = np.asarray(E, dtype=complex)
    n, m = E.shape
    # the images of the real basis E_aj, i E_aj of the domain, (a, j)
    # row-major, by placement: C = E^dagger E_aj is conj(E[a]) in column
    # j and E_aj^dagger E = C^dagger, so T is (i/2)(C^dagger + C), then
    # (1/2)(C^dagger - C)
    C = np.einsum("ak,jl->ajkl", np.conj(E), np.eye(m)).reshape(n * m, m, m)
    Ch = np.conj(np.swapaxes(C, -1, -2))
    T = np.stack([0.5j * (Ch + C), 0.5 * (Ch - C)], axis=1).reshape(2 * n * m, m, m)
    d = np.arange(m)
    i, j = np.triu_indices(m, 1)
    upper = np.sqrt(2.0) * T[:, i, j]
    A = np.concatenate([np.imag(T[:, d, d]), np.real(upper), np.imag(upper)], axis=1).T
    # the m^2 rows of A can be independent only when n >= m
    if n >= m and gram_cholesky(A) is not None:
        return m * m
    return rank_tol(A)
