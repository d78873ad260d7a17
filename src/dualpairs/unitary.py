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
from .linalg import (isometry_between, random_group_element, relative_diff, stream_rng,
                     svd_rank)
from .pairs import (OrbitReport, WitnessReport, matrix_tangent_scales as tangent_scales,
                    require_level_match as _require_level_match, tangent_singular_values)

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


def random_point(n: int, m: int, rng) -> np.ndarray:
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def to_real(x) -> np.ndarray:
    """The real model [Re x; Im x] of a point, a tangent or a stack of
    tangents; it carries Im Tr(E^dagger F) to omega_real."""
    return np.concatenate([np.real(x), np.imag(x)], axis=-2)


def from_real(r: np.ndarray) -> np.ndarray:
    """The point of real model r, the inverse of ``to_real``."""
    re, im = np.split(r, 2)
    return re + 1j * im


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
    is that of its matrix A over the real basis E_aj, i E_aj of the
    domain, (a, j) row-major, with each image T in orthonormal
    coordinates of u(m), by rows of its upper triangle: Im T_pp, then
    sqrt 2 Re T_pq and sqrt 2 Im T_pq for each q > p, m^2 rows in all.  With
    k zero singular values the observed rank is m^2 - k^2, so the map has
    full rank m^2 exactly when E has full column rank.

    The momentum-map identity <dJ(X), xi> = omega(E xi, X) makes A, up
    to orthogonal maps, the transpose of the right tangent map
    xi -> E xi in orthonormal coordinates of u(m), so A has that map's
    singular values: E's own sigma_p (zero past n) and, twice for each
    p < q, sqrt((sigma_p^2 + sigma_q^2)/2).  The rank is ``svd_rank`` of
    them on A's shape (m^2, 2nm), the shape of the right tangent stack,
    so it is the right orbit's dimension in ``pairs.orbit_dims``.
    """
    E = np.asarray(E, dtype=complex)
    n, m = E.shape
    s = tangent_singular_values("u", m, *tangent_scales(E)["right"])
    return svd_rank(s, (m * m, 2 * n * m))
