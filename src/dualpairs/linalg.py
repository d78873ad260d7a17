"""Dense matrix kernels shared by all three dual pairs.

Everything operates on plain numpy arrays (real float64 or complex128).
Conventions fixed here and relied on everywhere else:

* the standard symplectic matrix is J = [[0, I], [-I, 0]],
* U, O and Sp preserve a form F, g^H F g = F (I, or J for Sp), and
  their algebras are X^H F + F X = 0: ``group_residual`` and
  ``algebra_residual`` test membership (GL preserves no form),
* rank decisions are SVD based with a relative threshold,
* the canonical form of a skew matrix puts +a in the upper right of
  each 2x2 block, blocks sorted by descending a,
* random symplectic and general linear elements are Cayley transforms
  of a normalised algebra element.

numpy is the only library these kernels use.
"""

from __future__ import annotations

from functools import cache, wraps

import numpy as np

# The tolerance policy, one constant per decision:
# a singular value counts toward the rank when it exceeds
# RANK_TOL_FACTOR * max(shape) * eps * s_max (``svd_rank``), and a pair
# value of an m x m skew matrix counts when it exceeds
# RANK_TOL_FACTOR * m * eps * scale (``skew_canonical``);
RANK_TOL_FACTOR = 100.0
# skew_canonical accepts xi when |xi + xi^T|_F <= max(SKEW_RTOL |xi|_F, 1e-13);
SKEW_RTOL = 1e-9
# two momentum values match when their difference is at most
# MATCH_RTOL times max(1, their norms);
MATCH_RTOL = 1e-8
# seesaw takes zeta as anti-Hermitian when |zeta + zeta^H|_F is at most
# ANTI_HERMITIAN_RTOL times max(1, |zeta|_F).
ANTI_HERMITIAN_RTOL = 1e-10

_EPS = np.finfo(float).eps


def shared_array(build):
    """Memoise an array builder per argument tuple, marking each result
    read-only: every caller then shares one build, and an in-place
    write to it raises ValueError.  A call that raises caches nothing."""
    @cache
    @wraps(build)
    def shared(*args, **kwargs):
        out = build(*args, **kwargs)
        out.setflags(write=False)
        return out
    return shared


@shared_array
def standard_J(n: int) -> np.ndarray:
    """Return the 2n x 2n block matrix [[0, I], [-I, 0]].

    The matrix is built once per n and shared, so it is read-only (see
    ``shared_array``); copy it to modify.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


def omega_real(X: np.ndarray, Y: np.ndarray):
    """Constant symplectic form Tr(X^T J Y) on 2n x m real matrices.

    Leading axes broadcast, so stacks of matrices give an array of
    values; a single pair gives a float.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim < 2 or X.shape[-2:] != Y.shape[-2:]:
        raise ValueError(f"shape mismatch: {X.shape} vs {Y.shape}")
    if X.shape[-2] % 2 != 0:
        raise ValueError("row count must be even")
    n = X.shape[-2] // 2
    # Tr(X^T J Y) = Tr(X_top^T Y_bot) - Tr(X_bot^T Y_top)
    return _scalar(np.sum(X[..., :n, :] * Y[..., n:, :], axis=(-2, -1))
                   - np.sum(X[..., n:, :] * Y[..., :n, :], axis=(-2, -1)))


def omega_complex(E: np.ndarray, F: np.ndarray):
    """Symplectic form Im Tr(E^dagger F) on complex n x m matrices;
    leading axes broadcast as in omega_real."""
    E = np.asarray(E, dtype=complex)
    F = np.asarray(F, dtype=complex)
    if E.ndim < 2 or E.shape[-2:] != F.shape[-2:]:
        raise ValueError(f"shape mismatch: {E.shape} vs {F.shape}")
    return _scalar(np.imag(np.sum(np.conj(E) * F, axis=(-2, -1))))


def trace_pairing(a: np.ndarray, b: np.ndarray):
    """Trace form Re Tr(ab) identifying matrix algebras with their duals;
    leading axes broadcast as in omega_real."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim < 2 or a.shape[-2:] != b.shape[-2:] or a.shape[-2] != a.shape[-1]:
        raise ValueError("inputs must be square matrices of equal shape")
    return _scalar(np.real(np.sum(a * np.swapaxes(b, -1, -2), axis=(-2, -1))))


def _scalar(values):
    # a float for one pair of matrices, the array for stacks
    return float(values) if np.ndim(values) == 0 else values


def svd_rank(s: np.ndarray, shape, scale: float | None = None) -> int:
    """Numerical rank of a matrix of the given shape from its singular
    values s, in descending order: the count of those above
    RANK_TOL_FACTOR * max(shape) * eps * scale, where scale is s[0]
    unless given."""
    if s.size == 0:
        return 0
    scale = s[0] if scale is None else scale
    return int(np.count_nonzero(s > RANK_TOL_FACTOR * max(shape) * _EPS * scale))


def rank_tol(M: np.ndarray) -> int:
    """Numerical rank of M by the ``svd_rank`` rule."""
    M = np.asarray(M)
    if M.size == 0:
        return 0
    return svd_rank(np.linalg.svd(M, compute_uv=False), M.shape)


def column_frames(who: str, *named, uv: bool = True):
    """One thin SVD of each (name, matrix) pair, stacked in one call
    (only the singular values when uv is false), refused unless every
    matrix has full column rank by the ``svd_rank`` rule; the refusal
    names who asked, the first matrix short of rank and its rank."""
    names, mats = zip(*named)
    svd = np.linalg.svd(np.stack(mats), full_matrices=False, compute_uv=uv)
    for name, M, s in zip(names, mats, svd[1] if uv else svd):
        r = svd_rank(s, M.shape)
        if r < M.shape[1]:
            raise ValueError(f"{who} requires {name} of full column rank {M.shape[1]}; "
                             f"its rank is {r}")
    return svd


def relative_diff(A: np.ndarray, B: np.ndarray) -> float:
    """||A - B||_F / max(1, ||B||_F), the residual used in all reports."""
    A = np.asarray(A)
    B = np.asarray(B)
    return float(np.linalg.norm(A - B) / max(1.0, np.linalg.norm(B)))


def skew_canonical(xi: np.ndarray, scale: float | None = None):
    """Canonical form of a real skew matrix under orthogonal congruence.

    Parameters
    ----------
    xi
        Real m x m matrix with xi^T = -xi (within ``SKEW_RTOL`` relative).
    scale
        Noise scale: pair values at or below RANK_TOL_FACTOR * m * eps *
        scale are roundoff.  The default |xi|_2 is the ``svd_rank`` rule;
        a Gram of a family of 2-norm s carries roundoff near eps s^2.

    Returns
    -------
    O : ndarray
        Orthogonal matrix such that ``O @ xi @ O.T`` is block diagonal
        with 2x2 blocks [[0, a_i], [-a_i, 0]] followed by a zero block.
    pairs : list of float
        The values a_i > 0, sorted descending.

    The planes come from one eigh of the Hermitian matrix i xi, whose
    eigenvalues are +-a_i and zeros, so their magnitudes are the singular
    values of xi: those above the cutoff, halved, count the pairs (an odd
    count drops the straggler of a pair that straddles the cutoff).  An
    eigenvector z = x + iy of +a gives the plane sqrt(2) (y, x), with
    y^T xi x = a/2; the real and imaginary parts are orthonormal even
    when a repeats, since the conjugates belong to -a.  One complete QR,
    R's diagonal made positive, re-orthonormalises the planes and gives
    the kernel rows.  The value reported is the Rayleigh quotient
    u^T xi v of each plane (u, v).
    """
    xi = np.asarray(xi, dtype=float)
    m = xi.shape[0]
    if xi.shape != (m, m):
        raise ValueError("input must be square")
    nrm = np.linalg.norm(xi)
    if nrm == 0.0:
        return np.eye(m), []
    if algebra_residual("orthogonal", xi) > max(SKEW_RTOL * nrm, 1e-13):
        raise ValueError("input is not skew-symmetric within tolerance")

    w, Z = np.linalg.eigh(1j * xi)  # ascending, so +a_i lead from the end
    s = np.abs(w)
    cut = RANK_TOL_FACTOR * m * _EPS * (np.max(s) if scale is None else scale)
    k = 2 * (int(np.count_nonzero(s > cut)) // 2)
    Z = Z[:, ::-1][:, :k // 2]
    planes = np.sqrt(2.0) * np.stack([Z.imag, Z.real], axis=-1).reshape(m, k)
    Q, R = np.linalg.qr(planes, mode="complete")
    Q[:, :k] *= np.sign(np.diagonal(R))
    a = np.sum(Q[:, 0:k:2] * (xi @ Q[:, 1:k:2]), axis=0)
    # the Rayleigh quotients of a repeated value come out in any order
    order = np.argsort(-a, kind="stable")
    Q[:, :k] = Q[:, np.stack([2 * order, 2 * order + 1], axis=-1).ravel()]
    return Q.T, a[order].tolist()


def stream_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based RNG stream keyed by (seed, stream).

    Philox is used so that seeds are portable: the pair of 64-bit words
    (seed, stream) fully determines the output on any platform.
    """
    key = np.array([seed % (1 << 64), stream % (1 << 64)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def random_group_element(group: str, dim: int, seed: int, stream: int = 0) -> np.ndarray:
    """Pseudorandom element of U(dim), O(dim), Sp(dim,R) or GL(dim,R).

    Unitary and orthogonal elements come from QR orthonormalization of a
    Gaussian matrix with the usual phase fix.  Symplectic and general
    linear elements are Cayley transforms (I - X/2)^-1 (I + X/2) of a
    random algebra element X scaled to unit Frobenius norm: the Cayley
    map sends sp(2n) into Sp(2n) exactly, and |X/2| <= 1/2 bounds both
    |g| and |g^-1| by 3, so cond <= 9.  Deterministic in (seed, stream).
    """
    rng = stream_rng(seed, stream)
    if group in ("unitary", "orthogonal"):
        Z = rng.standard_normal((dim, dim))
        if group == "unitary":
            Z = Z + 1j * rng.standard_normal((dim, dim))
        Q, R = np.linalg.qr(Z)
        d = np.diagonal(R)  # d / |d| is exactly +-1.0 for real d
        return Q * (d / np.abs(d))
    if group == "symplectic":
        if dim % 2 != 0:
            raise ValueError("symplectic dimension must be even")
        n = dim // 2
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        C = rng.standard_normal((n, n))
        B = (B + B.T) / 2
        C = (C + C.T) / 2
        return _cayley(np.block([[A, B], [C, -A.T]]))
    if group == "general_linear":
        return _cayley(rng.standard_normal((dim, dim)))
    raise ValueError(f"unknown group tag: {group!r}")


def _cayley(xi: np.ndarray) -> np.ndarray:
    # (I - X/2)^-1 (I + X/2) with X = xi / |xi|_F; the two factors commute
    half = xi / (2.0 * np.linalg.norm(xi))
    eye = np.eye(xi.shape[0])
    return np.linalg.solve(eye - half, eye + half)


def _form(group: str, k: int):
    # the form F with g^H F g = F on k x k matrices: None for the
    # identity form of U and O, J for Sp
    if group not in ("unitary", "orthogonal", "symplectic"):
        raise ValueError(f"unknown group tag: {group!r}")
    return standard_J(k // 2) if group == "symplectic" else None


def group_residual(group: str, g: np.ndarray) -> float:
    """Defect of g from the defining identity of U, O, Sp or GL.

    ||g^H F g - F||_F for the form F that U, O or Sp preserves (see
    ``_form``); a general linear element preserves no form, and reads 0.0
    when it has full rank by ``rank_tol`` and 1.0 otherwise.
    """
    k = g.shape[0]
    if group == "general_linear":
        return 0.0 if rank_tol(g) == k else 1.0
    F = _form(group, k)
    gh = np.conj(g).T
    return float(np.linalg.norm(gh @ g - np.eye(k) if F is None else gh @ F @ g - F))


def algebra_residual(group: str, X: np.ndarray):
    """Defect ||X^H F + F X||_F of X from u(n), o(m) or sp(2n,R), the
    algebra of the group preserving F; 0.0 for gl(n,R), which has no
    defining identity.  A float for one matrix, an array for a stack."""
    X = np.asarray(X)
    if group == "general_linear":
        return _scalar(np.zeros(X.shape[:-2]))
    F = _form(group, X.shape[-1])
    Xh = np.conj(np.swapaxes(X, -1, -2))
    R = Xh + X if F is None else Xh @ F + F @ X
    return _scalar(np.linalg.norm(R, axis=(-2, -1)))


def require_member(group: str, g: np.ndarray):
    """Raise ValueError unless group_residual(group, g) <= 1e-6 max(1, |g|_F).

    A general linear element is left to its action, whose solve refuses
    an exactly singular one.
    """
    if group == "general_linear":
        return
    if group_residual(group, g) > 1e-6 * max(1.0, float(np.linalg.norm(g))):
        raise ValueError("matrix is not in the expected group")


def isometry_between(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Square isometry W (unitary or orthogonal) with W @ A close to B.

    Requires the two column families to have equal Gram matrices,
    A^dagger A = B^dagger B; that makes the map column_i(A) to
    column_i(B) an isometry of spans, which is extended to the whole
    space by mapping the complement of A's span onto that of B's.

    W is F U^dagger, from two factorizations.  The SVD A = U S V^dagger,
    with r counted by ``svd_rank``, gives A's frame U[:, :r] and the
    complement of its span U[:, r:].  The complete QR B V_r = F R, with
    V_r the leading r right singular vectors and R's diagonal made
    positive, gives B's frame F[:, :r] and complement F[:, r:].  Equal
    Gram matrices make the columns of B V_r orthogonal with norms s_i, so
    R is diag(s_1..s_r) to roundoff and W maps A V_r onto B V_r.  W is
    unitary to roundoff whatever the inputs, since F and U are.
    """
    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape != B.shape:
        raise ValueError("shape mismatch")
    n = A.shape[0]
    cplx = np.iscomplexobj(A) or np.iscomplexobj(B)
    dtype = complex if cplx else float
    A = A.astype(dtype)
    B = B.astype(dtype)
    if A.shape[1] == 0 or np.linalg.norm(A) == 0.0:
        if np.linalg.norm(B) != 0.0:
            raise ValueError("Gram matrices differ: one input is zero")
        return np.eye(n, dtype=dtype)

    # U is n x n: full when A is tall, and already square when it is not
    U, s, Vh = np.linalg.svd(A, full_matrices=A.shape[0] > A.shape[1])
    r = svd_rank(s, A.shape)
    F, R = np.linalg.qr(B @ np.conj(Vh[:r]).T, mode="complete")
    d = np.diagonal(R)
    d = np.where(np.abs(d) == 0, 1.0, d)
    F[:, :r] *= d / np.abs(d)  # force positive diagonal in R
    return F @ np.conj(U).T
