"""Dense matrix kernels shared by all three dual pairs.

Everything operates on plain numpy arrays (real float64 or complex128).
Conventions fixed here and relied on everywhere else:

* the standard symplectic matrix is J = [[0, I], [-I, 0]],
* rank decisions are SVD based with a relative threshold,
* the canonical form of a skew matrix puts +a in the upper right of
  each 2x2 block, blocks sorted by descending a.

scipy is imported on first use, by matrix_exp (expm) and
isometry_between (pivoted QR) only, so importing this module loads
numpy alone.  Among the commands, only suite, the unitary witness, the
symplectic right witness and the gen partners that draw a symplectic or
general linear group element ever load it; momentum, orbit, the other
witnesses and the rest of gen never do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    """Numeric policy knobs: residual bound and rank threshold factor."""

    eq_tol: float = 1e-9
    rank_tol_factor: float = 100.0

    def __post_init__(self):
        if self.eq_tol <= 0 or self.rank_tol_factor <= 0:
            raise ValueError("tolerances must be strictly positive")


DEFAULT_TOL = Tolerances()


def standard_J(n: int) -> np.ndarray:
    """Return the 2n x 2n block matrix [[0, I], [-I, 0]]."""
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


def rank_tol(M: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> int:
    """Numerical rank: singular values above factor * max(dim) * eps * s_max."""
    M = np.asarray(M)
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    if s[0] == 0.0:
        return 0
    cutoff = tol.rank_tol_factor * max(M.shape) * np.finfo(float).eps * s[0]
    return int(np.sum(s > cutoff))


def relative_diff(A: np.ndarray, B: np.ndarray) -> float:
    """||A - B||_F / max(1, ||B||_F), the residual used in all reports."""
    A = np.asarray(A)
    B = np.asarray(B)
    return float(np.linalg.norm(A - B) / max(1.0, np.linalg.norm(B)))


def skew_canonical(xi: np.ndarray, tol: Tolerances = DEFAULT_TOL):
    """Canonical form of a real skew matrix under orthogonal congruence.

    Parameters
    ----------
    xi
        Real m x m matrix with xi^T = -xi (within ``tol.eq_tol`` relative).
    tol
        Tolerance policy; the rank threshold decides which blocks count
        as zero.

    Returns
    -------
    O : ndarray
        Orthogonal matrix such that ``O @ xi @ O.T`` is block diagonal
        with 2x2 blocks [[0, a_i], [-a_i, 0]] followed by a zero block.
    pairs : list of float
        The values a_i > 0, sorted descending (ties keep first
        occurrence order).

    The computation runs through the symmetric eigenproblem of -xi^2,
    which avoids complex arithmetic and lets us pin the sign convention:
    for each unit eigenvector u with eigenvalue a^2 we take v = -xi u / a,
    so that u^T xi v = +a.
    """
    xi = np.asarray(xi, dtype=float)
    m = xi.shape[0]
    if xi.shape != (m, m):
        raise ValueError("input must be square")
    nrm = np.linalg.norm(xi)
    if nrm == 0.0:
        return np.eye(m), []
    if np.linalg.norm(xi + xi.T) > max(tol.eq_tol * nrm, 1e-13):
        raise ValueError("input is not skew-symmetric within tolerance")

    A = -xi @ xi  # symmetric PSD, eigenvalues a_i^2 in pairs plus zeros
    w, V = np.linalg.eigh(A)
    order = np.argsort(-w)  # descending
    w = w[order]
    V = V[:, order]

    smax = np.linalg.norm(xi, 2)
    cutoff = tol.rank_tol_factor * m * np.finfo(float).eps * smax
    npos = int(np.sum(w > cutoff * smax))
    if npos % 2 == 1:
        # a pair straddling the rank threshold; push the straggler into
        # the kernel together with its partner
        npos -= 1

    # Extract one (u, v) plane per pair.  The pivot is the positive-part
    # eigenvector with the largest residual against the planes already
    # taken, which is well conditioned even when eigenvalues collide;
    # v = -xi u / a completes the plane and pins the sign convention.
    triples = []
    chosen: list[np.ndarray] = []
    for _ in range(npos // 2):
        basis = V[:, :npos].copy()
        if chosen:
            C = np.column_stack(chosen)
            basis = basis - C @ (C.T @ basis)
        norms = np.linalg.norm(basis, axis=0)
        k = int(np.argmax(norms))
        a = float(np.sqrt(w[k]))
        u = basis[:, k] / norms[k]
        v = -(xi @ u) / a
        v = v - u * (u @ v)
        if chosen:
            C = np.column_stack(chosen)
            v = v - C @ (C.T @ v)
        v = v / np.linalg.norm(v)
        chosen.extend([u, v])
        triples.append((a, u, v))

    # stable sort by descending a keeps first-occurrence order on ties
    triples.sort(key=lambda t: -t[0])
    rows = []
    pairs = []
    for a, u, v in triples:
        rows.extend([u, v])
        pairs.append(a)

    # kernel block: remaining eigenvectors, re-orthogonalized against the
    # chosen rows to keep O orthogonal to machine precision
    for k in range(npos, m):
        u = V[:, k]
        if rows:
            R = np.column_stack(rows)
            u = u - R @ (R.T @ u)
        nu = np.linalg.norm(u)
        if nu < 0.5:
            # eigh basis overlapped a chosen plane; fall back to the
            # first standard direction clear of everything selected
            R = np.column_stack(rows)
            for e in np.eye(m):
                u = e - R @ (R.T @ e)
                nu = np.linalg.norm(u)
                if nu > 0.5:
                    break
        rows.append(u / nu)

    O = np.array(rows)
    return O, pairs


def block_diag_skew(pairs, m: int) -> np.ndarray:
    """Assemble blockdiag([[0,a],[-a,0]], ..., 0) of size m from pair values."""
    B = np.zeros((m, m))
    for i, a in enumerate(pairs):
        B[2 * i, 2 * i + 1] = a
        B[2 * i + 1, 2 * i] = -a
    return B


def matrix_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential (scaling and squaring, delegated to scipy)."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("input must be square")
    import scipy.linalg
    return scipy.linalg.expm(a)


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
    Gaussian matrix with the usual phase fix; symplectic and general
    linear elements are matrix exponentials of a random algebra element
    scaled to unit Frobenius norm.  Deterministic in (seed, stream).
    """
    rng = stream_rng(seed, stream)
    if group == "unitary":
        Z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        Q, R = np.linalg.qr(Z)
        d = np.diagonal(R)
        return Q * (d / np.abs(d))
    if group == "orthogonal":
        Z = rng.standard_normal((dim, dim))
        Q, R = np.linalg.qr(Z)
        return Q * np.sign(np.diagonal(R))
    if group == "symplectic":
        if dim % 2 != 0:
            raise ValueError("symplectic dimension must be even")
        n = dim // 2
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        C = rng.standard_normal((n, n))
        B = (B + B.T) / 2
        C = (C + C.T) / 2
        xi = np.block([[A, B], [C, -A.T]])
        return matrix_exp(xi / np.linalg.norm(xi))
    if group == "general_linear":
        xi = rng.standard_normal((dim, dim))
        return matrix_exp(xi / np.linalg.norm(xi))
    raise ValueError(f"unknown group tag: {group!r}")


def orthonormal_complement(Q: np.ndarray, total: int | None = None) -> np.ndarray:
    """Deterministic orthonormal basis of the complement of the columns of Q.

    Standard basis vectors are scanned in index order and kept whenever
    their residual against the span built so far is not negligible.  Both
    real and complex inputs are supported; the result has the same dtype.
    """
    n = Q.shape[0]
    if total is None:
        total = n - Q.shape[1]
    cols = [Q[:, k] for k in range(Q.shape[1])]
    out = []
    e = np.eye(n, dtype=Q.dtype)
    for i in range(n):
        if len(out) == total:
            break
        v = e[:, i].copy()
        for c in cols:
            v = v - c * (np.conj(c) @ v)
        # second pass stabilizes near-dependent candidates
        for c in cols:
            v = v - c * (np.conj(c) @ v)
        nv = np.linalg.norm(v)
        if nv > 1e-8:
            v = v / nv
            cols.append(v)
            out.append(v)
    if len(out) != total:
        raise ValueError("failed to complete orthonormal basis")
    if out:
        return np.column_stack(out)
    return np.zeros((n, 0), dtype=Q.dtype)


def isometry_between(A: np.ndarray, B: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Square isometry W (unitary or orthogonal) with W @ A close to B.

    Requires the two column families to have equal Gram matrices,
    A^dagger A = B^dagger B; that makes the map column_i(A) to
    column_i(B) an isometry of spans, which is extended to the whole
    space by matching deterministic complement bases.

    The column selection is pivoted QR on A, ties resolved by the lowest
    column index (the LAPACK rule), and the same pivot set is reused on
    B so the two thin factors line up.
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

    import scipy.linalg
    Rfull, piv = scipy.linalg.qr(A, mode="r", pivoting=True)
    diag = np.abs(np.diagonal(Rfull))
    cutoff = tol.rank_tol_factor * max(A.shape) * np.finfo(float).eps * diag[0]
    r = int(np.sum(diag > cutoff))
    sel = piv[:r]

    def thin_q(M):
        Q, R = np.linalg.qr(M[:, sel])
        d = np.diagonal(R).copy()
        d = np.where(np.abs(d) == 0, 1.0, d)
        return Q * (d / np.abs(d))  # force positive diagonal in R

    QA = thin_q(A)
    QB = thin_q(B)
    NA = orthonormal_complement(QA)
    NB = orthonormal_complement(QB)
    W = np.column_stack([QB, NB]) @ np.conj(np.column_stack([QA, NA])).T
    return W
