"""The commuting GL(n,R) x GL(m,R) actions on pairs (Q, P) of n x m
matrices, with momentum maps

    left  (Q, P) -> Q P^T    in gl(n,R),
    right (Q, P) -> P^T Q    in gl(m,R)

for the pairing <a, b> = Tr(a b).  A acts on the left by
(A Q, A^-T P), B on the right by (Q B, P B^-T); both leave the opposite
momentum fixed.

The orbit bookkeeping is by real Jordan type: an orbit of full-rank
pairs is labelled by nonzero eigenvalue blocks (lambda, c) together
with nilpotent sizes d >= 2, subject to sum c + sum (d - 1) = m and at
most n - m nilpotent blocks.  ``build_qp_from_jordan`` realizes a label
as a sparse (Q, P), ``jordan_structure`` recovers the label from either
momentum value, and ``jordan_correspond`` emits the matched pair of
canonical values.  Labels come from one pass: exact integer ranks of
g(B)^k, taken one diagonal block B at a time for a Gaussian-integer
candidate's g or, in a block whose spectrum leaves Z[i], for each
irreducible factor g of its characteristic polynomial, or clustered
float eigenvalues give a nullity chain per eigenvalue, and ``_label``
turns the chains into ``JordanData``, whose checks are the only ones a
label passes.  The blocks and the clusters are both
``_components`` of a graph.  The module is the general linear record
of ``pairs.PAIRS``.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass

import numpy as np

from .jsonio import matrix_from_obj, matrix_to_obj
from .linalg import column_frames, rank_tol, relative_diff, stream_rng, svd_rank
from .pairs import OrbitReport, WitnessReport, require_level_match as _require_level_match

GROUP = {"left": "general_linear", "right": "general_linear"}


@dataclass(frozen=True)
class CotangentPoint:
    """A configuration-momentum pair of real n x m matrices."""

    Q: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.Q) or np.iscomplexobj(self.P):
            raise ValueError("Q and P must be real matrices")
        Q = np.asarray(self.Q, dtype=float)
        P = np.asarray(self.P, dtype=float)
        if Q.ndim != 2 or Q.shape != P.shape:
            raise ValueError("Q and P must be matrices of equal shape")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "P", P)

    @property
    def shape(self) -> tuple:
        """(n, m): GL(n) acts on the rows of Q and P, GL(m) on the columns."""
        return self.Q.shape


def check_dims(n: int, m: int):
    if m > n:
        raise ValueError("the general linear pair needs m <= n")


def check_point(pt, n: int, m: int) -> CotangentPoint:
    if not (hasattr(pt, "Q") and hasattr(pt, "P")):
        raise ValueError("general_linear point must carry Q and P")
    if pt.Q.shape != (n, m) or pt.P.shape != (n, m):
        raise ValueError("Q and P must both be n x m")
    check_dims(n, m)
    return pt


def random_point(n: int, m: int, rng) -> CotangentPoint:
    return CotangentPoint(rng.standard_normal((n, m)), rng.standard_normal((n, m)))


def point_to_obj(pt: CotangentPoint) -> dict:
    return {"Q": matrix_to_obj(pt.Q), "P": matrix_to_obj(pt.P)}


def point_from_obj(obj: dict) -> CotangentPoint:
    return CotangentPoint(matrix_from_obj(obj["Q"]), matrix_from_obj(obj["P"]))


def infinitesimal_left(xi: np.ndarray, pt: CotangentPoint) -> tuple:
    """The tangent (xi Q, -xi^T P); a stack of xi gives stacked parts."""
    return xi @ pt.Q, -np.swapaxes(xi, -1, -2) @ pt.P


def infinitesimal_right(pt: CotangentPoint, xi: np.ndarray) -> tuple:
    """The tangent (Q xi, -P xi^T)."""
    return pt.Q @ xi, -pt.P @ np.swapaxes(xi, -1, -2)


def to_real(x) -> np.ndarray:
    """The real model [Q; P] of a point, or [dQ; dP] of a tangent
    (dQ, dP) or a stack of tangents."""
    q, p = (x.Q, x.P) if isinstance(x, CotangentPoint) else x
    return np.concatenate([q, p], axis=-2)


def from_real(r: np.ndarray) -> CotangentPoint:
    """The point of real model r = [Q; P]."""
    return CotangentPoint(*np.split(r, 2))


def tangent_scales(pt: CotangentPoint) -> dict:
    """The scales of ``pairs.tangent_singular_values`` by side, from one
    stacked SVD of Q and P: (sigma(P), sigma(Q)) on the left and
    (sigma(Q), sigma(P)) on the right.

    With Q = U_Q S_Q V_Q^T and P = U_P S_P V_P^T, the left tangent
    (xi Q, -xi^T P) becomes (xi' S_Q, -xi'^T S_P) for
    xi' = U_P^T xi U_Q, so the unit xi'_pq moves one entry of each half,
    with weights sigma_p(P) and sigma_q(Q).  On the right,
    xi' = V_Q^T xi V_P gives (S_Q xi', -S_P xi'^T), with weights
    sigma_p(Q) and sigma_q(P).
    """
    s_q, s_p = np.linalg.svd(np.stack([pt.Q, pt.P]), compute_uv=False)
    return {"left": (s_p, s_q), "right": (s_q, s_p)}


def act_left(A: np.ndarray, pt: CotangentPoint) -> CotangentPoint:
    A = np.asarray(A, dtype=float)
    return CotangentPoint(A @ pt.Q, np.linalg.solve(A.T, pt.P))


def act_right(pt: CotangentPoint, B: np.ndarray) -> CotangentPoint:
    B = np.asarray(B, dtype=float)
    return CotangentPoint(pt.Q @ B, np.linalg.solve(B, pt.P.T).T)


def momentum_left(pt: CotangentPoint) -> np.ndarray:
    return pt.Q @ pt.P.T


def momentum_right(pt: CotangentPoint) -> np.ndarray:
    return pt.P.T @ pt.Q


# ---------------------------------------------------------------------------
# witnesses

def witness_right(pt: CotangentPoint, pt_prime: CotangentPoint) -> WitnessReport:
    """B with (Q B, P B^-T) close to (Q', P'), given equal left momenta.

    B is the least-squares solution of Q B = Q', V S^-1 U^T Q' from the
    thin SVD Q = U S V^T.  That one SVD is also Q's rank check and gives
    the reported cond, s_max / s_min of Q.  For genuinely related points
    B is invertible and also transports P; both residuals are reported.
    """
    (U, *_), (s, *_), (Vh, *_) = column_frames("witness_right", ("Q", pt.Q))
    column_frames("witness_right", ("P", pt.P), ("Q'", pt_prime.Q), ("P'", pt_prime.P),
                  uv=False)
    _require_level_match(momentum_left(pt), momentum_left(pt_prime), "left")
    B = Vh.T @ ((U.T @ pt_prime.Q) / s[:, None])
    res_q = relative_diff(pt.Q @ B, pt_prime.Q)
    try:
        res_p = relative_diff(np.linalg.solve(B, pt.P.T).T, pt_prime.P)
    except np.linalg.LinAlgError:
        res_p = np.inf
    cond = float(s[0] / s[-1]) if s.size else 1.0
    return WitnessReport(B, max(res_q, res_p), "right", cond=cond)


def _common_complement(B1: np.ndarray, B2: np.ndarray) -> np.ndarray:
    """Orthonormal X completing both orthonormal n x m bases B1 and B2.

    The SVD B1^T B2 = U_y S V_z^T gives the principal vectors B1 U_y and
    B2 V_z of the two spans (Bjorck & Golub 1973), paired at angles of at
    most 90 degrees.  Their sums are orthogonal and span the bisector
    subspace, and X is the orthogonal complement of that subspace, the
    last n - m columns of the complete QR of B1 U_y + B2 V_z.  Every
    principal vector lies within 45 degrees of the bisectors, so no unit
    vector of either span has a component longer than sin 45 degrees in
    span X, and cond([B1 X]) and cond([B2 X]) are at most 1 + sqrt 2.
    """
    m = B1.shape[1]
    Uy, _, Vzh = np.linalg.svd(B1.T @ B2)
    return np.linalg.qr(B1 @ Uy + B2 @ Vzh.T, mode="complete")[0][:, m:]


def witness_left(pt: CotangentPoint, pt_prime: CotangentPoint) -> WitnessReport:
    """A with (A Q, A^-T P) close to (Q', P'), given equal right momenta.

    Construction: pick one completion Y valid for both P and P', so
    C^T = [P Y][P' Y]^-1 satisfies C^T P' = P and fixes Y.  Any X
    completing both Q and C^-1 Q' then yields A = [Q' CX][Q X]^-1,
    which maps Q to Q' and, because P'^T C X = P^T X, transports P as
    well.  A depends only on the spans of Y and X.  The report's cond
    field is the larger condition number of the two completed matrices
    that get inverted.

    Y and X are ``_common_complement``s of the orthonormal bases of the
    two spans they complete, so [B Y] and [B X] have cond at most
    1 + sqrt 2 for every orthonormal basis B involved.  Each of Q, P,
    P' and C^-1 Q' gets one thin SVD, which is both its rank check and
    the source of its basis (Q' needs only the check), and the
    first four share one stacked call.
    """
    who = "witness_left"
    Q, P = pt.Q, pt.P
    Q2, P2 = pt_prime.Q, pt_prime.P
    n, m = Q.shape
    tall = m < n  # a square Q needs no complements, hence no bases
    U = column_frames(who, ("Q", Q), ("P", P), ("Q'", Q2), ("P'", P2), uv=tall)[0]
    _require_level_match(momentum_right(pt), momentum_right(pt_prime), "right")
    Y = _common_complement(U[1], U[3]) if tall else np.zeros((n, 0))
    P2Y = np.column_stack([P2, Y])
    C = (np.column_stack([P, Y]) @ np.linalg.inv(P2Y)).T
    CQ2 = np.linalg.solve(C, Q2)
    UC = column_frames(who, ("C^-1 Q'", CQ2), uv=tall)[0]
    X = _common_complement(U[0], UC[0]) if tall else Y
    QX = np.column_stack([Q, X])
    A = np.column_stack([Q2, C @ X]) @ np.linalg.inv(QX)
    res_q = relative_diff(A @ Q, Q2)
    res_p = relative_diff(np.linalg.solve(A.T, P), P2)
    s = np.linalg.svd(np.stack([QX, P2Y]), compute_uv=False)
    cond = float(np.max(s[:, 0] / s[:, -1]))
    return WitnessReport(A, max(res_q, res_p), "left", cond=cond)


# ---------------------------------------------------------------------------
# momentum images

def _integral(value: np.ndarray):
    """value as integer rows when every entry is a finite whole number,
    else None; such input gets exact ranks and labels."""
    rounded = np.round(value)
    if not (np.array_equal(rounded, value) and np.all(np.isfinite(value))):
        return None
    return [[int(x) for x in row] for row in rounded]


def _rank(value: np.ndarray) -> int:
    """Exact rank of integral input (Bareiss), ``rank_tol`` otherwise."""
    M_int = _integral(value)
    return rank_tol(value) if M_int is None else _bareiss_rank(M_int)


def in_image_left(zeta: np.ndarray, m: int) -> bool:
    """Whether an n x n value is the left momentum of a full-rank pair:
    the rank must be exactly m."""
    zeta = np.asarray(zeta, dtype=float)
    if zeta.ndim != 2 or zeta.shape[0] != zeta.shape[1]:
        raise ValueError("expected a square matrix")
    if not 0 <= m <= zeta.shape[0]:
        raise ValueError("m out of range")
    return _rank(zeta) == m


def in_image_right(xi: np.ndarray, n: int) -> bool:
    """Whether an m x m value is the right momentum of a full-rank pair
    with n rows: the rank can drop at most n - m below full."""
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 2 or xi.shape[0] != xi.shape[1]:
        raise ValueError("expected a square matrix")
    m = xi.shape[0]
    if n < m:
        raise ValueError("ambient row count must be at least m")
    return _rank(xi) >= 2 * m - n


# ---------------------------------------------------------------------------
# Jordan-type orbit labels

@dataclass(frozen=True)
class JordanData:
    """Orbit label: eigenvalue blocks plus nilpotent sizes.

    blocks lists (lambda, c) with lambda nonzero, Im lambda >= 0, and c
    the real block size (even when lambda is strictly complex).
    nilpotent lists sizes d >= 2.  Constraints: the column budget
    sum c + sum (d - 1) = m, and at most n - m nilpotent entries.
    Stored sorted (blocks by size descending then by eigenvalue,
    nilpotent descending) so equal labels compare equal.
    """

    blocks: tuple
    nilpotent: tuple
    n: int
    m: int

    def __post_init__(self):
        blocks = tuple(
            (complex(complex(lam).real + 0.0, complex(lam).imag + 0.0), int(c))
            for lam, c in self.blocks
        )
        blocks = tuple(sorted(blocks, key=lambda bc: (-bc[1], bc[0].real, bc[0].imag)))
        nil = tuple(sorted((int(d) for d in self.nilpotent), reverse=True))
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "nilpotent", nil)
        if not 0 <= self.m <= self.n:
            raise ValueError("need 0 <= m <= n")
        for lam, c in blocks:
            if lam == 0:
                raise ValueError("eigenvalue blocks must be nonzero")
            if lam.imag < 0:
                raise ValueError("use the representative with Im lambda >= 0")
            if lam.imag > 0 and c % 2 != 0:
                raise ValueError("complex eigenvalues need even real size")
            if c < 1:
                raise ValueError("block size must be positive")
        for d in nil:
            if d < 2:
                raise ValueError("nilpotent sizes must be at least 2")
        budget = sum(c for _, c in blocks) + sum(d - 1 for d in nil)
        if budget != self.m:
            raise ValueError(f"block sizes fill {budget} columns, expected {self.m}")
        if len(nil) > self.n - self.m:
            raise ValueError(f"{len(nil)} nilpotent blocks exceed the limit "
                             f"n - m = {self.n - self.m}")

    def to_obj(self) -> dict:
        return {
            "blocks": [[lam.real, lam.imag, c] for lam, c in self.blocks],
            "nilpotent": list(self.nilpotent),
            "n": self.n,
            "m": self.m,
        }


def _real_jordan_block(lam: complex, c: int) -> np.ndarray:
    """Real Jordan cell: for real lambda the usual upper block; for
    a + bi the 2 x 2 rotation-scaling cells [[a, b], [-b, a]] on the
    diagonal with identity cells above."""
    a, b = lam.real, lam.imag
    B = np.zeros((c, c))
    np.fill_diagonal(B, a)
    i = np.arange(c)
    step = 2 if b else 1  # the superdiagonal of ones, or of identity cells
    B[i[:-step], i[step:]] = 1.0
    if b:
        B[i[::2], i[1::2]] = b
        B[i[1::2], i[::2]] = -b
    return B


def build_qp_from_jordan(jd: JordanData) -> CotangentPoint:
    """Sparse full-rank realization of an orbit label.

    Q stacks the real Jordan cells, then for each nilpotent size d a
    d x (d-1) identity-on-top column group, then zero rows; P stacks
    identities, identity-on-bottom groups and zero rows.  The momenta
    come out block diagonal: Q P^T has the cells, the size-d upper
    nilpotent blocks and zeros; P^T Q has the cells and size-(d-1)
    blocks.
    """
    n, m = jd.n, jd.m
    Q = np.zeros((n, m))
    P = np.zeros((n, m))
    row = col = 0
    for lam, c in jd.blocks:
        Q[row:row + c, col:col + c] = _real_jordan_block(lam, c)
        P[row:row + c, col:col + c] = np.eye(c)
        row += c
        col += c
    for d in jd.nilpotent:
        Q[row:row + d - 1, col:col + d - 1] = np.eye(d - 1)
        P[row + 1:row + d, col:col + d - 1] = np.eye(d - 1)
        row += d
        col += d - 1
    return CotangentPoint(Q, P)


def jordan_correspond(jd: JordanData):
    """The matched canonical momentum values (left n x n, right m x m)."""
    pt = build_qp_from_jordan(jd)
    return momentum_left(pt), momentum_right(pt)


def orbit(pt: CotangentPoint) -> OrbitReport:
    """The Jordan data of the left momentum label both orbits (the right
    form drops one from each nilpotent block size); only full-rank
    points have a label.  A full-rank point's left momentum has rank m
    exactly, so a label of any other rank is refused: it can only come
    from a momentum whose rounding changed its rank."""
    column_frames("orbit labelling", ("Q", pt.Q), ("P", pt.P), uv=False)
    jd = jordan_structure(momentum_left(pt), side="left")
    if jd.m != pt.shape[1]:
        raise ValueError(f"orbit labelling: the left momentum Q P^T has rank {jd.m}, "
                         f"not m = {pt.shape[1]}; rounding in Q P^T changed its rank")
    return OrbitReport(jd, jd, jd.to_obj(), *jordan_correspond(jd))


def _random_jordan(n: int, m: int, rng) -> JordanData:
    t_max = min(m, n - m)
    t = int(rng.integers(0, t_max + 1))
    budget = m - t
    palette = [1.0, -1.0, 2.0, -2.0, 3.0]
    blocks = []
    while budget > 0:
        if budget >= 2 and rng.random() < 0.3:
            lam = complex(palette[int(rng.integers(0, len(palette)))], 1.0)
            c = 2
        else:
            c = int(rng.integers(1, budget + 1))
            lam = complex(palette[int(rng.integers(0, len(palette)))], 0.0)
        blocks.append((lam, c))
        budget -= c
    return JordanData(tuple(blocks), (2,) * t, n, m)


def _random_unimodular(n: int, rng) -> tuple:
    """An integer A with det 1 and its exact inverse: each row step
    A <- (I + c e_i e_j^T) A is undone by the column step
    A_inv <- A_inv (I - c e_i e_j^T)."""
    A = np.eye(n)
    A_inv = np.eye(n)
    if n >= 2:
        for _ in range(3):
            i = int(rng.integers(0, n))
            j = int(rng.integers(0, n - 1))
            if j >= i:
                j += 1
            c = int(rng.integers(-2, 3))
            A[i, :] += c * A[j, :]
            A_inv[:, j] -= c * A_inv[:, i]
    return A, A_inv


def normal_form_partners(n: int, m: int, seed: int) -> tuple:
    """Two points on one orbit: the realization of a seeded Jordan label
    moved by two seeded integer unimodular matrices A, each with its
    exact inverse, so both stay integral and share P^T Q exactly."""
    rng = stream_rng(seed, 2)
    pt = build_qp_from_jordan(_random_jordan(n, m, rng))
    moves = [_random_unimodular(n, rng) for _ in range(2)]
    return tuple(CotangentPoint(A @ pt.Q, A_inv.T @ pt.P) for A, A_inv in moves)


def _chain_to_counts(nullities):
    """Jordan block counts from a nullity chain nu_1 <= nu_2 <= ...

    The count of size-s blocks is 2 nu_s - nu_(s-1) - nu_(s+1), with
    nu_0 = 0 and the chain continued as constant past its end.  A chain
    that is not concave gives a negative count.
    """
    nu = [0, *nullities, *nullities[-1:]]
    return {s: c for s in range(1, len(nu) - 1)
            if (c := 2 * nu[s] - nu[s - 1] - nu[s + 1])}


def _label(chains, side: str, n: int, m) -> JordanData:
    """The label of (lambda, nullity chain) pairs, one per eigenvalue
    with Im lambda >= 0.

    A zero eigenvalue gives nilpotent sizes: size-s blocks of the left
    value are sizes s >= 2 (size-1 blocks are the kernel), those of the
    right value are sizes s + 1.  A real eigenvalue gives (lambda, s)
    and a strictly complex one (lambda, 2 s).  A chain that is not
    concave, and blocks that break ``JordanData``'s column budget or
    nilpotent limit, raise ValueError.  m = None on the left side
    stands for the exact rank n - nu_1(0) of the labelled value, read off
    the chains (n when 0 is not among them).
    """
    if m is None:
        m = n - next((nullities[0] for lam, nullities in chains if lam == 0), 0)
    blocks, nilpotent = [], []
    for lam, nullities in chains:
        counts = _chain_to_counts(nullities)
        if min(counts.values(), default=0) < 0:
            raise ValueError(f"the nullity chain at {lam} is not concave")
        for s, cnt in counts.items():
            if lam != 0:
                blocks += [(lam, s if lam.imag == 0 else 2 * s)] * cnt
            elif side == "right" or s >= 2:
                nilpotent += [s + (side == "right")] * cnt
    return JordanData(tuple(blocks), tuple(nilpotent), n, m)


def _int_matmul(A, B):
    """Exact product of integer matrices (lists of rows): numpy's object
    matmul, in Python ints, which do not overflow."""
    return (np.array(A, dtype=object) @ np.array(B, dtype=object)).tolist()


def _bareiss_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free elimination (Bareiss
    1968, Math. Comp. 22).  Each step divides exactly by the previous
    pivot, so every entry stays an integer minor of the input."""
    rows = [list(r) for r in rows]
    rank, prev = 0, 1
    while rows and rows[0]:
        nonzero = [i for i, r in enumerate(rows) if r[0]]
        if not nonzero:
            rows = [r[1:] for r in rows]
            continue
        top = rows.pop(min(nonzero, key=lambda i: abs(rows[i][0])))
        p, rest = top[0], top[1:]
        rows = [r[1:] if not r[0] and p == prev
                else [(p * x - r[0] * y) // prev for x, y in zip(r[1:], rest)]
                for r in rows]
        prev = p
        rank += 1
    return rank


def _nullity_chain(A, nullity, matmul, cap):
    """Nullities of A, A^2, ... up to the first that does not grow past
    the one before it, which is left out, or that reaches cap, the
    algebraic multiplicity or a bound on it."""
    nullities = []
    power = A
    while True:
        nu = nullity(power)
        if nullities and nu <= nullities[-1]:
            return nullities
        nullities.append(nu)
        if nu >= cap:
            return nullities
        power = matmul(power, A)


def _components(linked) -> list:
    """The connected components of the graph that joins i and j wherever
    linked[i][j] is nonzero, each as its ascending vertex indices, listed
    by their first vertex: union-find, with each component's least
    vertex as its root."""
    root = list(range(len(linked)))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for i, j in zip(*np.nonzero(linked)):
        low, high = sorted((find(i), find(j)))
        root[high] = low
    roots = [find(v) for v in range(len(root))]
    return [[v for v, r in enumerate(roots) if r == first] for first in sorted(set(roots))]


def _chain(B, g, cap):
    """The nullities of g(B), g(B)^2, ..., each divided by deg g, up to
    cap (``_nullity_chain``), for an integral block B and a monic integer
    polynomial g, given by its coefficients, leading first.  g(B) is
    formed by Horner's rule in Python ints and each power is ranked by
    Bareiss.  When every root of g has the same Jordan blocks in B, each
    nullity is deg g times that of one root, so the quotients are each
    root's chain.  That holds for the roots a +- bi of (x - a)^2 + b^2,
    which are conjugate, and for the roots of a factor irreducible over
    Q, which are conjugate over Q: conjugation maps (B - rho I)^k to
    (B - rho' I)^k and keeps its rank."""
    k, d = len(B), len(g) - 1
    A = [[x + g[1] * (i == j) for j, x in enumerate(row)] for i, row in enumerate(B)]
    for c in g[2:]:
        A = [[x + c * (i == j) for j, x in enumerate(row)]
             for i, row in enumerate(_int_matmul(A, B))]
    return _nullity_chain(A, lambda P: (k - _bareiss_rank(P)) // d, _int_matmul, cap)


def _factor_chains(B, eigs) -> dict:
    """The nullity chain of each eigenvalue lambda (Im lambda >= 0) of an
    integral block B, keyed by (Re lambda, Im lambda), from the factors
    of its characteristic polynomial over Q (sympy, imported only here).

    Each irreducible factor g of multiplicity mu gives one ``_chain``,
    capped at mu, which all of g's roots share.  mpmath's ``polyroots``
    refines g's roots to 30 digits, with as many extra working bits as
    g's largest coefficient has.  It starts from B's float eigenvalues
    eigs, those where |g| is least first, and lists the real roots
    first; Sturm sequences count them exactly (``Poly.count_roots``).
    Raises ValueError when the roots do not converge.
    """
    import mpmath
    import sympy

    chains = {}
    for g, mu in sympy.Matrix(B).charpoly().factor_list()[1]:
        coeffs = [int(c) for c in g.all_coeffs()]
        start = sorted(eigs, key=lambda z: abs(mpmath.polyval(coeffs, z)))
        try:
            with mpmath.workdps(30):
                roots = mpmath.polyroots(coeffs, extraprec=max(map(abs, coeffs)).bit_length(),
                                         roots_init=start)
        except mpmath.libmp.NoConvergence:
            raise ValueError("exact Jordan label: the eigenvalues do not converge") from None
        nullities, real = _chain(B, coeffs, mu), g.count_roots()
        lams = [complex(z.real if i < real else z) for i, z in enumerate(roots)]
        chains.update(((lam.real, lam.imag), nullities) for lam in lams if lam.imag >= 0)
    return chains


def _structure_exact(M_int, side: str, n: int, m) -> JordanData:
    """Exact label of an integral matrix, in integer arithmetic, one
    diagonal block at a time.

    The ``_components`` of M's nonzero pattern are the diagonal blocks B
    of a symmetric permutation of M.  Each power of g(M) is block
    diagonal in the same permutation, so its nullity is the sum of the
    blocks'; identical blocks are labelled once and counted by their
    multiplicity.  The characteristic polynomial of an integral block is
    monic with integer coefficients, so each of its roots in Q(i) is a
    Gaussian integer a + bi.  The candidates are B's float eigenvalues
    rounded to Z[i], and each gets the ``_chain`` of x - a or, for b > 0,
    of (x - a)^2 + b^2, run until it stops growing or fills the room the
    chains before it left.

    No nullity exceeds its algebraic multiplicity, so final nullities
    that, each counted deg g times, fill a block certify that its every
    chain reached its multiplicity and that none of its eigenvalues was
    missed, and a chain that fills the room the others left has reached
    its multiplicity.  A block they leave unfilled has a spectrum outside
    Z[i] (as [[0, 2], [1, 0]] has), and ``_factor_chains`` gives its
    chains instead.  Each eigenvalue's chain is the sum of its blocks',
    each continued as constant past its end, cut where it stops growing.
    """
    blocks = collections.Counter(tuple(tuple(M_int[i][j] for j in idx) for i in idx)
                                 for idx in _components(M_int))
    chains = {}
    for B, mult in blocks.items():
        found, room = {}, len(B)
        eigs = np.linalg.eigvals(np.array(B, dtype=float))
        for a, b in {(int(round(z.real)), abs(int(round(z.imag)))) for z in eigs}:
            g = (1, -2 * a, a * a + b * b) if b else (1, -a)
            found[a, b] = _chain(B, g, room // (len(g) - 1))
            room -= (len(g) - 1) * found[a, b][-1]
        for key, nullities in (_factor_chains(B, eigs) if room else found).items():
            chains[key] = [x + mult * nullities[min(s, len(nullities) - 1)]
                           for s, x in enumerate(chains.get(key, [0] * len(M_int)))]
    return _label([(complex(*key), nu[:nu.index(nu[-1]) + 1])
                   for key, nu in sorted(chains.items())], side, n, m)


def _cluster_eigenvalues(eigs, delta):
    """Single-linkage clusters of points in the complex plane: the
    ``_components`` of the graph joining points at most delta apart,
    each in (real, imag) order and listed by its first point."""
    z = np.asarray(eigs)  # no complex cast: numpy sums complex means in another order
    z = z[np.lexsort((z.imag, z.real))]
    return [list(z[idx]) for idx in _components(np.abs(z[:, None] - z[None, :]) <= delta)]


def _power_nullity():
    """The nullity of each of the successive powers A, A^2, ... of one
    float matrix A, passed in that order, by the ``svd_rank`` rule
    against ||A||_2^k instead of the power's own largest singular value.
    Past a nilpotent block's index the power is roundoff of about
    eps ||A||_2^k, which its own scale would read as full rank and so
    stop the chain short.  ||A||_2 is the first power's largest singular
    value, so no factorization is added."""
    scales = []

    def nullity(power):
        s = np.linalg.svd(power, compute_uv=False)
        # Python floats: a scale past the float range is inf, not a warning
        scales.append(scales[-1] * scales[0] if scales else float(s[0]))
        return len(power) - svd_rank(s, power.shape, scales[-1])
    return nullity


class AmbiguousStructureError(ValueError):
    """Float data whose Jordan structure cannot be read off reliably.

    centers are the eigenvalue cluster centres, gaps[i] the distance
    from centers[i] to the nearest other centre (inf when alone), and
    chains maps each centre that was ranked (one of each conjugate
    pair) to its nullity chain; it is empty when the refusal came
    before any ranking.
    """

    def __init__(self, message: str, centers, gaps, chains):
        super().__init__(message)
        self.centers = tuple(centers)
        self.gaps = tuple(gaps)
        self.chains = dict(chains)


def _structure_float(M, side: str, n: int, m: int) -> JordanData:
    """Best-effort structure from floating-point data.

    Eigenvalues joined by a path of steps at most 1e-6 long (relative to
    the spectral radius) are treated as one, clusters closer than 1e-3
    raise, and anything wider counts as distinct.  This resolves spectra
    separated beyond the eigensolver's backward error; defective blocks
    deeper than size 4 carried by noisy data can scatter past the guard
    band and should be supplied as exact integral matrices instead.  Each
    power of M - lambda I is ranked against the base's norm
    (``_power_nullity``), and the chains go to the same ``_label`` as
    exact input; whatever it refuses (a chain that is not concave, blocks
    that do not fill the m columns, more than n - m nilpotent blocks) is
    raised as AmbiguousStructureError instead of being turned into a
    label.
    """
    size = M.shape[0]
    eigs = np.linalg.eigvals(M)
    scale = max(1.0, float(np.abs(eigs).max()) if size else 1.0)
    delta = 1e-6 * scale
    clusters = _cluster_eigenvalues(eigs, delta)
    centers = [complex(np.mean(cl)) for cl in clusters]
    gaps = [min((abs(c - d) for d in centers if d is not c), default=np.inf)
            for c in centers]
    chains = {}

    def refuse(message):
        shown = ", ".join(f"{c:.6g} (gap {g:.2e}, chain {chains.get(c, [])})"
                          for c, g in zip(centers, gaps))
        raise AmbiguousStructureError(
            f"{message}; eigenvalue centres: {shown}; provide exact integer "
            "data or a better-conditioned value", centers, gaps, chains)

    if min(gaps, default=np.inf) < 1e-3 * scale:
        refuse(f"eigenvalue clusters {min(gaps):.2e} apart cannot be "
               "separated reliably")
    snapped = []
    for cl, raw in zip(clusters, centers):
        center = (0j if abs(raw) <= delta
                  else complex(raw.real, 0.0) if abs(raw.imag) <= delta else raw)
        if center.imag < 0:
            continue  # handled through the conjugate cluster
        chains[raw] = _nullity_chain(M - center * np.eye(size), _power_nullity(),
                                     np.matmul, len(cl))
        snapped.append((center, chains[raw]))
    try:
        return _label(snapped, side, n, m)
    except ValueError as err:
        refuse(str(err))


def jordan_structure(value: np.ndarray, side: str, n: int = None) -> JordanData:
    """Recover the orbit label from a momentum value.

    side="left" takes the n x n value (m is its rank); side="right"
    takes the m x m value and needs the ambient row count n.  Exactly
    integral input is analyzed in exact integer arithmetic, one diagonal
    block of its nonzero pattern at a time: a block's chains are
    certified when the algebraic multiplicities found at its
    Gaussian-integer candidates fill it, and a block whose spectrum
    leaves Z[i] takes its chains from the factors of its characteristic
    polynomial over Q (sympy, imported only then), its eigenvalues to 30
    digits.  The left rank is exact too, size minus the nullity at 0 of
    the certified chains; raises ValueError when the eigenvalues of a
    factor do not converge.  Otherwise m on the left
    is ``rank_tol``'s, eigenvalues are clustered, and the call raises
    AmbiguousStructureError when clusters are too close to tell apart
    or the nullity chains give no label (a chain that is not concave,
    the column budget or the nilpotent limit).  Raises ValueError when
    the value is not a momentum of a full-rank pair (wrong rank
    profile).
    """
    value = np.asarray(value, dtype=float)
    if value.ndim != 2 or value.shape[0] != value.shape[1]:
        raise ValueError("expected a square matrix")
    m = None  # the left rank, exact for integral input
    if side == "left":
        n = value.shape[0]
    elif side == "right":
        if n is None:
            raise ValueError("side='right' needs the ambient row count n")
        m = value.shape[0]
        if n < m:
            raise ValueError("ambient row count must be at least m")
    else:
        raise ValueError("side must be 'left' or 'right'")
    M_int = _integral(value)
    if M_int is not None:
        return _structure_exact(M_int, side, n, m)
    return _structure_float(value, side, n, rank_tol(value) if m is None else m)
