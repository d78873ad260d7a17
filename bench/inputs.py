"""Seeded inputs for the benchmark, built without the library's own generators.

Every draw comes from ``numpy.random.default_rng([seed, *keys])``, so a
seed and a position in the workload fix the input.  Group elements are
made here too (QR with a phase fix for U and O, exponentials of
normalised algebra elements for Sp and GL), and the action on a point is
plain numpy, so the library only ever sees finished inputs.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg

PAIRS = ("unitary", "symplectic", "general_linear")
WARMUP_ROUND = 1 << 30  # round key of the untimed warm-up inputs


class Op(NamedTuple):
    """One timed call into the library and the check of its answer."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], None]


def rng_for(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *(int(k) for k in keys)])


def standard_j(n: int) -> np.ndarray:
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


def side_group(pair: str, side: str, n: int, m: int) -> tuple[str, int]:
    """Group tag and matrix size of the group acting on ``side``."""
    if pair == "unitary":
        return "unitary", n if side == "left" else m
    if pair == "symplectic":
        return ("symplectic", 2 * n) if side == "left" else ("orthogonal", m)
    return "general_linear", n if side == "left" else m


def group_element(group: str, k: int, rng: np.random.Generator) -> np.ndarray:
    if group == "unitary":
        Z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        Q, R = np.linalg.qr(Z)
        d = np.diagonal(R)
        return Q * (d / np.abs(d))
    if group == "orthogonal":
        Q, R = np.linalg.qr(rng.standard_normal((k, k)))
        return Q * np.sign(np.diagonal(R))
    if group == "symplectic":
        H = rng.standard_normal((k, k))
        X = standard_j(k // 2) @ (H + H.T)  # X^T J + J X = 0
        return scipy.linalg.expm(X / np.linalg.norm(X))
    if group == "general_linear":
        X = rng.standard_normal((k, k))
        return scipy.linalg.expm(X / np.linalg.norm(X))
    raise ValueError(f"unknown group {group!r}")


def algebra_element(group: str, k: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian element of the Lie algebra of ``group``."""
    X = rng.standard_normal((k, k))
    if group == "unitary":
        Z = X + 1j * rng.standard_normal((k, k))
        return 0.5 * (Z - np.conj(Z).T)
    if group == "orthogonal":
        return 0.5 * (X - X.T)
    if group == "symplectic":
        return standard_j(k // 2) @ (X + X.T)
    return X


def random_point(pair: str, n: int, m: int, rng: np.random.Generator):
    """Gaussian point: complex n x m, real 2n x m, or a (Q, P) tuple."""
    if pair == "unitary":
        return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    if pair == "symplectic":
        return rng.standard_normal((2 * n, m))
    return rng.standard_normal((n, m)), rng.standard_normal((n, m))


def act(pair: str, side: str, g: np.ndarray, x):
    """g . x: left multiplication or right multiplication; on (Q, P) the
    cotangent lifts (A Q, A^-T P) and (Q B, P B^-T)."""
    if pair == "general_linear":
        Q, P = x
        if side == "left":
            return g @ Q, np.linalg.solve(g.T, P)
        return Q @ g, np.linalg.solve(g, P.T).T
    return g @ x if side == "left" else x @ g


def point_scale(x) -> float:
    """Frobenius norm of the point, (Q, P) stacked."""
    if isinstance(x, tuple):
        return float(np.sqrt(np.linalg.norm(x[0]) ** 2 + np.linalg.norm(x[1]) ** 2))
    return float(np.linalg.norm(x))


# ---------------------------------------------------------------------------
# Jordan labels with exactly integral realisations

_REAL_EIGS = (1, -1, 2, -2, 3)
_COMPLEX_EIGS = (complex(1, 1), complex(-1, 1), complex(2, 1))


def jordan_label(n: int, m: int, rng: np.random.Generator) -> dict:
    """A random orbit label of the general linear pair.

    Blocks (lambda, c) carry integer or Gaussian-integer eigenvalues,
    nilpotent sizes d >= 2 fill d - 1 columns each, at most n - m of
    them, and everything fills exactly m columns.
    """
    budget = m
    nilpotent = []
    for _ in range(int(rng.integers(0, min(m, n - m) + 1))):
        if budget == 0:
            break
        d = int(rng.integers(2, min(3, budget + 1) + 1))
        nilpotent.append(d)
        budget -= d - 1
    blocks = []
    while budget > 0:
        if budget >= 2 and rng.random() < 0.3:
            lam = _COMPLEX_EIGS[int(rng.integers(len(_COMPLEX_EIGS)))]
            c = 2 * int(rng.integers(1, min(2, budget // 2) + 1))
        else:
            lam = complex(_REAL_EIGS[int(rng.integers(len(_REAL_EIGS)))])
            c = int(rng.integers(1, min(4, budget) + 1))
        blocks.append((lam, c))
        budget -= c
    return canonical_label(blocks, nilpotent, n, m)


def canonical_label(blocks, nilpotent, n: int, m: int) -> dict:
    """Order-free form of a label: blocks as sorted (re, im, c) triples."""
    return {
        "blocks": sorted((float(complex(lam).real), float(complex(lam).imag), int(c))
                         for lam, c in blocks),
        "nilpotent": sorted((int(d) for d in nilpotent), reverse=True),
        "n": int(n),
        "m": int(m),
    }


def _real_cell(lam: complex, c: int) -> np.ndarray:
    B = np.zeros((c, c))
    if lam.imag == 0:
        B += lam.real * np.eye(c) + np.eye(c, k=1)
        return B
    rot = np.array([[lam.real, lam.imag], [-lam.imag, lam.real]])
    for t in range(c // 2):
        B[2 * t:2 * t + 2, 2 * t:2 * t + 2] = rot
        if t + 1 < c // 2:
            B[2 * t:2 * t + 2, 2 * t + 2:2 * t + 4] = np.eye(2)
    return B


def label_point(label: dict) -> tuple[np.ndarray, np.ndarray]:
    """Sparse integral (Q, P) whose left momentum Q P^T has the label's
    real Jordan form: a cell with P = I for every block, and for a
    nilpotent size d an identity on top of Q against one on the bottom
    of P."""
    n, m = label["n"], label["m"]
    Q = np.zeros((n, m))
    P = np.zeros((n, m))
    row = col = 0
    for re, im, c in label["blocks"]:
        Q[row:row + c, col:col + c] = _real_cell(complex(re, im), c)
        P[row:row + c, col:col + c] = np.eye(c)
        row += c
        col += c
    for d in label["nilpotent"]:
        Q[row:row + d - 1, col:col + d - 1] = np.eye(d - 1)
        P[row + 1:row + d, col:col + d - 1] = np.eye(d - 1)
        row += d
        col += d - 1
    return Q, P


def unimodular_pair(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Integer A with det 1 and its exact inverse, from row additions."""
    A = np.eye(n)
    A_inv = np.eye(n)
    for _ in range(3 if n >= 2 else 0):
        i, j = rng.choice(n, size=2, replace=False)
        k = int(rng.integers(1, 3)) * (1 if rng.random() < 0.5 else -1)
        A[i, :] += k * A[j, :]        # A <- (I + k e_i e_j^T) A
        A_inv[:, j] -= k * A_inv[:, i]  # A_inv <- A_inv (I - k e_i e_j^T)
    return A, A_inv


def integral_normal_form(label: dict, rng: np.random.Generator):
    """An integral (Q, P) on the label's orbit, moved off the sparse
    realisation by an integer unimodular left action, so the left
    momentum stays exactly integral."""
    Q, P = label_point(label)
    A, A_inv = unimodular_pair(label["n"], rng)
    return A @ Q, A_inv.T @ P
