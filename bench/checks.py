"""Checks on the library's answers, computed apart from the library.

Each check recomputes what it needs with numpy from the inputs the
benchmark made, or tests a property the answer must have, and raises
``CheckError`` when the answer is wrong.  Tolerances are ``SLACK``
roundoff units of the problem's size times its scale (``bound``); the
one fixed bar is the CLI's own 1e-6 limit on a witness residual.
"""

from __future__ import annotations

import numpy as np

from inputs import act, standard_j

EPS = float(np.finfo(float).eps)
SLACK = 100.0
WITNESS_BAR = 1e-6  # the residual at which `dualpairs witness` exits 1


class CheckError(Exception):
    """The program returned an answer that fails an independent check."""


def bound(size: int, scale: float) -> float:
    """Roundoff allowance for a computation of ``size`` terms at ``scale``."""
    return SLACK * size * EPS * max(1.0, scale)


def _require(ok, what: str, value, limit):
    if not ok:
        raise CheckError(f"{what}: {value:.3e} exceeds {limit:.3e}")


def _rel_diff(A, B) -> float:
    return float(np.linalg.norm(A - B) / max(1.0, np.linalg.norm(B)))


# ---------------------------------------------------------------------------
# witnesses and orbit labels

def _apply_witness(pair: str, side: str, g: np.ndarray, x):
    """The documented meaning of each witness: the action g . x, except
    that the symplectic right witness O maps x to x O^T."""
    return act(pair, side, g.T if (pair, side) == ("symplectic", "right") else g, x)


def witness(pair: str, side: str, x, x_prime, g) -> None:
    """g carries x to x_prime within the CLI's bar and lies in its group
    to roundoff relative to ||g||^2."""
    g = np.asarray(g)
    if not np.all(np.isfinite(g)):
        raise CheckError("witness has non-finite entries")
    k = g.shape[0]
    if pair == "general_linear":
        if np.linalg.cond(g) * EPS >= 1.0:
            raise CheckError("GL witness is numerically singular")
        moved = _apply_witness(pair, side, g, x)
        for name, got, want in zip("QP", moved, x_prime):
            res = _rel_diff(got, want)
            _require(res <= WITNESS_BAR, f"{name} residual", res, WITNESS_BAR)
        return
    res = _rel_diff(_apply_witness(pair, side, g, x), x_prime)
    _require(res <= WITNESS_BAR, "witness residual", res, WITNESS_BAR)
    if pair == "symplectic" and side == "left":
        J = standard_j(k // 2)
        defect = float(np.linalg.norm(g.T @ J @ g - J))
    else:
        if pair == "symplectic" and np.iscomplexobj(g):
            raise CheckError("orthogonal witness is complex")
        defect = float(np.linalg.norm(np.conj(g).T @ g - np.eye(k)))
    limit = bound(k, float(np.linalg.norm(g)) ** 2)
    _require(defect <= limit, "group membership defect", defect, limit)


# ---------------------------------------------------------------------------
# structure checks

def lie_weinstein(out: dict, n: int, m: int, scale: float) -> None:
    """Orbit dimensions add up to 2nm and the two orbits are
    symplectically orthogonal up to roundoff."""
    total = out["dim_left_orbit"] + out["dim_right_orbit"]
    if total != 2 * n * m or out["ambient_dim"] != 2 * n * m:
        raise CheckError(f"orbit dimensions add to {total}, expected {2 * n * m}")
    cross = float(out["cross_omega_residual"])
    limit = bound(n * m, scale ** 2)
    _require(cross <= limit, "cross omega residual", cross, limit)


def residual(name: str, value: float, size: int, scale: float) -> None:
    limit = bound(size, scale)
    _require(float(value) <= limit, name, float(value), limit)


def jacobian_rank(rank: int, E: np.ndarray) -> None:
    """m^2 - k^2, with k the count of zero singular values of the
    n x m point (numpy's default rank cutoff)."""
    m = E.shape[1]
    k = m - int(np.linalg.matrix_rank(E))
    if rank != m * m - k * k:
        raise CheckError(f"jacobian rank {rank}, expected {m * m - k * k}")


def label(got: dict, want: dict) -> None:
    if got != want:
        raise CheckError(f"orbit label {got} differs from generated {want}")
