"""Matrix and report JSON formats used by the CLI and the test harness.

A matrix is {"rows": r, "cols": c, "complex": bool, "data": [[...], ...]}
with row-major rows; complex entries are two-element arrays [re, im].
Floats are serialized through repr, which round-trips binary64 exactly.
"""

from __future__ import annotations

import numpy as np


def matrix_to_obj(M: np.ndarray) -> dict:
    M = np.asarray(M)
    if M.ndim != 2:
        raise ValueError("expected a 2d array")
    cplx = np.iscomplexobj(M)
    if cplx:
        data = [[[float(v.real), float(v.imag)] for v in row] for row in M]
    else:
        data = [[float(v) for v in row] for row in M.astype(float)]
    return {"rows": M.shape[0], "cols": M.shape[1], "complex": cplx, "data": data}


def matrix_from_obj(obj: dict) -> np.ndarray:
    try:
        rows = int(obj["rows"])
        cols = int(obj["cols"])
        cplx = bool(obj["complex"])
        data = obj["data"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    if len(data) != rows or any(len(r) != cols for r in data):
        raise ValueError("data shape does not match rows/cols")
    if cplx:
        M = np.empty((rows, cols), dtype=complex)
        for i, row in enumerate(data):
            for j, v in enumerate(row):
                M[i, j] = complex(v[0], v[1])
    else:
        M = np.array(data, dtype=float).reshape(rows, cols)
    return M


def report_record(check: str, pair: str, dims, seed: int, residual: float, passed: bool) -> dict:
    """One verification record in the repo-wide report schema."""
    return {
        "check": check,
        "pair": pair,
        "dims": [int(d) for d in dims],
        "seed": int(seed),
        "residual": float(residual),
        "pass": bool(passed),
    }
