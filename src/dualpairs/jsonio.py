"""Matrix and report JSON formats used by the CLI and the test harness.

A matrix is {"rows": r, "cols": c, "complex": bool, "data": [[...], ...]}
with row-major rows; complex entries are two-element arrays [re, im].
Floats are serialized through repr, which round-trips binary64 exactly.
"""

from __future__ import annotations

import numpy as np

_FLOAT_MAX = float(np.finfo(float).max)


def matrix_to_obj(M: np.ndarray) -> dict:
    """The matrix object of M; a non-finite entry, which the reader would
    refuse, raises ValueError naming it."""
    M = np.asarray(M)
    if M.ndim != 2:
        raise ValueError("expected a 2d array")
    finite = np.isfinite(M)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ValueError(f"cannot write matrix entry [{i}][{j}]: {M[i, j]} is not a finite number")
    cplx = np.iscomplexobj(M)
    if cplx:
        data = [[[float(v.real), float(v.imag)] for v in row] for row in M]
    else:
        data = [[float(v) for v in row] for row in M.astype(float)]
    return {"rows": M.shape[0], "cols": M.shape[1], "complex": cplx, "data": data}


def read_int(obj: dict, key: str, where: str) -> int:
    """obj[key] as an integer; an integral float such as 2.0 is read, and
    any other value (null, a fraction, a string, a bool, a list) raises
    ValueError naming where it came from."""
    value = obj[key]
    whole = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not whole:
        raise ValueError(f"{where}: {key} must be an integer, not {value!r}")
    return int(value)


def is_number(value) -> bool:
    """A finite JSON number: an int or a float, not a bool.  json reads
    NaN, Infinity and ints of any size, so the value must also lie in the
    float range, which NaN does not."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= _FLOAT_MAX)


def matrix_from_obj(obj: dict) -> np.ndarray:
    """The matrix of a matrix object; anything malformed raises ValueError."""
    if not isinstance(obj, dict) or not {"rows", "cols", "complex", "data"} <= obj.keys():
        raise ValueError("a matrix object needs rows, cols, complex and data")
    rows, cols = read_int(obj, "rows", "matrix"), read_int(obj, "cols", "matrix")
    cplx, data = obj["complex"], obj["data"]
    if not isinstance(cplx, bool):
        raise ValueError(f"matrix: complex must be true or false, not {cplx!r}")
    if (not isinstance(data, list) or len(data) != rows
            or any(not isinstance(r, list) or len(r) != cols for r in data)):
        raise ValueError("data shape does not match rows/cols")

    def entry(v):
        return (isinstance(v, list) and len(v) == 2 and all(map(is_number, v))
                if cplx else is_number(v))

    for i, row in enumerate(data):
        for j, v in enumerate(row):
            if not entry(v):
                want = "an [re, im] pair of finite numbers" if cplx else "a finite number"
                raise ValueError(f"matrix entry [{i}][{j}] must be {want}, not {v!r}")
    if cplx:
        # each [re, im] pair is the two float64 halves of one complex128
        return np.array(data, dtype=float).reshape(rows, cols, 2).view(complex)[..., 0]
    return np.array(data, dtype=float).reshape(rows, cols)


def matrix_point_to_obj(E: np.ndarray) -> dict:
    """Instance-file fields of a one-matrix point (unitary, symplectic)."""
    return {"matrix": matrix_to_obj(E)}


def matrix_point_from_obj(obj: dict) -> np.ndarray:
    return matrix_from_obj(obj["matrix"])


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
