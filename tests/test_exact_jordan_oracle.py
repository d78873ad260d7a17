"""The integer-arithmetic Jordan labels against the sympy routine they replaced.

The reference below keeps the sympy version verbatim.  Both are exact,
so every label must equal its reference, and every input whose spectrum
lies in the Gaussian integers must be certified without the fallback.
"""

import numpy as np
import pytest

from dualpairs import general_linear as gl
from dualpairs.general_linear import JordanData, _chain_to_counts
from dualpairs.linalg import stream_rng


# ---------------------------------------------------------------------------
# reference routine

def _ref_structure_exact(M_int, side: str, n: int, m: int) -> JordanData:
    import sympy

    sm = sympy.Matrix(M_int)
    size = sm.shape[0]
    blocks = []
    nilpotent = []
    for lam, alg_mult in sm.eigenvals().items():
        lam_c = complex(sympy.N(lam, 30))
        if lam_c.imag < -1e-25:
            continue  # handled through the conjugate eigenvalue
        A = sm - lam * sympy.eye(size)
        nullities = []
        power = sympy.eye(size)
        while True:
            power = power * A
            nu = size - power.rank()
            if nullities and nu == nullities[-1]:
                break
            nullities.append(nu)
            if nu >= alg_mult:
                break
        counts = _chain_to_counts(nullities)
        is_zero = lam.is_zero
        for s, cnt in counts.items():
            if is_zero:
                if side == "left":
                    if s >= 2:
                        nilpotent.extend([s] * cnt)
                else:
                    nilpotent.extend([s + 1] * cnt)
            elif abs(lam_c.imag) <= 1e-25:
                blocks.extend([(complex(lam_c.real, 0.0), s)] * cnt)
            else:
                blocks.extend([(lam_c, 2 * s)] * cnt)
    return JordanData(tuple(blocks), tuple(nilpotent), n, m)


# ---------------------------------------------------------------------------
# inputs

def _ints(M):
    rounded = np.round(M)
    assert np.array_equal(rounded, M)
    return [[int(x) for x in row] for row in rounded]


def _cases(jd, rng=None):
    """(matrix, side, m) for both momenta of a label, plus the left
    momentum moved by an integer unimodular left action if rng is given."""
    zeta, xi = gl.jordan_correspond(jd)
    out = [(zeta, "left", jd.m), (xi, "right", jd.m)]
    if rng is not None:
        A, A_inv = gl._random_unimodular(jd.n, rng)
        pt = gl.build_qp_from_jordan(jd)
        out.append((gl.momentum_left(gl.CotangentPoint(A @ pt.Q, A_inv.T @ pt.P)),
                    "left", jd.m))
    return out


SEEDED = [(seed, n, m) for seed in range(4)
          for n, m in [(2, 1), (3, 2), (4, 4), (6, 3), (8, 6), (10, 5), (12, 12),
                       (16, 8), (16, 12), (16, 16)]]

HAND = [
    JordanData(((1 + 1j, 4),), (), 4, 4),
    JordanData(((-1 + 2j, 4), (2.0, 1)), (2,), 7, 6),
    JordanData(((1 + 1j, 4), (1 + 1j, 2), (-3.0, 3)), (3, 2), 15, 12),
    JordanData(((2j, 4), (-2 + 1j, 4)), (), 8, 8),
    JordanData((), (2, 2, 3), 7, 4),
    JordanData((), (4,), 4, 3),
    JordanData((), (), 5, 0),
]


@pytest.fixture
def fallbacks(monkeypatch):
    """Count the calls that reach the sympy fallback."""
    calls = []
    inner = gl._structure_sympy

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(gl, "_structure_sympy", counted)
    return calls


def _assert_matches(M, side, n, m):
    M_int = _ints(M)
    size = len(M_int)
    m_arg = m if side == "left" else size
    assert gl._structure_exact(M_int, side, n, m_arg) == \
        _ref_structure_exact(M_int, side, n, m_arg)


@pytest.mark.parametrize("seed,n,m", SEEDED)
def test_seeded_labels_match_reference(seed, n, m, fallbacks):
    jd = gl._random_jordan(n, m, stream_rng(seed, 4))
    for M, side, mm in _cases(jd, stream_rng(seed, 5)):
        _assert_matches(M, side, n, mm)
    assert fallbacks == []


@pytest.mark.parametrize("jd", HAND, ids=lambda jd: f"{jd.n}x{jd.m}")
def test_complex_and_nilpotent_labels_match_reference(jd, fallbacks):
    for M, side, m in _cases(jd, stream_rng(7, 5)):
        _assert_matches(M, side, jd.n, m)
        assert gl.jordan_structure(M, side=side, n=jd.n) == jd
    assert fallbacks == []


@pytest.mark.parametrize("size", [1, 3, 8])
def test_zero_matrix_matches_reference(size, fallbacks):
    Z = np.zeros((size, size))
    _assert_matches(Z, "left", size, 0)
    _assert_matches(Z, "right", 2 * size, size)
    assert fallbacks == []


@pytest.mark.parametrize("M", [
    [[0, 2], [1, 0]],                    # eigenvalues +-sqrt(2)
    [[0, 0, 2], [1, 0, 0], [0, 1, 0]],   # companion matrix of x^3 - 2
], ids=["sqrt2", "cbrt2"])
def test_spectrum_outside_gaussian_integers_falls_back(M, fallbacks):
    size = len(M)
    for side in ("left", "right"):
        got = gl._structure_exact(M, side, size, size)
        assert got == _ref_structure_exact(M, side, size, size)
    assert len(fallbacks) == 2


def test_bareiss_rank_matches_numpy_on_low_rank_products():
    rng = np.random.default_rng(0)
    for _ in range(50):
        k, r = int(rng.integers(1, 9)), int(rng.integers(0, 9))
        A = rng.integers(-4, 5, size=(k, r)) @ rng.integers(-4, 5, size=(r, k))
        assert gl._bareiss_rank(A.tolist()) == np.linalg.matrix_rank(A)


def test_int_matmul_is_exact_on_both_sides_of_the_int64_bound():
    for big in (7, 2 ** 40):
        A = [[big + 3 * i - j for j in range(4)] for i in range(4)]
        expect = [[sum(A[i][k] * A[k][j] for k in range(4)) for j in range(4)]
                  for i in range(4)]
        assert gl._int_matmul(A, A) == expect
