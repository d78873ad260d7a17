"""The integer-arithmetic Jordan labels against the routines they replaced.

The first reference keeps the sympy version verbatim.  Both are exact,
so every label must equal its reference, and every input whose spectrum
lies in the Gaussian integers must be certified without the factor
route, which only a block whose spectrum leaves Z[i] reaches.

The second keeps the integer version whose chains ran on the whole
value, each one rank past its multiplicity (or to size // step).  The
chains now run one diagonal block at a time, each until it stops growing
or fills its block, and are summed over the blocks, so the chains that
reach the label, and the labels, must equal it exactly.
"""

import json
import time
from pathlib import Path

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


def _ref_chains_uncapped(M_int):
    """(lambda, chain) per Gaussian-integer candidate, each chain capped
    only by size // step; None when the final nullities do not fill the
    size."""
    size = len(M_int)
    eigs = np.linalg.eigvals(np.array(M_int, dtype=float).reshape(size, size))
    chains = []
    filled = 0
    for a, b in sorted({(int(round(z.real)), abs(int(round(z.imag)))) for z in eigs}):
        A = [[x - a if i == j else x for j, x in enumerate(row)]
             for i, row in enumerate(M_int)]
        step = 1
        if b:
            A = gl._int_matmul(A, A)
            for i in range(size):
                A[i][i] += b * b
            step = 2
        nullities = gl._nullity_chain(A, lambda P: (size - gl._bareiss_rank(P)) // step,
                                      gl._int_matmul, size // step)
        filled += step * nullities[-1]
        chains.append((complex(a, b), nullities))
    return chains if filled == size else None


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
    """The blocks that reach the factor route."""
    calls = []
    inner = gl._factor_chains

    def counted(B, eigs, known):
        calls.append(B)
        return inner(B, eigs, known)

    monkeypatch.setattr(gl, "_factor_chains", counted)
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
    # diag(J_2(1), [[0, 2], [1, 0]]): one block leaves Z[i], and only that
    # block reaches the factor route
    [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, 2], [0, 0, 1, 0]],
], ids=["sqrt2", "cbrt2", "jordan_and_sqrt2"])
def test_spectrum_outside_gaussian_integers_falls_back(M, fallbacks):
    size = len(M)
    for side in ("left", "right"):
        got = gl._structure_exact(M, side, size, size)
        assert got == _ref_structure_exact(M, side, size, size)
    leaving = M if size < 4 else [[0, 2], [1, 0]]
    assert [[list(row) for row in B] for B in fallbacks] == [leaving, leaving]


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
        assert (max(map(max, expect)) > 2 ** 63) == (big > 7)


# ---------------------------------------------------------------------------
# chains run block by block

def _scattering_unimodular(k, rng):
    """An integer A with det 1 and its exact inverse, from rng.integers(10,
    60) row steps A[i] += c A[j], c in -4..4, each skipped when an entry
    would pass 200; large entries scatter a defective spectrum."""
    A = np.eye(k, dtype=int).astype(object)  # Python ints: A_inv is not bounded
    A_inv = A.copy()
    for _ in range(int(rng.integers(10, 60)) if k >= 2 else 0):
        i, j = rng.choice(k, 2, replace=False)
        c = int(rng.integers(-4, 5))
        row = A[i] + c * A[j]
        if np.abs(row).max() <= 200:
            A[i] = row
            A_inv[:, j] -= c * A_inv[:, i]
    return A, A_inv


def _moved(A, A_inv, M):
    out = A @ np.asarray(M, dtype=int).astype(object) @ A_inv
    assert max(map(abs, out.ravel()), default=0) < 2 ** 53
    return out.astype(float)


def _orbit_values(n, m, seed):
    """(value, side, label) triples: both canonical momenta of a seeded
    label, the same conjugated by scattering unimodular matrices, and both
    momenta of the two normal_form_partners points with their own label."""
    jd = gl._random_jordan(n, m, stream_rng(seed, 4))
    zeta, xi = gl.jordan_correspond(jd)
    out = [(zeta, "left", jd), (xi, "right", jd)]
    rng = np.random.default_rng([seed, n, m])
    out.append((_moved(*_scattering_unimodular(n, rng), zeta), "left", jd))
    out.append((_moved(*_scattering_unimodular(m, rng), xi), "right", jd))
    partners = gl._random_jordan(n, m, stream_rng(seed, 2))  # as normal_form_partners draws it
    for pt in gl.normal_form_partners(n, m, seed):
        out += [(gl.momentum_left(pt), "left", partners),
                (gl.momentum_right(pt), "right", partners)]
    return out


@pytest.fixture
def labelled(monkeypatch):
    """The chains each call of _label receives."""
    calls = []
    inner = gl._label

    def spy(chains, *args):
        calls.append(sorted(chains, key=lambda c: (c[0].real, c[0].imag)))
        return inner(chains, *args)

    monkeypatch.setattr(gl, "_label", spy)
    return calls


SHAPES = [(2, 1), (3, 2), (4, 4), (6, 3), (8, 6), (10, 5), (12, 12), (16, 8), (16, 12),
          (16, 16)]


@pytest.mark.parametrize("n,m", SHAPES)
def test_block_chains_sum_to_the_uncapped_reference(n, m, labelled, fallbacks):
    for seed in range(15):
        for M, side, jd in _orbit_values(n, m, seed):
            assert gl.jordan_structure(M, side=side, n=n) == jd
            want = _ref_chains_uncapped(_ints(M))
            assert want is not None
            assert labelled.pop() == want
    assert fallbacks == []


def _scattered_block():
    path = Path(__file__).parent / "data" / "scattered_jordan_block.json"
    return np.array(json.loads(path.read_text())["matrix"], dtype=float)


@pytest.mark.parametrize("side", ["left", "right"])
def test_short_count_reruns_its_chain_instead_of_falling_back(side, monkeypatch, labelled,
                                                              fallbacks):
    # fewer than 16 float eigenvalues of this 16 x 16 block at -1 round to
    # -1, so a cap at that count would stop its chain short; every chain
    # runs until it stops growing or fills the room the chains before it
    # left, which is the whole block for the first
    calls = []
    inner = gl._nullity_chain

    def spy(A, nullity, matmul, cap):
        # the nullity of the zero block is the block's size // step
        calls.append((cap, nullity([[0] * len(A)] * len(A)), inner(A, nullity, matmul, cap)))
        return calls[-1][2]

    monkeypatch.setattr(gl, "_nullity_chain", spy)
    M = _scattered_block()
    assert gl.jordan_structure(M, side=side, n=17) == \
        JordanData(((-1.0, 16),), (), 16 if side == "left" else 17, 16)
    room = 16
    for cap, filled, chain in calls:
        assert cap == room // (16 // filled)
        room -= 16 // filled * chain[-1]
    assert calls[0][0] == 16 and room == 0
    assert {filled for _, filled, _ in calls} == {16, 8}
    assert labelled == [_ref_chains_uncapped(_ints(M))]
    assert fallbacks == []


def test_chain_at_its_count_takes_no_confirming_rank(monkeypatch):
    ranks = []
    inner = gl._bareiss_rank
    monkeypatch.setattr(gl, "_bareiss_rank", lambda rows: ranks.append(1) or inner(rows))
    assert gl.jordan_structure(np.diag([1.0, 2.0, 3.0]), side="left") == \
        JordanData(((1.0, 1), (2.0, 1), (3.0, 1)), (), 3, 3)
    assert len(ranks) == 3


def test_candidate_that_is_no_root_takes_one_rank(monkeypatch):
    # the spectrum +-sqrt 2 rounds to the candidates 1 and -1: g(B) is
    # invertible for each, so its chain stops at one rank, and the factor
    # x^2 - 2 takes one more
    ranks = []
    inner = gl._bareiss_rank
    monkeypatch.setattr(gl, "_bareiss_rank", lambda rows: ranks.append(1) or inner(rows))
    jd = gl.jordan_structure(np.array([[0.0, 2.0], [1.0, 0.0]]), side="left")
    assert len(ranks) == 3
    assert [(c, lam.imag) for lam, c in jd.blocks] == [(1, 0.0), (1, 0.0)]
    np.testing.assert_allclose(sorted(lam.real for lam, _ in jd.blocks),
                               [-np.sqrt(2.0), np.sqrt(2.0)], rtol=1e-15)


# ---------------------------------------------------------------------------
# diagonal blocks

def _largest_block(jd):
    return max([c for _, c in jd.blocks] + list(jd.nilpotent) + [1])


@pytest.mark.parametrize("n,m", SHAPES)
def test_permuted_values_are_labelled_block_by_block(n, m, monkeypatch, fallbacks):
    # P M P^T has the blocks of M, so no rank sees more than one of them
    sizes = []
    inner = gl._bareiss_rank
    monkeypatch.setattr(gl, "_bareiss_rank", lambda rows: sizes.append(len(rows)) or inner(rows))
    for seed in range(6):
        jd = gl._random_jordan(n, m, stream_rng(seed, 4))
        rng = np.random.default_rng([seed, n, m])
        for M, side in zip(gl.jordan_correspond(jd), ("left", "right")):
            perm = rng.permutation(len(M))
            assert gl.jordan_structure(M[perm][:, perm], side=side, n=n) == \
                gl.jordan_structure(M, side=side, n=n) == jd
        assert max(sizes) <= _largest_block(jd)
        sizes.clear()
    assert fallbacks == []


def test_identical_blocks_are_labelled_once(monkeypatch, labelled):
    # diag(J_2(1), J_2(1)): one chain, on one 2 x 2 block, counted twice
    blocks = []
    inner = gl._nullity_chain

    def spy(A, nullity, matmul, cap):
        blocks.append(A)
        return inner(A, nullity, matmul, cap)

    monkeypatch.setattr(gl, "_nullity_chain", spy)
    J = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]
    assert gl.jordan_structure(np.array(J, dtype=float), side="left") == \
        JordanData(((1.0, 2), (1.0, 2)), (), 4, 4)
    assert blocks == [[[0, 1], [0, 0]]]
    assert labelled == [[(1 + 0j, [2, 4])]]


def test_last_chain_of_a_dense_block_takes_no_confirming_rank(monkeypatch):
    # diag(J_3(1), J_2(2)) conjugated into one dense block: the first chain
    # runs one rank past its multiplicity to see it stop growing, and the
    # second stops when it fills the room the first left, so 4 + 2 or
    # 3 + 3 ranks, where a confirming rank on both would take 7
    jd = JordanData(((1.0, 3), (2.0, 2)), (), 5, 5)
    M = _moved(*_scattering_unimodular(5, np.random.default_rng(0)), gl.jordan_correspond(jd)[0])
    assert len(gl._components(_ints(M))) == 1
    ranks = []
    inner = gl._bareiss_rank
    monkeypatch.setattr(gl, "_bareiss_rank", lambda rows: ranks.append(1) or inner(rows))
    assert gl.jordan_structure(M, side="left") == jd
    assert len(ranks) == 6


# ---------------------------------------------------------------------------
# the factor route

def _companion(coeffs):
    """The companion matrix of the monic polynomial with these integer
    coefficients, leading first."""
    d = len(coeffs) - 1
    C = np.zeros((d, d))
    C[1:, :-1] = np.eye(d - 1)
    C[:, -1] = [-c for c in coeffs[:0:-1]]
    return C


def _block_diag(*blocks):
    out = np.zeros((sum(map(len, blocks)),) * 2)
    i = 0
    for B in blocks:
        out[i:i + len(B), i:i + len(B)] = B
        i += len(B)
    return out


def _timed_label(M, side="left", n=None):
    start = time.perf_counter()
    jd = gl.jordan_structure(M, side=side, n=n)
    assert time.perf_counter() - start < 1.0
    return jd


def test_squarefree_cubic_is_labelled_within_a_second(fallbacks):
    # its characteristic polynomial is irreducible with one real root; the
    # whole-value sympy route took seconds on it
    M = np.array([[2, -1, 1], [-1, 0, -2], [1, 2, 1]], dtype=float)
    assert _timed_label(M) == JordanData(
        ((0.2420098861535897 + 1.6503475506894547j, 2), (2.5159802276928205, 1)), (), 3, 3)
    assert len(fallbacks) == 1


SQRT2, SQRT3 = 1.4142135623730951, 1.7320508075688772


@pytest.mark.parametrize("M,jd", [
    # C((x^2 - 2)^2): one block of size 2 at each of +-sqrt 2
    (_companion([1, 0, -4, 0, 4]), JordanData(((SQRT2, 2), (-SQRT2, 2)), (), 4, 4)),
    # diag(C((x^2 - 2)^2) x2, C(x^2 - 3) x4): the roots of (x^2 - 2)(x^2 - 3)
    # do not share one partition, (2, 2) at +-sqrt 2 and (1, 1, 1, 1) at
    # +-sqrt 3, so an averaged chain would read (2, 1, 1) at all four
    (_block_diag(*[_companion([1, 0, -4, 0, 4])] * 2, *[_companion([1, 0, -3])] * 4),
     JordanData(((SQRT2, 2),) * 2 + ((-SQRT2, 2),) * 2 + ((SQRT3, 1),) * 4
                + ((-SQRT3, 1),) * 4, (), 16, 16)),
], ids=["C((x2-2)^2)", "16x16"])
def test_built_values_outside_gaussian_integers_give_their_labels(M, jd, fallbacks):
    assert _timed_label(M) == jd
    assert fallbacks


def _nonzero_spectrum(jd):
    """The nonzero eigenvalues of a value with label jd, each repeated by
    its algebraic multiplicity."""
    eigs = []
    for lam, c in jd.blocks:
        eigs += [lam] * c if lam.imag == 0 else [lam, lam.conjugate()] * (c // 2)
    return eigs


@pytest.mark.parametrize("n,m", [(4, 3), (5, 4), (8, 6), (16, 12)])
@pytest.mark.parametrize("seed", range(3))
def test_integer_points_are_labelled_within_a_second(n, m, seed, fallbacks):
    Q, P = np.random.default_rng(seed).integers(-3, 4, size=(2, n, m)).astype(float)
    M = Q @ P.T
    jd = _timed_label(M)
    assert fallbacks
    # the zero eigenvalue is checked by exact ranks, as numpy's eigenvalues
    # scatter where it is defective: the rank is m, and each nilpotent
    # block is one drop of rank from M to M^2
    M_int = _ints(M)
    assert jd.m == gl._bareiss_rank(M_int) == m
    assert len(jd.nilpotent) == m - gl._bareiss_rank(gl._int_matmul(M_int, M_int))
    want = list(np.linalg.eigvals(M))
    scale = max(map(abs, want))
    for lam in _nonzero_spectrum(jd):
        nearest = min(want, key=lambda z: abs(z - lam))
        assert abs(nearest - lam) <= 1e-8 * scale
        want.remove(nearest)


def test_only_the_block_outside_gaussian_integers_is_factored(fallbacks):
    # diag(J_8(2), [[0, 2], [1, 0]]): the 8 x 8 block is certified in
    # integers, and only the 2 x 2 block reaches the factor route
    M = _block_diag(gl._real_jordan_block(2.0, 8), [[0, 2], [1, 0]])
    assert _timed_label(M) == JordanData(((2.0, 8), (SQRT2, 1), (-SQRT2, 1)), (), 10, 10)
    assert fallbacks == [((0, 2), (1, 0))]
