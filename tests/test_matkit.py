import mpmath
import numpy as np
import pytest
import scipy.linalg

from qcsynth import (
    Dimensions,
    diag_j,
    generate_realizable,
    ito_factorize,
    minnorm_right_solve,
    pzkv_decompose,
    random_symplectic,
    rank_tol,
    skew_canonical,
    symplectic_complete,
    synthesize,
)
from qcsynth import matkit, synthesis, sysmodel
from qcsynth.matkit import _pivot_rows
from refsystems import FV_ROUNDED, W_REFERENCE, fv_exact

J = diag_j(1)


def vacuum_fw(m):
    return np.eye(2 * m) + 1j * diag_j(m)


def canonical(n_q, n):
    out = np.zeros((n, n))
    out[:2 * n_q, :2 * n_q] = diag_j(n_q)
    return out


# ---------------------------------------------------------------- skew_canonical

def test_skew_canonical_fixed_point():
    res = skew_canonical(J)
    assert (res.n_q, res.n_c) == (1, 0)
    assert np.allclose(res.p @ J @ res.p.T, J, atol=1e-12)


def test_skew_canonical_scaled_block():
    res = skew_canonical(np.array([[0.0, 2.0], [-2.0, 0.0]]))
    assert (res.n_q, res.n_c) == (1, 0)
    assert np.allclose(res.p, np.eye(2) / np.sqrt(2.0), atol=1e-12)


def test_skew_canonical_mixed_rank():
    theta = np.array([[0.0, 1.0, 2.0], [-1.0, 0.0, 3.0], [-2.0, -3.0, 0.0]])
    res = skew_canonical(theta)
    assert (res.n_q, res.n_c) == (1, 1)
    assert np.allclose(res.p @ theta @ res.p.T, canonical(1, 3), atol=1e-10)


def test_skew_canonical_zero():
    res = skew_canonical(np.zeros((3, 3)))
    assert (res.n_q, res.n_c) == (0, 3)
    assert np.linalg.matrix_rank(res.p) == 3


def test_skew_canonical_rejects_nonskew():
    with pytest.raises(ValueError):
        skew_canonical(np.eye(2))


def test_skew_canonical_random():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 13))
        raw = rng.standard_normal((n, n)) * 2.0
        theta = raw - raw.T
        res = skew_canonical(theta)
        assert 2 * res.n_q + res.n_c == n
        assert res.n_q == rank_tol(theta) // 2
        got = res.p @ theta @ res.p.T
        assert np.abs(got - canonical(res.n_q, n)).max() < 1e-9 * (1 + np.abs(theta).max())


def rotated_blocks(rng, bs, n_free):
    """Q diag(b_1 J, ..., b_k J, 0) Q^T with a random orthogonal Q."""
    n = 2 * len(bs) + n_free
    core = np.zeros((n, n))
    core[:2 * len(bs), :2 * len(bs)] = np.kron(np.diag(bs), J)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q @ core @ q.T


@pytest.mark.parametrize("bs, n_free", [
    ([3.0] * 4, 2),                              # degenerate spectrum
    ([2.0] * 3 + [0.5] * 3, 0),
    (list(np.logspace(-6, 2, 7)), 1),            # eight decades of spread
    ([1.0, 0.3, 1e-9 * 1.5], 1),                 # smallest pair just above the cut
    ([1.0, 0.3, 1e-9 / 1.5], 1),                 # ... and just below it
])
def test_skew_canonical_adversarial(bs, n_free):
    rng = np.random.default_rng(len(bs) + n_free)
    for _ in range(10):
        theta = rotated_blocks(rng, bs, n_free)
        res = skew_canonical(theta)
        kept = [b for b in bs if b > 1e-9 * max(bs)]
        assert res.n_q == rank_tol(theta) // 2 == len(kept)
        # Residual entry (i, j) in the scale of rows i and j; the free rows
        # carry the pairs below the cut on top of round-off.
        norms = np.linalg.norm(res.p, axis=1)
        resid = (res.p @ theta @ res.p.T - canonical(res.n_q, theta.shape[0])) \
            / np.outer(norms, norms)
        dropped = max([b for b in bs if b not in kept], default=0.0)
        assert np.abs(resid).max() <= 1e-12 * (1 + np.abs(theta).max()) + dropped
        # The rows of p are orthogonal, with norms 1/sqrt(b) and 1.
        bound = max(1.0, max(kept) ** 0.5) * max(1.0, min(kept) ** -0.5)
        assert np.linalg.cond(res.p) <= 1.01 * bound


# ---------------------------------------------------------------- ito_factorize

def test_ito_zero_matrix():
    w = ito_factorize(np.zeros((2, 2))).w
    assert w.shape == (2, 4)
    assert np.count_nonzero(w) == 0


def test_ito_scalar():
    w = ito_factorize(np.array([[1.0]])).w
    assert np.allclose(w, [[0.0, 1.0]], atol=1e-12)


def test_ito_reference_matrix():
    f_v = fv_exact()
    w = ito_factorize(f_v).w
    assert w.shape == (3, 6)
    assert np.linalg.norm(w @ vacuum_fw(3) @ w.T - f_v) <= 1e-8


def test_ito_reference_factor_agrees():
    # the four-decimal factor reproduces the matrix only to rounding level
    err = np.linalg.norm(W_REFERENCE @ vacuum_fw(3) @ W_REFERENCE.T - fv_exact())
    assert err <= 5e-3


def test_ito_rejects_indefinite_rounding():
    # four-decimal rounding of fv_exact() has an eigenvalue near -1.7e-5
    with pytest.raises(ValueError):
        ito_factorize(FV_ROUNDED)


def test_ito_rejects_nonhermitian():
    with pytest.raises(ValueError):
        ito_factorize(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_ito_random_psd():
    rng = np.random.default_rng(23)
    for _ in range(40):
        m = int(rng.integers(1, 7))
        k = int(rng.integers(1, m + 1))  # rank-deficient cases included
        g = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
        f_v = g @ g.conj().T
        w = ito_factorize(f_v).w
        assert w.shape == (m, 2 * m)
        err = np.abs(w @ vacuum_fw(m) @ w.T - f_v).max()
        assert err < 1e-9 * (1 + np.abs(f_v).max())


def ito_loop_reference(f_v):
    # The per-channel construction W = U Q U_w^H that the closed form replaced.
    lam, u = np.linalg.eigh((f_v + f_v.conj().T) / 2.0)
    lam = np.clip(lam, 0.0, None)
    m = f_v.shape[0]
    q_mat = np.zeros((m, 2 * m), dtype=complex)
    for j in range(m):
        root = np.sqrt(lam[j] / 2.0)
        q_mat[j, 2 * j + 1] = root
        q_mat[:, 2 * j] = -root * (u.conj().T @ u[:, j].conj())
    u_w = np.kron(np.eye(m), (np.sqrt(2.0) / 2.0) * np.array([[1j, 1j], [-1.0, 1.0]]))
    return (u @ q_mat @ u_w.conj().T).real


def test_ito_matches_loop_reference():
    rng = np.random.default_rng(29)
    for _ in range(200):
        m = int(rng.integers(1, 20))
        k = int(rng.integers(0, m + 1))
        g = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
        f_v = g @ g.conj().T
        err = np.abs(ito_factorize(f_v).w - ito_loop_reference(f_v)).max()
        assert err <= 64 * np.finfo(float).eps * (1 + np.abs(f_v).max())


def test_ito_real_verification_matches_complex_form(monkeypatch):
    # the verification residual, taken in real arithmetic through w J,
    # against the complex w F_w w^T it stands for
    recorded = []

    def recording_maxabs(a):
        recorded.append(sysmodel._maxabs(a))
        return recorded[-1]

    monkeypatch.setattr(matkit, "_maxabs", recording_maxabs)
    rng = np.random.default_rng(31)
    for m in range(1, 17):
        for k in range(m + 1):
            g = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
            f_v = g @ g.conj().T
            w = ito_factorize(f_v).w
            lam, u = np.linalg.eigh((f_v + f_v.conj().T) / 2.0)
            target = (u * np.sqrt(np.clip(lam, 0.0, None)) ** 2) @ u.conj().T
            want = np.abs(w @ vacuum_fw(m) @ w.T - target).max()
            scale = max(1.0, np.abs(f_v).max())
            assert abs(recorded[-1] - want) <= 1e-15 * scale


# ---------------------------------------------------------- symplectic_complete

def test_complete_identity_rows():
    d_q = np.hstack([np.eye(2), np.zeros((2, 2))])
    n_mat = symplectic_complete(d_q, diag_j(2)).n_mat
    assert n_mat.shape == (2, 4)
    full = np.vstack([d_q, n_mat])
    assert np.allclose(full @ diag_j(2) @ full.T, diag_j(2), atol=1e-10)


def test_complete_from_nothing():
    n_mat = symplectic_complete(np.zeros((0, 2)), diag_j(1)).n_mat
    assert n_mat.shape == (2, 2)
    assert np.allclose(n_mat @ J @ n_mat.T, J, atol=1e-10)


def test_complete_rejects_bad_pairing():
    with pytest.raises(ValueError):
        symplectic_complete(np.zeros((2, 4)), diag_j(2))


def test_complete_random_rows():
    rng = np.random.default_rng(31)
    for _ in range(30):
        m = int(rng.integers(1, 5))
        n_yq = int(rng.integers(0, m + 1))
        d_q = random_symplectic(m, rng)[: 2 * n_yq, :]
        n_mat = symplectic_complete(d_q, diag_j(m)).n_mat
        full = np.vstack([d_q, n_mat])
        assert full.shape == (2 * m, 2 * m)
        res = np.abs(full @ diag_j(m) @ full.T - diag_j(m)).max()
        assert res < 1e-10 * (1 + np.abs(full).max() ** 2)


# --------------------------------------------------------------- pzkv_decompose

def reconstruct(dec):
    return dec.p_perm @ dec.z @ dec.k_sel @ dec.v_sympl


def test_pzkv_single_row():
    m_mat = np.array([[1.0, 0.0, 0.0, 0.0]])
    dec = pzkv_decompose(m_mat, diag_j(2))
    assert dec.r == 1
    assert np.array_equal(dec.k_sel, [[1.0, 0.0, 0.0, 0.0]])
    assert np.array_equal(dec.p_perm, [[1.0]])
    assert np.array_equal(dec.z, [[1.0]])
    assert np.array_equal(dec.k_sel @ dec.v_sympl, m_mat)
    assert np.allclose(dec.v_sympl @ diag_j(2) @ dec.v_sympl.T, diag_j(2), atol=1e-12)


def test_pzkv_dependent_rows():
    m_mat = np.array([[1.0, 0.0, 1.0, 0.0], [2.0, 0.0, 2.0, 0.0]])
    dec = pzkv_decompose(m_mat, diag_j(2))
    assert dec.r == 1
    assert np.abs(reconstruct(dec) - m_mat).max() < 1e-10


def test_pzkv_empty():
    dec = pzkv_decompose(np.zeros((0, 4)), diag_j(2))
    assert dec.r == 0
    assert reconstruct(dec).shape == (0, 4)
    assert np.allclose(dec.v_sympl @ diag_j(2) @ dec.v_sympl.T, diag_j(2), atol=1e-12)


def test_pzkv_rejects_nonisotropic():
    with pytest.raises(ValueError):
        pzkv_decompose(np.eye(4)[:2], diag_j(2))


def test_pzkv_random_isotropic():
    rng = np.random.default_rng(47)
    for _ in range(30):
        m = int(rng.integers(1, 5))
        k = int(rng.integers(0, m + 1))
        span = random_symplectic(m, rng)[[2 * i for i in range(k)], :]
        rows = int(rng.integers(0, 6))
        m_mat = rng.standard_normal((rows, k)) @ span
        dec = pzkv_decompose(m_mat, diag_j(m))
        assert dec.r <= min(rows, k)
        diff = reconstruct(dec) - m_mat
        if diff.size:
            scale = 1 + np.abs(m_mat).max()
            assert np.abs(diff).max() < 1e-10 * scale

        v = dec.v_sympl
        assert np.abs(v @ diag_j(m) @ v.T - diag_j(m)).max() < 1e-9
        # selection picks the q-quadrature rows of the network
        for i in range(dec.r):
            row = np.zeros(2 * m)
            row[2 * i] = 1.0
            assert np.array_equal(dec.k_sel[i], row)
        # chosen basis rows embed verbatim
        kv = dec.k_sel @ v
        for i in range(dec.r):
            assert any(np.array_equal(kv[i], m_mat[j]) for j in range(rows))
        # p_perm is a permutation
        assert np.array_equal(dec.p_perm @ dec.p_perm.T, np.eye(rows))


def test_complete_full_rows_leave_empty_complement():
    rng = np.random.default_rng(71)
    for m in (1, 3):
        d_q = random_symplectic(m, rng)
        n_mat = symplectic_complete(d_q, diag_j(m)).n_mat
        assert n_mat.shape == (0, 2 * m)


def test_pzkv_lagrangian_readout():
    rng = np.random.default_rng(73)
    for m in (1, 2, 4):
        span = random_symplectic(m, rng)[0::2]
        m_mat = np.vstack([span, rng.standard_normal((2, m)) @ span])
        dec = pzkv_decompose(m_mat, diag_j(m))
        assert dec.r == m
        assert dec.v_sympl.shape == (2 * m, 2 * m)
        v = dec.v_sympl
        assert np.abs(v @ diag_j(m) @ v.T - diag_j(m)).max() < 1e-9
        assert np.abs(reconstruct(dec) - m_mat).max() < 1e-10 * (1 + np.abs(m_mat).max())


def test_pzkv_zero_rank():
    dec = pzkv_decompose(np.zeros((3, 6)), diag_j(3))
    assert dec.r == 0
    assert dec.z.shape == (3, 0)
    assert dec.k_sel.shape == (0, 6)
    assert np.array_equal(reconstruct(dec), np.zeros((3, 6)))
    assert np.abs(dec.v_sympl @ diag_j(3) @ dec.v_sympl.T - diag_j(3)).max() < 1e-12


def test_pzkv_independent_rows_at_even_rows():
    rng = np.random.default_rng(79)
    for _ in range(30):
        m = int(rng.integers(1, 7))
        k = int(rng.integers(1, m + 1))
        span = random_symplectic(m, rng)[0::2][:k]
        m_mat = rng.standard_normal((k, k)) @ span
        dec = pzkv_decompose(m_mat, diag_j(m))
        assert dec.r == k
        assert np.array_equal(dec.v_sympl[0:2 * k:2], m_mat)


def assert_basis_reconstructs(m_mat, dec):
    # P Z (K V), with K V the basis rows taken from m_mat
    got = reconstruct(dec)
    assert got.shape == m_mat.shape
    if m_mat.size:
        assert np.abs(got - m_mat).max() <= 1e-12 * (1 + np.abs(m_mat).max())


def test_pzkv_basis_reconstructs_all_row_counts():
    rng = np.random.default_rng(89)
    m = 3
    span = random_symplectic(m, rng)[0::2]
    cases = [np.zeros((0, 2 * m)), np.zeros((2, 2 * m)),  # rank 0
             span[:2],                                     # no rows remain
             rng.standard_normal((4, 2)) @ span[:2]]       # rows remain
    for m_mat in cases:
        dec = pzkv_decompose(m_mat, diag_j(m))
        assert dec.z.shape == (m_mat.shape[0], dec.r)
        assert_basis_reconstructs(m_mat, dec)


def test_pzkv_duplicated_scaled_and_zero_rows():
    rng = np.random.default_rng(97)
    m = 4
    span = random_symplectic(m, rng)[0::2][:3]
    base = rng.standard_normal((3, 3)) @ span
    m_mat = np.vstack([base[0], np.zeros(2 * m), base[1], base[0], -2.5 * base[2],
                       base[2], 1e-3 * base[1], np.zeros(2 * m)])
    dec = pzkv_decompose(m_mat, diag_j(m))
    assert dec.r == 3
    assert_basis_reconstructs(m_mat, dec)


def _qr_pivots(m_mat, r):
    return sorted(scipy.linalg.qr(m_mat.T, pivoting=True, mode="economic")[2][:r].tolist())


def test_pivot_rows_match_pivoted_qr():
    # generic rank-r matrices: greedy pivoted Gram-Schmidt takes the rows
    # that column-pivoted QR of m_mat.T takes first
    rng = np.random.default_rng(83)
    for _ in range(100):
        rows, cols = int(rng.integers(1, 13)), int(rng.integers(1, 25))
        r = int(rng.integers(1, min(rows, cols) + 1))
        m_mat = rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols))
        m_mat *= rng.uniform(0.1, 10.0, size=(rows, 1))
        assert _pivot_rows(m_mat, r) == _qr_pivots(m_mat, r)


def test_pivot_rows_match_pivoted_qr_on_couplings(monkeypatch):
    seen = []

    def spy(m_mat, theta_prime, tol):
        seen.append(np.array(m_mat))
        return pzkv_decompose(m_mat, theta_prime, tol)

    monkeypatch.setattr(synthesis, "pzkv_decompose", spy)
    for k in (1, 2, 4, 8):
        for seed in range(3):
            synthesize(generate_realizable(Dimensions(k, k, 2 * k, k, k), seed))
    assert len(seen) == 12
    for m_mat in seen:
        r = rank_tol(m_mat)
        assert _pivot_rows(m_mat, r) == _qr_pivots(m_mat, r)


@pytest.mark.parametrize("m_mat", [
    [[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 1.0, 0.0]],
    [[1.0, 0.0, 1.0, 0.0], [1.0, 0.0, -1.0, 0.0], [1.0, 0.0, 0.0, 0.0]],
    [[0.0, 0.0, 0.0, 0.0], [3.0, 0.0, 4.0, 0.0], [4.0, 0.0, 3.0, 0.0], [5.0, 0.0, 0.0, 0.0]],
])
def test_pzkv_exact_ties_still_verify(m_mat):
    # equal residual norms leave the pivot to the tie rule; whichever rows
    # are taken, the decomposition must hold
    m_mat = np.array(m_mat)
    dec = pzkv_decompose(m_mat, diag_j(2))
    assert dec.r == 2
    assert np.abs(reconstruct(dec) - m_mat).max() <= 1e-12 * np.abs(m_mat).max()
    assert np.abs(dec.v_sympl @ diag_j(2) @ dec.v_sympl.T - diag_j(2)).max() <= 1e-12


# ------------------------------------------------------------------ conditioning

def test_completion_conditioning_tracks_input():
    # d_q drawn from a symplectic T with cond(T) near 40: the completion may
    # not lose more than one order of magnitude against T itself.
    m = 32
    for seed in range(20):
        t = random_symplectic(m, np.random.default_rng(seed), spread=0.25)
        d_q = t[:m]
        n_mat = symplectic_complete(d_q, diag_j(m)).n_mat
        assert np.linalg.cond(np.vstack([d_q, n_mat])) <= 10 * np.linalg.cond(t)


def test_synthesis_factors_well_conditioned():
    for seed in range(8):
        real = synthesize(generate_realizable(Dimensions(16, 16, 32, 16, 16), seed))
        assert np.linalg.cond(np.vstack([real.g1.d_q, real.g1.d_q_prime])) <= 1e3
        assert np.linalg.cond(real.v_sympl) <= 1e4


# ----------------------------------------------------------- minnorm_right_solve

def test_minnorm_identity():
    b = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert np.allclose(minnorm_right_solve(np.eye(3), b), b, atol=1e-12)


def test_minnorm_tall_fat():
    a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    x = minnorm_right_solve(a, np.array([[2.0, 3.0, 0.0]]))
    assert np.allclose(x, [[2.0, 3.0]], atol=1e-12)


def test_minnorm_rejects_inconsistent():
    with pytest.raises(ValueError, match="inconsistent"):
        minnorm_right_solve(np.array([[1.0, 0.0, 0.0]]), np.array([[0.0, 1.0, 0.0]]))


def test_minnorm_random():
    rng = np.random.default_rng(59)
    for _ in range(30):
        r, c, k = (int(rng.integers(1, 7)) for _ in range(3))
        a = rng.standard_normal((r, c))
        x0 = rng.standard_normal((k, r))
        b = x0 @ a
        x = minnorm_right_solve(a, b)
        assert np.abs(x @ a - b).max() < 1e-10 * (1 + np.abs(b).max())
        assert np.linalg.norm(x) <= np.linalg.norm(x0) + 1e-9


# ------------------------------------------------------------------------ misc

def test_rank_tol():
    assert rank_tol(np.eye(3)) == 3
    assert rank_tol(np.zeros((2, 2))) == 0
    assert rank_tol(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1
    assert rank_tol(np.zeros((0, 4))) == 0


def test_random_symplectic():
    rng = np.random.default_rng(61)
    for m in (1, 2, 3, 4):
        v = random_symplectic(m, rng, spread=0.4)
        assert np.abs(v @ diag_j(m) @ v.T - diag_j(m)).max() < 1e-10
    a = random_symplectic(3, np.random.default_rng(9))
    b = random_symplectic(3, np.random.default_rng(9))
    assert np.array_equal(a, b)


def hamiltonian_draw(m, seed, spread):
    """diag_m(J) @ S for the S that random_symplectic(m, default_rng(seed), spread) draws."""
    s = np.random.default_rng(seed).standard_normal((2 * m, 2 * m)) * spread
    return diag_j(m) @ ((s + s.T) / 2.0)


SYMPLECTIC_GRID = [(m, spread) for m in (1, 2, 4, 8, 16, 32, 64) for spread in (0.25, 0.5, 1.0)]


def test_random_symplectic_matches_scipy_expm():
    scaled = set()
    for m, spread in SYMPLECTIC_GRID:
        x = hamiltonian_draw(m, m, spread)
        scaled.add(bool(np.abs(x).sum(axis=0).max() > matkit._THETA13))
        t = random_symplectic(m, np.random.default_rng(m), spread)
        ref = scipy.linalg.expm(x)
        assert np.abs(t - ref).max() <= 1e-13 * np.abs(ref).max(), (m, spread)
    assert scaled == {False, True}


def test_random_symplectic_matches_40_digit_exponential():
    # spread 8 takes every m past theta_13, so the squarings run too
    for m in (1, 2, 3):
        for spread in (0.25, 1.0, 8.0):
            x = hamiltonian_draw(m, 7, spread)
            with mpmath.workdps(40):
                ref = np.array(mpmath.expm(mpmath.matrix(x.tolist())).tolist(), dtype=float)
            t = random_symplectic(m, np.random.default_rng(7), spread)
            assert np.abs(t - ref).max() <= 1e-13 * np.abs(ref).max(), (m, spread)


def test_random_symplectic_defect_is_round_off():
    for m, spread in SYMPLECTIC_GRID:
        t = random_symplectic(m, np.random.default_rng(m), spread)
        defect = np.abs(t @ diag_j(m) @ t.T - diag_j(m)).max()
        assert defect <= 1e-14 * np.abs(t).max() ** 2, (m, spread)


def test_random_symplectic_edge_cases():
    assert random_symplectic(0, np.random.default_rng(0)).shape == (0, 0)
    for m in (16, 64):
        assert np.array_equal(random_symplectic(m, np.random.default_rng(5), 1.0),
                              random_symplectic(m, np.random.default_rng(5), 1.0))


def test_overflowing_scale_fails_its_check():
    # the scales square max|.|, which overflows past 1.34e154
    with pytest.raises(ValueError, match="precondition .*the scale overflowed"):
        symplectic_complete(np.array([[1e200, 0, 0, 0], [0, 1e-200, 0, 0]]), diag_j(2))
    with pytest.raises(ValueError, match="isotropic .*the scale overflowed"):
        pzkv_decompose(np.array([[1e200, 0.0]]), diag_j(1))
