import mpmath
import numpy as np
import pytest
import scipy.linalg

from qcsynth import (
    Dimensions,
    diag_j,
    generate_realizable,
    ito_factorize,
    pzkv_decompose,
    random_symplectic,
    skew_canonical,
    symplectic_complete,
    synthesize,
)
from qcsynth import matkit, synthesis, sysmodel
from qcsynth.matkit import _check_consistent, _pivoted_gram_schmidt, _qr_minnorm
from oracles import minnorm_right_solve, rank_tol
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
    # against the complex w F_w w^T - f_v it stands for, with f_v's
    # Hermitian part, which eigh factored
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
            want = np.abs(w @ vacuum_fw(m) @ w.T - (f_v + f_v.conj().T) / 2.0).max()
            scale = max(1.0, np.abs(f_v).max())
            assert abs(recorded[-1] - want) <= 1e-15 * scale


def test_ito_verifies_against_f_v_not_its_own_eigenvectors(monkeypatch):
    # eigh made to return two eigenvectors rotated into each other: still
    # orthonormal, so U diag(lam) U^H is Hermitian and w reproduces it
    # exactly, but it is no longer f_v
    f_v = np.diag([1.0, 2.0, 3.0]).astype(complex)
    real_eigh = np.linalg.eigh

    def rotated_eigh(h):
        lam, u = real_eigh(h)
        c, s = np.cos(0.3), np.sin(0.3)
        return lam, u @ np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    monkeypatch.setattr(np.linalg, "eigh", rotated_eigh)
    with pytest.raises(ValueError, match="Ito factor failed to verify"):
        ito_factorize(f_v)


def test_ito_clamped_eigenvalue_is_allowed_for():
    # the most negative eigenvalue the tolerance lets through, -tol, is
    # clamped to zero: w F_w w^T then misses f_v by tol in one entry
    f_v = np.diag([-1e-9, 1.0]).astype(complex)
    w = ito_factorize(f_v, tol=1e-9).w
    assert np.abs(w @ vacuum_fw(2) @ w.T - np.diag([0.0, 1.0])).max() <= 1e-15


# ---------------------------------------------------------- symplectic_complete

def test_complete_identity_rows():
    d_q = np.hstack([np.eye(2), np.zeros((2, 2))])
    n_mat = symplectic_complete(d_q).n_mat
    assert n_mat.shape == (2, 4)
    full = np.vstack([d_q, n_mat])
    assert np.allclose(full @ diag_j(2) @ full.T, diag_j(2), atol=1e-10)


def test_complete_from_nothing():
    n_mat = symplectic_complete(np.zeros((0, 2))).n_mat
    assert n_mat.shape == (2, 2)
    assert np.allclose(n_mat @ J @ n_mat.T, J, atol=1e-10)


def test_complete_rejects_bad_pairing():
    with pytest.raises(ValueError):
        symplectic_complete(np.zeros((2, 4)))


def test_complete_random_rows():
    rng = np.random.default_rng(31)
    for _ in range(30):
        m = int(rng.integers(1, 5))
        n_yq = int(rng.integers(0, m + 1))
        d_q = random_symplectic(m, rng)[: 2 * n_yq, :]
        n_mat = symplectic_complete(d_q).n_mat
        full = np.vstack([d_q, n_mat])
        assert full.shape == (2 * m, 2 * m)
        res = np.abs(full @ diag_j(m) @ full.T - diag_j(m)).max()
        assert res < 1e-10 * (1 + np.abs(full).max() ** 2)


# --------------------------------------------------------------- pzkv_decompose

def reconstruct(dec):
    return dec.p_perm @ dec.z @ dec.k_sel @ dec.v_sympl


def test_pzkv_single_row():
    m_mat = np.array([[1.0, 0.0, 0.0, 0.0]])
    dec = pzkv_decompose(m_mat)
    assert dec.r == 1
    assert np.array_equal(dec.k_sel, [[1.0, 0.0, 0.0, 0.0]])
    assert np.array_equal(dec.p_perm, [[1.0]])
    assert np.array_equal(dec.z, [[1.0]])
    assert np.array_equal(dec.k_sel @ dec.v_sympl, m_mat)
    assert np.allclose(dec.v_sympl @ diag_j(2) @ dec.v_sympl.T, diag_j(2), atol=1e-12)


def test_pzkv_dependent_rows():
    m_mat = np.array([[1.0, 0.0, 1.0, 0.0], [2.0, 0.0, 2.0, 0.0]])
    dec = pzkv_decompose(m_mat)
    assert dec.r == 1
    assert np.abs(reconstruct(dec) - m_mat).max() < 1e-10


def test_pzkv_empty():
    dec = pzkv_decompose(np.zeros((0, 4)))
    assert dec.r == 0
    assert reconstruct(dec).shape == (0, 4)
    assert np.allclose(dec.v_sympl @ diag_j(2) @ dec.v_sympl.T, diag_j(2), atol=1e-12)


def test_pzkv_rejects_nonisotropic():
    with pytest.raises(ValueError):
        pzkv_decompose(np.eye(4)[:2])


def test_pzkv_random_isotropic():
    rng = np.random.default_rng(47)
    for _ in range(30):
        m = int(rng.integers(1, 5))
        k = int(rng.integers(0, m + 1))
        span = random_symplectic(m, rng)[[2 * i for i in range(k)], :]
        rows = int(rng.integers(0, 6))
        m_mat = rng.standard_normal((rows, k)) @ span
        dec = pzkv_decompose(m_mat)
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
        n_mat = symplectic_complete(d_q).n_mat
        assert n_mat.shape == (0, 2 * m)


def test_pzkv_lagrangian_readout():
    rng = np.random.default_rng(73)
    for m in (1, 2, 4):
        span = random_symplectic(m, rng)[0::2]
        m_mat = np.vstack([span, rng.standard_normal((2, m)) @ span])
        dec = pzkv_decompose(m_mat)
        assert dec.r == m
        assert dec.v_sympl.shape == (2 * m, 2 * m)
        v = dec.v_sympl
        assert np.abs(v @ diag_j(m) @ v.T - diag_j(m)).max() < 1e-9
        assert np.abs(reconstruct(dec) - m_mat).max() < 1e-10 * (1 + np.abs(m_mat).max())


def test_pzkv_zero_rank():
    dec = pzkv_decompose(np.zeros((3, 6)))
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
        dec = pzkv_decompose(m_mat)
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
        dec = pzkv_decompose(m_mat)
        assert dec.z.shape == (m_mat.shape[0], dec.r)
        assert_basis_reconstructs(m_mat, dec)


def test_pzkv_duplicated_scaled_and_zero_rows():
    rng = np.random.default_rng(97)
    m = 4
    span = random_symplectic(m, rng)[0::2][:3]
    base = rng.standard_normal((3, 3)) @ span
    m_mat = np.vstack([base[0], np.zeros(2 * m), base[1], base[0], -2.5 * base[2],
                       base[2], 1e-3 * base[1], np.zeros(2 * m)])
    dec = pzkv_decompose(m_mat)
    assert dec.r == 3
    assert_basis_reconstructs(m_mat, dec)


def _qr_pivots(m_mat, r):
    return sorted(scipy.linalg.qr(m_mat.T, pivoting=True, mode="economic")[2][:r].tolist())


def _kernel_pivots(m_mat):
    return sorted(_pivoted_gram_schmidt(m_mat, matkit.DEFAULT_TOL)[0])


def test_pivot_rows_match_pivoted_qr():
    # generic rank-r matrices: greedy pivoted Gram-Schmidt takes the rows
    # that column-pivoted QR of m_mat.T takes first, and stops at the rank
    # the singular values give
    rng = np.random.default_rng(83)
    for _ in range(100):
        rows, cols = int(rng.integers(1, 13)), int(rng.integers(1, 25))
        r = int(rng.integers(1, min(rows, cols) + 1))
        m_mat = rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols))
        m_mat *= rng.uniform(0.1, 10.0, size=(rows, 1))
        pivots = _kernel_pivots(m_mat)
        assert len(pivots) == rank_tol(m_mat)
        assert pivots == _qr_pivots(m_mat, r)


def test_pivot_rows_match_pivoted_qr_on_couplings(monkeypatch):
    seen = []

    def spy(m_mat, tol):
        seen.append(np.array(m_mat))
        return pzkv_decompose(m_mat, tol)

    monkeypatch.setattr(synthesis, "pzkv_decompose", spy)
    for k in (1, 2, 4, 8):
        for seed in range(3):
            synthesize(generate_realizable(Dimensions(k, k, 2 * k, k, k), seed))
    assert len(seen) == 12
    for m_mat in seen:
        r = rank_tol(m_mat)
        pivots = _kernel_pivots(m_mat)
        assert len(pivots) == r
        assert pivots == _qr_pivots(m_mat, r)


@pytest.mark.parametrize("m_mat", [
    [[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 1.0, 0.0]],
    [[1.0, 0.0, 1.0, 0.0], [1.0, 0.0, -1.0, 0.0], [1.0, 0.0, 0.0, 0.0]],
    [[0.0, 0.0, 0.0, 0.0], [3.0, 0.0, 4.0, 0.0], [4.0, 0.0, 3.0, 0.0], [5.0, 0.0, 0.0, 0.0]],
])
def test_pzkv_exact_ties_still_verify(m_mat):
    # equal residual norms leave the pivot to the tie rule; whichever rows
    # are taken, the decomposition must hold
    m_mat = np.array(m_mat)
    dec = pzkv_decompose(m_mat)
    assert dec.r == 2
    assert np.abs(reconstruct(dec) - m_mat).max() <= 1e-12 * np.abs(m_mat).max()
    assert np.abs(dec.v_sympl @ diag_j(2) @ dec.v_sympl.T - diag_j(2)).max() <= 1e-12


# ------------------------------------------- pzkv_decompose: adversarial read-outs

def kahan(n, c=0.285):
    """Kahan's matrix (Kahan, 1966): diag(s^i) (I - c U) with U strictly upper
    ones and s^2 + c^2 = 1.  Column j is scaled by 1 - 1e-13 j, so that
    column-pivoted QR takes the columns in order and never sees its rank gap."""
    s = np.sqrt(1.0 - c * c)
    k = (s ** np.arange(n))[:, None] * (np.eye(n) - c * np.triu(np.ones((n, n)), 1))
    return k * (1.0 - 1e-13 * np.arange(n))


def assert_rank_tol_rank_or_raises(m_mat, theta, tol):
    # the count of singular values above tol sigma_1, or ValueError; a
    # returned decomposition holds
    # its own identities
    try:
        dec = pzkv_decompose(m_mat, tol)
    except ValueError as exc:
        return str(exc)
    assert dec.r == rank_tol(m_mat, tol)
    v = dec.v_sympl
    assert np.abs(v @ theta @ v.T - theta).max() <= 1e-6 * max(1.0, np.abs(v).max() ** 2)
    assert np.array_equal(v[0:2 * dec.r:2], (dec.p_perm.T @ m_mat)[:dec.r])
    assert np.abs(reconstruct(dec) - m_mat).max() <= tol * max(1.0, np.abs(m_mat).max())
    assert np.array_equal(dec.p_perm @ dec.p_perm.T, np.eye(len(m_mat)))
    return None


@pytest.mark.parametrize("tol", [1e-9, 1e-8])
@pytest.mark.parametrize("n", [60, 90, 100, 120])
@pytest.mark.parametrize("layout", ["rows", "columns"])
def test_pzkv_kahan_readout(layout, n, tol):
    # Kahan's matrix on the q columns, zero on the p columns: isotropic.
    # Under "columns" the read-out rows are Kahan's columns, the layout on
    # which pivoting misjudges the rank; there the certificate has to raise.
    k = kahan(n)
    m_mat = np.zeros((n, 2 * n))
    m_mat[:, 0::2] = k if layout == "rows" else k.T
    error = assert_rank_tol_rank_or_raises(m_mat, diag_j(n), tol)
    kernel_rank = len(_pivoted_gram_schmidt(m_mat, tol)[0])
    if kernel_rank != rank_tol(m_mat, tol):
        assert error is not None and error.startswith("the rank of m_mat is not well determined")
    if layout == "columns" and n >= 90:
        assert kernel_rank == n > rank_tol(m_mat, tol)


@pytest.mark.parametrize("n, cond", [(12, 1e4), (12, 1e6), (24, 1e7)])
def test_pivoted_gram_schmidt_stays_orthogonal_on_graded_rows(n, cond):
    # One Gram-Schmidt pass loses orthogonality like eps cond^2 (1.6e-4 at
    # cond 1e7); the second keeps it at round-off
    rng = np.random.default_rng(5)
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    m_mat = q1 @ np.diag(np.logspace(0, -np.log10(cond), n)) @ q2
    pivots, u, c = _pivoted_gram_schmidt(m_mat, 1e-9)
    assert len(pivots) == n == rank_tol(m_mat)
    assert np.abs(u @ u.T - np.eye(n)).max() <= 1e-14
    assert np.abs(c.T @ u - m_mat).max() <= 1e-14
    r_fac = c[:, pivots]
    assert np.abs(np.tril(r_fac, -1)).max() <= 1e-14
    assert np.abs(u.T @ np.triu(r_fac) - m_mat[pivots].T).max() <= 1e-14


@pytest.mark.parametrize("tol", [1e-9, 1e-8])
def test_pzkv_cut_counts_many_small_residual_rows(tol):
    # Sixteen rows whose residual norms are each tol/2 of the largest row,
    # in one common direction: sigma_2 = 2 tol sigma_1.  The largest residual
    # alone would stop at rank 1; their Frobenius norm does not.
    m_mat = np.zeros((17, 8))
    m_mat[0, 0] = 1.0
    m_mat[1:, 2] = tol / 2
    assert rank_tol(m_mat, tol) == 2
    assert len(_pivoted_gram_schmidt(m_mat, tol)[0]) == 2
    assert_rank_tol_rank_or_raises(m_mat, diag_j(4), tol)


@pytest.mark.parametrize("seed", [1, 2])
def test_pzkv_recomputes_downdated_norms_on_the_ladder(monkeypatch, seed):
    # At the cut the downdated norms of the k=32 coupling are round-off, and
    # without a recompute the pass takes 33 to 35 rows of rank 32
    seen = []

    def spy(m_mat, tol):
        seen.append((np.array(m_mat), tol))
        return pzkv_decompose(m_mat, tol)

    monkeypatch.setattr(synthesis, "pzkv_decompose", spy)
    synthesize(generate_realizable(Dimensions(32, 32, 64, 32, 32), seed))
    (m_mat, tol), = seen
    norms = []
    row_norms = matkit._row_norms

    def counted(resid):
        norms.append(resid.shape)
        return row_norms(resid)

    monkeypatch.setattr(matkit, "_row_norms", counted)
    assert assert_rank_tol_rank_or_raises(m_mat, diag_j(m_mat.shape[1] // 2), tol) is None
    assert rank_tol(m_mat, tol) == 32
    # the initial norms, then at least one recompute
    assert len(norms) >= 2


# ------------------------------------------------------------------ conditioning

def test_completion_conditioning_tracks_input():
    # d_q drawn from a symplectic T with cond(T) near 40: the completion may
    # not lose more than one order of magnitude against T itself.
    m = 32
    for seed in range(20):
        t = random_symplectic(m, np.random.default_rng(seed), spread=0.25)
        d_q = t[:m]
        n_mat = symplectic_complete(d_q).n_mat
        assert np.linalg.cond(np.vstack([d_q, n_mat])) <= 10 * np.linalg.cond(t)


def test_synthesis_factors_well_conditioned():
    for seed in range(8):
        real = synthesize(generate_realizable(Dimensions(16, 16, 32, 16, 16), seed))
        assert np.linalg.cond(np.vstack([real.g1.d_q, real.g1.d_q_prime])) <= 1e3
        assert np.linalg.cond(real.v_sympl) <= 1e4


# ------------------------------------------------------- the QR right solve
# _qr_minnorm solves (q1 r1)^T z = c on the economy QR of a matrix of full
# column rank: augment's b_prime and SymplecticCompletion.solve_d_q run it


def qr_right_solve(a, b):
    """x @ a = b, for a of full column rank, as augment solves it: z = x^T
    from the QR of a, then checked."""
    x = _qr_minnorm(*np.linalg.qr(a), b.T).T
    _check_consistent(x, a, b, matkit.DEFAULT_TOL)
    return x


def test_qr_right_solve_identity():
    b = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert np.allclose(qr_right_solve(np.eye(3), b), b, atol=1e-12)


def test_qr_right_solve_tall():
    a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    x = qr_right_solve(a, np.array([[2.0, 3.0]]))
    assert np.allclose(x, [[2.0, 3.0, 0.0]], atol=1e-12)


def test_consistency_check_rejects_inconsistent():
    # x @ a = b for a = [1 0 0] has no solution when b leaves its row space
    with pytest.raises(ValueError, match="inconsistent"):
        _check_consistent(np.ones((1, 1)), np.array([[1.0, 0.0, 0.0]]),
                          np.array([[0.0, 1.0, 0.0]]), matkit.DEFAULT_TOL)


def test_qr_right_solve_random_is_the_minimum_norm_solution():
    rng = np.random.default_rng(59)
    for _ in range(30):
        r, k = (int(rng.integers(1, 7)) for _ in range(2))
        c = int(rng.integers(1, r + 1))
        a = rng.standard_normal((r, c))
        x0 = rng.standard_normal((k, r))
        b = x0 @ a
        x = qr_right_solve(a, b)
        assert np.abs(x @ a - b).max() < 1e-10 * (1 + np.abs(b).max())
        assert np.linalg.norm(x) <= np.linalg.norm(x0) + 1e-9
        assert np.abs(x - minnorm_right_solve(a, b)).max() <= 1e-10 * (1 + np.abs(x).max())


# ------------------------------------------------------------------------ misc

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
        symplectic_complete(np.array([[1e200, 0, 0, 0], [0, 1e-200, 0, 0]]))
    with pytest.raises(ValueError, match="isotropic .*the scale overflowed"):
        pzkv_decompose(np.array([[1e200, 0.0]]))


def test_pzkv_overflowing_isotropy_check_warns_nothing():
    # m theta m^T overflows: the check fails on its infinite residual, and no
    # RuntimeWarning escapes before the error
    with pytest.raises(ValueError, match=r"^m_mat is not isotropic \(residual inf\)$"):
        pzkv_decompose(np.array([[1e200, 1e200]]))


# ------------------------------------------------------------- one pass rule

def pairing_rows():
    return random_symplectic(2, np.random.default_rng(4))[:2]


def isotropic_rows():
    return random_symplectic(3, np.random.default_rng(4))[0:4:2]


# Each verification matkit makes, by the start of its error text, with a
# passing call that reaches it.
VERIFICATIONS = [
    ("d_q does not satisfy the quadrature pairing precondition",
     lambda: symplectic_complete(pairing_rows())),
    ("completion failed to verify", lambda: symplectic_complete(pairing_rows())),
    ("m_mat is not isotropic", lambda: pzkv_decompose(isotropic_rows())),
    ("network failed to verify", lambda: pzkv_decompose(isotropic_rows())),
    ("x @ a = b is inconsistent: b is not in the row space of a",
     lambda: completion_of_one_pair().solve_d_q(np.ones((2, 1)))),
    ("skew canonical form failed to verify", lambda: skew_canonical(diag_j(2))),
    ("Ito factor failed to verify", lambda: ito_factorize(vacuum_fw(1))),
]


@pytest.mark.parametrize("prefix, call", VERIFICATIONS,
                         ids=["pairing", "completion", "isotropy", "network", "consistency",
                              "skew-congruence", "ito"])
@pytest.mark.parametrize("fault, detail", [
    ("nan-residual", "(residual nan"),
    ("inf-threshold", ", but the scale overflowed)"),
], ids=["nan-residual", "inf-threshold"])
def test_each_verification_fails_on_a_nan_residual_and_an_infinite_threshold(
        monkeypatch, prefix, call, fault, detail):
    # every verification decides through matkit._require, whose rule is
    # ConditionResult.passed's: both values finite and residual <= threshold
    call()
    require, seen = matkit._require, []

    def faulty(residual, threshold, message):
        if message.startswith(prefix):
            seen.append(message)
            if fault == "nan-residual":
                residual = float("nan")
            else:
                threshold = float("inf")
        return require(residual, threshold, message)

    monkeypatch.setattr(matkit, "_require", faulty)
    with pytest.raises(ValueError) as info:
        call()
    assert seen
    assert str(info.value).startswith(prefix + " (residual ")
    assert detail in str(info.value)


def test_pass_rule_is_condition_result_passed():
    # sysmodel._passes decides ConditionResult.passed, a report's verdict and
    # matkit._require alike: both values finite and residual <= threshold
    from qcsynth.realizability import ConditionResult, _make_report
    values = [0.0, 1.0, 2.0, -float("inf"), float("inf"), float("nan")]
    for residual in values:
        for threshold in values:
            want = (np.isfinite(residual) and np.isfinite(threshold)
                    and residual <= threshold)
            condition = ConditionResult("x", residual, threshold)
            assert sysmodel._passes(residual, threshold) == want, (residual, threshold)
            assert condition.passed == want, (residual, threshold)
            assert _make_report([condition]).verdict == want, (residual, threshold)
            try:
                matkit._require(residual, threshold, "failed ({})")
            except ValueError:
                assert not want, (residual, threshold)
            else:
                assert want, (residual, threshold)


def test_ito_overflowing_eigenvalue_fails_without_a_warning(capfd):
    # the eigenvalues of 1e308 (I + iJ) are 0 and 2e308, past the float
    # range: w holds inf * 0, and the NaN residual fails its check
    with pytest.raises(ValueError) as info:
        ito_factorize(1e308 * vacuum_fw(1))
    assert str(info.value) == "Ito factor failed to verify (residual nan)"
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("peak", [0.9e308, 1.7e308])
def test_skew_canonical_halves_before_it_subtracts(peak):
    # theta - theta^T overflows here; theta / 2 - theta^T / 2 does not
    theta = peak * diag_j(2)
    res = skew_canonical(theta)
    assert (res.n_q, res.n_c) == (2, 0)
    p = res.p
    assert np.abs((p @ theta) @ p.T - diag_j(2)).max() <= 1e-12


# ------------------------------------------- pzkv_decompose: both network branches

def counted_complete(monkeypatch):
    # the row count of every call to matkit._complete, in call order
    calls = []
    complete = matkit._complete

    def spy(*args, **kwargs):
        calls.append(args[0].shape[0])
        return complete(*args, **kwargs)

    monkeypatch.setattr(matkit, "_complete", spy)
    return calls


def assert_permutation_and_selector(dec, m_mat, m):
    rows = len(m_mat)
    # the per-entry loops that built both factors, as the reference
    basis_idx = _kernel_pivots(m_mat)
    assert len(basis_idx) == dec.r
    order = basis_idx + [i for i in range(rows) if i not in basis_idx]
    p_ref = np.zeros((rows, rows))
    for pos, orig in enumerate(order):
        p_ref[orig, pos] = 1.0
    k_ref = np.zeros((dec.r, 2 * m))
    for i in range(dec.r):
        k_ref[i, 2 * i] = 1.0
    assert np.array_equal(dec.p_perm, p_ref) and not np.signbit(dec.p_perm).any()
    assert np.array_equal(dec.k_sel, k_ref) and not np.signbit(dec.k_sel).any()
    p = dec.p_perm
    assert p.shape == (rows, rows)
    assert np.isin(p, (0.0, 1.0)).all()
    assert np.array_equal(p.sum(axis=0), np.ones(rows))
    assert np.array_equal(p.sum(axis=1), np.ones(rows))
    k = dec.k_sel
    assert k.shape == (dec.r, 2 * m)
    assert np.isin(k, (0.0, 1.0)).all()
    assert np.array_equal(k.sum(axis=1), np.ones(dec.r))
    assert np.array_equal(np.argmax(k, axis=1), 2 * np.arange(dec.r))


def test_pzkv_lagrangian_network_is_the_interleaved_lead(monkeypatch):
    calls = counted_complete(monkeypatch)
    rng = np.random.default_rng(83)
    for m in (1, 2, 3, 5):
        span = random_symplectic(m, rng)[0::2]
        m_mat = np.concatenate([rng.standard_normal((2, m)) @ span, span])
        dec = pzkv_decompose(m_mat)
        assert dec.r == m
        assert_permutation_and_selector(dec, m_mat, m)
        v = dec.v_sympl
        # 2r rows and no more: the pairs (L_i, W_i) with L the basis rows
        assert v.shape == (2 * m, 2 * m)
        basis = (dec.p_perm.T @ m_mat)[:m]
        assert np.array_equal(v[0::2], basis)
        assert np.abs(basis @ diag_j(m) @ v[1::2].T - np.eye(m)).max() < 1e-10
        assert np.abs(v[1::2] @ diag_j(m) @ v[1::2].T).max() < 1e-10
        assert np.abs(v @ diag_j(m) @ v.T - diag_j(m)).max() < 1e-10
        assert np.abs(reconstruct(dec) - m_mat).max() < 1e-10 * (1 + np.abs(m_mat).max())
    assert calls == []


def test_pzkv_partial_rank_network_is_completed(monkeypatch):
    calls = counted_complete(monkeypatch)
    rng = np.random.default_rng(89)
    cases = ((2, 1, 3), (4, 1, 1), (4, 3, 5), (6, 2, 4))   # (m', r, rows)
    for m, r, rows in cases:
        span = random_symplectic(m, rng)[0:2 * r:2]
        m_mat = rng.standard_normal((rows, r)) @ span
        dec = pzkv_decompose(m_mat)
        assert dec.r == r
        assert_permutation_and_selector(dec, m_mat, m)
        v = dec.v_sympl
        assert v.shape == (2 * m, 2 * m)
        assert np.array_equal(v[0:2 * r:2], (dec.p_perm.T @ m_mat)[:r])
        assert np.abs(v @ diag_j(m) @ v.T - diag_j(m)).max() < 1e-10
        assert np.abs(reconstruct(dec) - m_mat).max() < 1e-10 * (1 + np.abs(m_mat).max())
    # one completion of the 2r lead rows per call
    assert calls == [2 * r for _, r, _ in cases]


# ---------------------------------------------------------------- input errors

def completion_of_one_pair():
    return symplectic_complete(random_symplectic(2, np.random.default_rng(4))[:2])


@pytest.mark.parametrize("call, message", [
    (lambda: skew_canonical(np.zeros((2, 3))), "theta must be square, got shape (2, 3)"),
    (lambda: ito_factorize(np.zeros((2, 3))), "f_v must be square, got shape (2, 3)"),
    (lambda: symplectic_complete(np.zeros((1, 4))),
     "d_q must have an even row count and an even column count, got shape (1, 4)"),
    (lambda: symplectic_complete(np.zeros((4, 2))),
     "d_q has 2 quadrature pairs but only m=1 channels"),
    (lambda: pzkv_decompose(np.zeros((1, 3))),
     "m_mat must have an even column count, got shape (1, 3)"),
    (lambda: completion_of_one_pair().solve_d_q(np.ones((3, 1))),
     "c must have shape (2, cols) to match d_q of shape (2, 4), got shape (3, 1)"),
    (lambda: completion_of_one_pair().solve_d_q(np.ones(2)),
     "c must have shape (2, cols) to match d_q of shape (2, 4), got shape (2,)"),
    (lambda: completion_of_one_pair().solve_n_mat(np.ones((1, 3))),
     "m_rhs must have shape (rows, 4) to match n_mat of shape (2, 4), got shape (1, 3)"),
], ids=["skew_canonical-non-square", "ito_factorize-non-square", "completion-odd-rows",
        "completion-n_yq-above-m", "pzkv-column-mismatch", "solve_d_q-row-mismatch",
        "solve_d_q-1-d", "solve_n_mat-column-mismatch"])
def test_input_errors_name_the_problem(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


NAN, INF = float("nan"), float("inf")
INCONSISTENT = "x @ a = b is inconsistent: b is not in the row space of a (residual nan)"


@pytest.mark.parametrize("call, message", [
    (lambda: skew_canonical([[0.0, NAN], [NAN, 0.0]]), "theta has a non-finite entry"),
    (lambda: skew_canonical([[0.0, INF], [-INF, 0.0]]), "theta has a non-finite entry"),
    (lambda: ito_factorize([[NAN]]), "f_v has a non-finite entry"),
    (lambda: ito_factorize([[complex(1.0, INF)]]), "f_v has a non-finite entry"),
    (lambda: completion_of_one_pair().solve_d_q([[1.0], [NAN]]), INCONSISTENT),
    (lambda: completion_of_one_pair().solve_d_q([[1.0], [INF]]), INCONSISTENT),
    (lambda: completion_of_one_pair().solve_n_mat([[NAN, 0.0, 0.0, 1.0]]), INCONSISTENT),
], ids=["skew_canonical-nan", "skew_canonical-inf", "ito_factorize-nan", "ito_factorize-inf",
        "solve_d_q-nan", "solve_d_q-inf", "solve_n_mat-nan"])
def test_non_finite_input_is_rejected(call, message, capfd):
    # A NaN fails no `residual > bound` test, so each verifier would pass it
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
    # rejected before LAPACK, which prints its own complaint about a NaN
    assert capfd.readouterr() == ("", "")


# ---------------------------------------------- theta read off the input width

@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_no_rows_of_width_2m_give_the_whole_space(m):
    # with theta = diag_j(m) read off the width, no rows complete to a
    # 2m x 2m symplectic matrix and decompose at rank 0
    n_mat = symplectic_complete(np.zeros((0, 2 * m))).n_mat
    assert n_mat.shape == (2 * m, 2 * m)
    assert np.abs(n_mat @ diag_j(m) @ n_mat.T - diag_j(m)).max(initial=0.0) <= 1e-12
    dec = pzkv_decompose(np.zeros((0, 2 * m)))
    assert dec.r == 0
    assert dec.v_sympl.shape == (2 * m, 2 * m)
    assert reconstruct(dec).shape == (0, 2 * m)


@pytest.mark.parametrize("shape", [(0, 1), (0, 3), (2, 5), (0,), (4,), (2, 2, 2)], ids=str)
def test_odd_widths_and_other_ranks_are_rejected_by_shape(shape):
    rows = np.zeros(shape)
    with pytest.raises(ValueError) as info:
        symplectic_complete(rows)
    assert str(info.value) == ("d_q must have an even row count and an even column count, "
                               f"got shape {shape}")
    with pytest.raises(ValueError) as info:
        pzkv_decompose(rows)
    assert str(info.value) == f"m_mat must have an even column count, got shape {shape}"
