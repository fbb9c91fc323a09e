"""Matrix decompositions and solvers behind the realizability constructions.

Everything here is a pure function of its arguments.  One tolerance
convention is used throughout: a quantity counts as zero when its max-norm
stays below tol * max(1, scale), with scale drawn from the operands that
produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sysmodel import _canonical_j, _fro, _j_times, _maxabs, _passes, _times_j

__all__ = [
    "DEFAULT_TOL",
    "SkewCanonicalResult",
    "ItoFactorization",
    "SymplecticCompletion",
    "PzkvDecomposition",
    "skew_canonical",
    "ito_factorize",
    "symplectic_complete",
    "pzkv_decompose",
    "random_symplectic",
]

DEFAULT_TOL = 1e-9


# The bound of the symplectic identity V theta V^T = theta, relative to
# max|V|^2: a network factor or completion passes below it.
_SYMPLECTIC_TOL = 1e-6


def _bound(tol: float, mat: np.ndarray, factor: float = 1.0) -> float:
    # tol * max(1, max|mat|^2 * factor): the scale of a product mat theta mat^T.
    # The float product overflows to inf where ** 2 raises.
    peak = _maxabs(mat)
    return tol * max(1.0, peak * peak * factor)


def _pairing(rows: np.ndarray, tol: float | None = None, paired: bool = True,
             left: np.ndarray | None = None) -> tuple[float, float]:
    """max|rows theta rows^T - diag_j(len(rows) / 2)|, or max|rows theta rows^T|
    when not paired, and its threshold: _bound(tol, rows, column count), or
    with tol None that of the symplectic identity, _bound(_SYMPLECTIC_TOL,
    rows).  left is rows @ theta if the caller has it.  Rows that can
    overflow are passed under np.errstate."""
    # unnamed, a product made here is freed at once: held, it cost page faults at k = 32
    gram = (_times_j(rows) if left is None else left) @ rows.T
    if paired:
        gram -= _canonical_j(len(rows) // 2)
    if tol is None:
        return _maxabs(gram), _bound(_SYMPLECTIC_TOL, rows)
    return _maxabs(gram), _bound(tol, rows, rows.shape[1])


def _require(residual: float, threshold: float, message: str) -> None:
    """Raise ValueError(message.format("residual ...")) unless the pair
    passes, by the rule of sysmodel._passes.  The text says when the scale
    overflowed: the residual may then be exact."""
    if _passes(residual, threshold):
        return
    detail = f"residual {residual:.3e}"
    if math.isfinite(residual) and not math.isfinite(threshold):
        detail += ", but the scale overflowed"
    raise ValueError(message.format(detail))


def _require_pairing(d_q: np.ndarray, tol: float, left: np.ndarray | None = None) -> None:
    """The quadrature pairing precondition d_q theta_w d_q^T = diag_j, to
    the bound of _pairing; left is d_q @ theta_w if the caller has it.  An
    overflow fails it."""
    with np.errstate(over="ignore", invalid="ignore"):
        _require(*_pairing(d_q, tol, left=left),
                 "d_q does not satisfy the quadrature pairing precondition ({})")


def _finite_maxabs(a: np.ndarray, name: str) -> float:
    # max|a|, which is NaN or inf exactly when an entry is.  LAPACK prints
    # an error of its own on a NaN.
    peak = _maxabs(a)
    if not math.isfinite(peak):
        raise ValueError(f"{name} has a non-finite entry")
    return peak


@dataclass(frozen=True)
class SkewCanonicalResult:
    """Congruence p with p @ theta @ p.T = diag(diag_{n_q}(J), 0)."""

    p: np.ndarray
    n_q: int
    n_c: int


def _skew_pairs(theta: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, int]:
    """The unverified kernel of skew_canonical, on a skew-symmetric theta.

    Returns (p, lam, n_q): the eigenvalues lam of i*theta in ascending
    order, n_q of them above the cut, and orthonormal rows p with
    p theta p^T = diag(b_1 J, ..., b_nq J, ~0) up to round-off, where
    b = lam[n - n_q:].  Dividing pair j by sqrt(b_j) gives the congruence.
    """
    n = theta.shape[0]
    if n == 0:
        return np.zeros((0, 0)), np.zeros(0), 0
    lam, v = np.linalg.eigh(1j * theta)
    n_q = int(np.count_nonzero(lam > tol * lam[-1]))
    v = v[:, n - n_q:]
    mags = np.abs(v)
    lead = np.argmax(mags >= (1.0 - 1e-12) * mags.max(axis=0), axis=0)
    lead_entry = v[lead, np.arange(n_q)]
    v = v * (np.sqrt(2.0) * 1j * np.abs(lead_entry) / lead_entry)
    # Orthonormal rows u first: u theta u^T = diag(b_1 J, ..., 0) holds up to
    # round-off and, on the free rows, the eigenvalues below the cut.
    p = np.empty((n, n))
    p[0:2 * n_q:2], p[1:2 * n_q:2] = v.imag.T, v.real.T
    if 2 * n_q < n:
        q, _ = np.linalg.qr(p[:2 * n_q].T, mode="complete")
        p[2 * n_q:] = q[:, 2 * n_q:].T
    return p, lam, n_q


def _scale_pairs(p: np.ndarray, b: np.ndarray) -> None:
    # pair j of p scaled by 1/sqrt(b_j), in place
    p[:2 * len(b)] /= np.repeat(np.sqrt(b), 2)[:, None]


def skew_canonical(theta, tol: float = DEFAULT_TOL) -> SkewCanonicalResult:
    """Bring a real skew-symmetric matrix to canonical form by congruence.

    i*theta is Hermitian with eigenvalues +-b (Ward and Gray, ACM TOMS
    1978).  An eigenvector x + i*y for b > tol * max(b) has theta x = b y,
    theta y = -b x and |x|^2 = |y|^2 = 1/2, so sqrt(2/b) * (y, x) is one J
    pair; a complete QR of their span gives the free rows, and n_q = rank/2.
    Phases are fixed (largest entry, first on ties, turned to +i|entry|)
    for a deterministic p, and the congruence is verified before returning.
    """
    theta = np.asarray(theta, dtype=float)
    n = theta.shape[0]
    if theta.ndim != 2 or theta.shape != (n, n):
        raise ValueError(f"theta must be square, got shape {theta.shape}")
    if n == 0:
        return SkewCanonicalResult(np.zeros((0, 0)), 0, 0)
    scale = max(1.0, _finite_maxabs(theta, "theta"))
    skew_defect = _maxabs(theta + theta.T)
    if skew_defect > tol * scale:
        raise ValueError("theta is not skew-symmetric within tolerance "
                         f"(max residual {skew_defect:.3e})")
    # halved first: theta - theta^T would overflow from max|theta| = 0.9e308 on
    theta = theta / 2.0 - theta.T / 2.0
    p, lam, n_q = _skew_pairs(theta, tol)
    b = lam[n - n_q:]
    resid = p @ theta @ p.T
    pairs = np.arange(0, 2 * n_q, 2)
    resid[pairs, pairs + 1] -= b
    resid[pairs + 1, pairs] += b
    _require(_maxabs(resid), tol * lam[-1] + 1e-6 * scale,
             "skew canonical form failed to verify ({})")
    _scale_pairs(p, b)
    return SkewCanonicalResult(p, n_q, n - 2 * n_q)


@dataclass(frozen=True)
class ItoFactorization:
    """Real m x 2m factor w with w @ F_w @ w.T = f_v."""

    w: np.ndarray


def ito_factorize(f_v, tol: float = DEFAULT_TOL) -> ItoFactorization:
    """Factor a Hermitian nonnegative Ito matrix through the vacuum F_w.

    Construction: eigendecompose f_v = U diag(lam) U^H and route each
    eigenpair through one field channel: channel j of w is
    sqrt(lam_j) * [Im u_j, Re u_j], whose two columns contribute
    lam_j * u_j u_j^H to w @ F_w @ w.T.  Eigenvalues in [-tol, 0) are clamped
    to zero.  The identity is verified against the Hermitian part of f_v
    that was factored, to the bound plus the largest eigenvalue the clamp
    removed.
    """
    f_v = np.asarray(f_v, dtype=complex)
    m = f_v.shape[0]
    if f_v.ndim != 2 or f_v.shape != (m, m):
        raise ValueError(f"f_v must be square, got shape {f_v.shape}")
    if m == 0:
        return ItoFactorization(np.zeros((0, 0)))
    scale = max(1.0, _finite_maxabs(f_v, "f_v"))
    herm_defect = _maxabs(f_v - f_v.conj().T)
    if herm_defect > tol * scale:
        raise ValueError("f_v is not Hermitian within tolerance "
                         f"(max asymmetry {herm_defect:.3e})")
    herm = f_v / 2.0 + f_v.conj().T / 2.0    # halved first, as in skew_canonical
    lam, u = np.linalg.eigh(herm)
    if lam[0] < -tol * scale:
        raise ValueError(f"f_v has a negative eigenvalue ({lam[0]:.6e})")
    # an eigenvalue past the float range makes w, and so the residual, NaN
    with np.errstate(over="ignore", invalid="ignore"):
        root = np.sqrt(np.clip(lam, 0.0, None))
        w = np.empty((m, 2 * m))
        w[:, 0::2] = u.imag * root
        w[:, 1::2] = u.real * root
        # w F_w w^T = w w^T + i (w J) w^T, which differs from herm by the
        # clamped part U diag(min(lam, 0)) U^H, at most -lam[0] in any entry
        check = _maxabs(np.hypot(w @ w.T - herm.real, _times_j(w) @ w.T - herm.imag))
    _require(check, max(tol, 1e-12) * scale + max(0.0, -lam[0]),
             "Ito factor failed to verify ({})")
    return ItoFactorization(w)


@dataclass(frozen=True)
class SymplecticCompletion:
    """Rows n_mat extending d_q to a symplectic matrix, with the factors behind them.

    With k = d_q.shape[0] and theta_w = diag_j(m), the complete QR
    (d_q @ theta_w).T = q @ r gives d_q.T = theta_w @ Q1 @ R1 for
    Q1 = q[:, :k] and R1 = r[:k] (theta_w is orthogonal and equals its own
    inverse transpose).  The trailing columns B = q[:, k:].T are an
    orthonormal basis of the symplectic complement, the skew_canonical
    congruence p brings B @ theta_w @ B.T to diag(J), and n_mat = p @ B.
    solve_d_q and solve_n_mat reuse these factors for the minimum-norm
    solves against d_q and n_mat.
    """

    n_mat: np.ndarray
    d_q: np.ndarray
    q: np.ndarray
    r: np.ndarray
    p: np.ndarray

    def solve_d_q(self, c, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Minimum-Frobenius-norm solution x of d_q @ x = c.

        x = theta_w Q1 R1^-T c lies in the row space of d_q, and
        d_q @ x = R1^T R1^-T c: one k x k triangular solve.  Every column of
        c has to lie in the column space of d_q; raises with the residual
        norm otherwise.
        """
        c = np.asarray(c, dtype=float)
        k = self.d_q.shape[0]
        if c.ndim != 2 or c.shape[0] != k:
            raise ValueError(f"c must have shape ({k}, cols) to match d_q of shape "
                             f"{self.d_q.shape}, got shape {c.shape}")
        x = _j_times(_qr_minnorm(self.q[:, :k], self.r[:k], c))
        _check_consistent(x.T, self.d_q.T, c.T, tol)
        return x

    def solve_n_mat(self, m_rhs, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Minimum-Frobenius-norm solution x of x @ n_mat = m_rhs.

        x = (m_rhs B^T) p^-1, one square solve against p: B^T p^-1 is the
        Moore-Penrose inverse of n_mat = p B because the rows of B are
        orthonormal and p is invertible.  Every row of m_rhs has to lie in
        the row space of n_mat; raises with the residual norm otherwise.
        """
        m_rhs = np.asarray(m_rhs, dtype=float)
        width = self.n_mat.shape[1]
        if m_rhs.ndim != 2 or m_rhs.shape[1] != width:
            raise ValueError(f"m_rhs must have shape (rows, {width}) to match n_mat of shape "
                             f"{self.n_mat.shape}, got shape {m_rhs.shape}")
        k = self.d_q.shape[0]
        x = np.linalg.solve(self.p.T, (m_rhs @ self.q[:, k:]).T).T
        _check_consistent(x, self.n_mat, m_rhs, tol)
        return x


def _qr_minnorm(q1: np.ndarray, r1: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Minimum-Frobenius-norm solution z of (q1 @ r1).T @ z = c.

    q1 has orthonormal columns and r1 is square and invertible: the economy
    QR factors of a matrix of full column rank.  z = q1 r1^-T c lies in the
    column space of q1 r1, and (q1 r1)^T z = r1^T r1^-T c: one solve
    against r1^T.  A singular r1 raises LinAlgError.
    """
    return q1 @ np.linalg.solve(r1.T, c)


def _complete(rows: np.ndarray, rows_theta: np.ndarray, tol: float) -> SymplecticCompletion:
    """Complete `rows` with canonical J-pairs spanning their symplectic complement.

    With theta = diag_j of half the column count, rows must satisfy
    rows @ theta @ rows.T = diag(J, ..., J), so they have
    full row rank k and their complement {x : rows @ theta @ x = 0} is a
    symplectic subspace of dimension dim - k.  The trailing columns of a
    complete QR of rows_theta.T, with rows_theta = rows @ theta from the
    caller, are an orthonormal basis B of it; the skew_canonical kernel
    brings the restricted form B @ theta @ B.T to diag(J) by a congruence p,
    and p @ B are the pairs.  The congruence is not verified here: both
    callers verify the whole completion as V theta V^T = theta.
    """
    k = rows.shape[0]
    q, r = np.linalg.qr(rows_theta.T, mode="complete")
    basis = q[:, k:].T
    form = _times_j(basis) @ basis.T
    p, lam, n_q = _skew_pairs((form - form.T) / 2.0, tol)
    if 2 * n_q < len(p):
        raise ValueError("completion failed: the symplectic complement is "
                         "degenerate (input rows numerically rank deficient)")
    _scale_pairs(p, lam[n_q:])   # b = lam[n - n_q:] with n = 2 n_q
    return SymplecticCompletion(p @ basis, rows, q, r, p)


def _verify_symplectic(full: np.ndarray, what: str) -> None:
    _require(*_pairing(full),
             what + " failed to verify ({}); the input rows are numerically rank deficient")


def symplectic_complete(d_q, tol: float = DEFAULT_TOL) -> SymplecticCompletion:
    """Complete quadrature output rows to a full symplectic transformation.

    d_q has 2 n_yq rows and 2m columns, and with theta_w = diag_j(m) it must
    satisfy d_q @ theta_w @ d_q.T = diag_{n_yq}(J); the returned
    n_mat stacks under d_q so that the whole matrix V satisfies
    V @ theta_w @ V.T = theta_w.  Closed form: n_mat is an orthonormal
    basis of the symplectic complement of d_q's rows, brought to canonical
    pairs by skew_canonical on the restricted form.  The identity is
    verified before returning.  The result keeps the QR factors and the
    congruence, which serve minimum-norm solves against d_q and n_mat
    (see SymplecticCompletion).
    """
    d_q = np.asarray(d_q, dtype=float)
    if d_q.ndim != 2 or d_q.shape[0] % 2 or d_q.shape[1] % 2:
        raise ValueError("d_q must have an even row count and an even column count, "
                         f"got shape {d_q.shape}")
    n_yq, m = d_q.shape[0] // 2, d_q.shape[1] // 2
    if n_yq > m:
        raise ValueError(f"d_q has {n_yq} quadrature pairs but only m={m} channels")
    d_q_theta = _times_j(d_q)
    _require_pairing(d_q, tol, left=d_q_theta)
    completion = _complete(d_q, d_q_theta, tol)
    _verify_symplectic(np.concatenate([d_q, completion.n_mat]), "completion")
    return completion


@dataclass(frozen=True)
class PzkvDecomposition:
    """Factorization M = P Z K V of an isotropic read-out matrix.

    p_perm is a permutation, z = (I_r ; X) up to that permutation, k_sel
    selects rows 0, 2, ..., 2r - 2 of the symplectic v_sympl (the q
    quadratures of its first r pairs), and the chosen basis rows of M sit
    verbatim at those rows of v_sympl.
    """

    p_perm: np.ndarray
    z: np.ndarray
    k_sel: np.ndarray
    v_sympl: np.ndarray
    r: int


# Downdated squared row norms are recomputed from m_mat - c.T @ u once the
# largest falls below this fraction of its last exact value: below it,
# cancellation has eaten half their digits.  xGEQP3 applies the same test
# column by column (Drmac and Bujanovic, LAPACK Working Note 176, 2006).
_RENORM_FRACTION = math.sqrt(np.finfo(float).eps)


def _row_norms(resid: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", resid, resid)


def _pivoted_gram_schmidt(m_mat: np.ndarray,
                          tol: float) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Column-pivoted QR of m_mat.T, as Gram-Schmidt on the rows of m_mat.

    Returns (pivots, u, c): the rows taken, in pivot order, orthonormal
    rows u (r x cols) and the coefficients c = u @ m_mat.T (r x rows).  So
    m_mat[pivots].T = u.T @ R with R the upper triangle of c[:, pivots],
    and m_mat ~ c.T @ u.  Each step takes the row with the largest
    residual norm (the first on ties; Businger and Golub, Numer. Math.
    1965), orthogonalizes it against u twice (left-looking, so no residual
    matrix is updated; "twice is enough": Giraud, Langou and Rozloznik,
    2005) and downdates every squared residual norm by its new coefficient
    squared.  The loop stops, fixing the rank r, once the residual
    m_mat - c.T @ u has a Frobenius norm of at most tol times the largest
    row norm of m_mat: that bounds sigma_{r+1} by tol * sigma_1, so r is
    never below the count of singular values above tol * sigma_1.
    """
    rows, cols = m_mat.shape
    steps = min(rows, cols)
    u = np.empty((steps, cols))
    c = np.empty((steps, rows))
    pivots = []
    norms = _row_norms(m_mat)
    exact = norms.max(initial=0.0)
    cut = tol * tol * exact
    for j in range(steps):
        i = norms.argmax()
        top = norms[i]
        if top < _RENORM_FRACTION * exact:
            norms = _row_norms(m_mat - c[:j].T @ u[:j])
            norms[pivots] = 0.0
            i = norms.argmax()
            top = exact = norms[i]
        if top <= cut and norms.sum() <= cut:
            break
        # np.dot: on these small operands its dispatch is cheaper than @
        done = u[:j]
        v = m_mat[i] - np.dot(c[:j, i], done)
        v -= np.dot(np.dot(done, v), done)
        u[j] = v / math.sqrt(np.dot(v, v))
        coef = np.dot(m_mat, u[j], out=c[j])
        norms -= coef * coef
        norms[i] = 0.0
        pivots.append(int(i))
    r = len(pivots)
    return pivots, u[:r], c[:r]


def pzkv_decompose(m_mat, tol: float = DEFAULT_TOL) -> PzkvDecomposition:
    """Split an isotropic matrix into permutation, basis, selection and network.

    m_mat has 2m' columns, and with theta_prime = diag_j(m') it must satisfy
    m_mat @ theta_prime @ m_mat.T = 0; the rank r of m_mat can then
    not exceed half the symplectic dimension.  m_mat is factored once, by
    pivoted Gram-Schmidt on its rows (see _pivoted_gram_schmidt), which
    gives the rank, the basis rows L and the QR factors L^T = Q R.  Its cut
    is on the residual: the Frobenius norm of the rows left after projecting
    out L is at most tol times the largest row norm of m_mat.  That bounds
    sigma_{r+1} by tol * sigma_1, and sigma_r >= 1 / |W|_F bounds the rank
    from below: raises when tol |W|_F |m_mat|_F >= 1, where the rank is not
    well determined.  A returned r counts the singular values above
    tol * sigma_1, up to round-off.  The remaining rows are recovered through Z.
    Closed form for v_sympl: the dual rows W = R^-1 Q^T theta_prime satisfy
    L theta W^T = I, and W -= (W theta W^T) L / 2 makes them isotropic while
    keeping that identity (L theta L^T = 0).  The remaining rows M_o = X L
    then give X = M_o theta W^T.  The pairs (L_i, W_i), with L in row order,
    lead v_sympl, with L copied verbatim.  When r < m' the symplectic
    complement of their span completes it as in symplectic_complete; a
    Lagrangian read-out (r = m') needs no completion, since its r pairs
    already form a square symplectic matrix.  Both the symplectic identity
    and the embedded basis rows are verified before returning, on either
    branch.
    """
    m_mat = np.asarray(m_mat, dtype=float)
    if m_mat.ndim != 2 or m_mat.shape[1] % 2:
        raise ValueError(f"m_mat must have an even column count, got shape {m_mat.shape}")
    rows, two_mp = m_mat.shape
    m_prime = two_mp // 2
    m_theta = _times_j(m_mat)
    with np.errstate(over="ignore", invalid="ignore"):    # an overflow fails the check
        _require(*_pairing(m_mat, tol, paired=False, left=m_theta),
                 "m_mat is not isotropic ({})")
    pivots, u, c = _pivoted_gram_schmidt(m_mat, tol)
    r = len(pivots)
    if r > m_prime:
        raise ValueError(f"rank {r} exceeds the isotropic bound m'={m_prime}")

    # Dual rows in pivot order from L^T = Q R with Q = u.T and R the upper
    # triangle of Q^T L^T = c[:, pivots], then in row order.
    dual = np.linalg.solve(np.triu(c[:, pivots]), _times_j(u))[np.argsort(pivots)]
    # sigma_r(m_mat) >= sigma_min(L) = 1 / |R^-1|_2 >= 1 / |W|_F, so at least
    # r singular values lie above tol * sigma_1 when tol |W|_F |m_mat|_F < 1
    # (|m_mat|_F >= sigma_1); otherwise the rank is not well determined at tol.
    ambiguity = tol * _fro(dual) * _fro(m_mat)
    if ambiguity >= 1.0:
        raise ValueError(f"the rank of m_mat is not well determined at tol {tol:.1e}: "
                         f"tol |W|_F |m_mat|_F = {ambiguity:.3e} for the {r} basis rows "
                         "is not below 1")
    # The basis rows in row order, then the others
    taken = np.zeros(rows, dtype=bool)
    taken[pivots] = True
    order = np.argsort(~taken, kind="stable")
    basis, others = m_mat[order[:r]], m_mat[order[r:]]
    dual -= 0.5 * (_times_j(dual) @ dual.T) @ basis

    # Remaining rows in the chosen basis: theta_prime @ dual.T is a right
    # inverse of basis.  Consistency is implied by the rank computation but
    # is still verified.
    x = m_theta[order[r:]] @ dual.T
    _check_consistent(x, basis, others, tol)
    z = np.concatenate([np.eye(r), x])
    p_perm = np.eye(rows)[:, order]
    k_sel = np.eye(two_mp)[0:2 * r:2]
    lead = np.empty((2 * r, two_mp))
    lead[0::2], lead[1::2] = basis, dual
    if r == m_prime:
        # A Lagrangian read-out: the pairs span the whole space, and lead is
        # already the square symplectic network.
        v_sympl = lead
    else:
        completion = _complete(lead, _times_j(lead), tol)
        v_sympl = np.concatenate([lead, completion.n_mat])
    _verify_symplectic(v_sympl, "network")
    if not (v_sympl[0:2 * r:2] == basis).all():
        raise ValueError("network does not embed the basis rows verbatim")
    return PzkvDecomposition(p_perm, z, k_sel, v_sympl, r)


def _check_consistent(x: np.ndarray, a: np.ndarray, b: np.ndarray, tol: float) -> None:
    _require(_maxabs(x @ a - b), tol * max(1.0, _maxabs(b)),
             "x @ a = b is inconsistent: b is not in the row space of a ({})")


# Numerator coefficients of the degree-13 diagonal Pade approximant to exp,
# and the largest 1-norm at which its backward error stays below 2^-53
# (Higham, SIAM J. Matrix Anal. Appl. 2005).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(x: np.ndarray) -> np.ndarray:
    """exp(x) by scaling and squaring with the degree-13 Pade approximant.

    x is scaled by 2^-s so that its 1-norm is at most theta_13, r(x) =
    (V - U)^-1 (V + U) with U and V the odd and even parts of the
    numerator, and the result is squared s times (Higham 2005).  r(-x) =
    r(x)^-1, so for a Hamiltonian x the approximant, and every square of
    it, is exactly symplectic (Hairer, Lubich and Wanner, Geometric
    Numerical Integration, 2006, section IV.8).
    """
    norm = float(np.abs(x).sum(axis=0).max(initial=0.0))
    squarings = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    x = x * math.ldexp(1.0, -squarings)
    b = _PADE13
    eye = np.eye(x.shape[0])
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
             + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * eye)
    v = (x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
         + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r


def random_symplectic(m: int, rng: np.random.Generator, spread: float = 0.5) -> np.ndarray:
    """Random symplectic matrix exp(diag_m(J) @ S) with S symmetric.

    The exponential of a Hamiltonian matrix is symplectic, and so is the
    Pade approximant _expm takes of it: the result satisfies
    T @ diag_m(J) @ T.T = diag_m(J) up to round-off.
    """
    s = rng.standard_normal((2 * m, 2 * m)) * spread
    s = (s + s.T) / 2.0
    return _expm(_j_times(s))


def __getattr__(name: str):
    # perfbench/tracing.py reads and rebinds this module's `scipy` name to
    # count its `scipy.linalg.orth` calls.  Nothing here calls scipy, so it is
    # imported only when that name is read; the next change to the benchmark
    # retires this shim together with that counter.
    if name == "scipy":
        import scipy
        return scipy
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
