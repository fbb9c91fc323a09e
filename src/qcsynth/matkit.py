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

from .sysmodel import _maxabs, diag_j

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
    "minnorm_right_solve",
    "rank_tol",
    "random_symplectic",
]

DEFAULT_TOL = 1e-9


def _excess(defect: float, tol: float, mat: np.ndarray, factor: float = 1.0) -> str:
    # "" when defect <= tol * max(1, max|mat|^2 * factor), else the text an
    # error message quotes.  The float product overflows to inf where ** 2
    # raises, and a bound that is not finite fails its check, as an infinite
    # threshold fails in ConditionResult.passed; the text says so, because
    # the residual itself may then be exact.
    peak = _maxabs(mat)
    bound = tol * max(1.0, peak * peak * factor)
    if defect <= bound < np.inf:
        return ""
    if not np.isfinite(bound):
        return f"residual {defect:.3e}, but the scale overflowed"
    return f"residual {defect:.3e}"


def rank_tol(m_mat, tol: float = DEFAULT_TOL) -> int:
    """Numerical rank: count of singular values above tol times the largest."""
    m_mat = np.asarray(m_mat, dtype=float)
    if m_mat.size == 0:
        return 0
    s = np.linalg.svd(m_mat, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


@dataclass(frozen=True)
class SkewCanonicalResult:
    """Congruence p with p @ theta @ p.T = diag(diag_{n_q}(J), 0)."""

    p: np.ndarray
    n_q: int
    n_c: int


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
    scale = max(1.0, _maxabs(theta))
    skew_defect = _maxabs(theta + theta.T)
    if skew_defect > tol * scale:
        raise ValueError("theta is not skew-symmetric within tolerance "
                         f"(max residual {skew_defect:.3e})")
    theta = (theta - theta.T) / 2.0
    lam, v = np.linalg.eigh(1j * theta)
    n_q = int(np.count_nonzero(lam > tol * lam[-1]))
    b, v = lam[n - n_q:], v[:, n - n_q:]
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
    resid = p @ theta @ p.T
    pairs = np.arange(0, 2 * n_q, 2)
    resid[pairs, pairs + 1] -= b
    resid[pairs + 1, pairs] += b
    check = _maxabs(resid)
    if check > tol * lam[-1] + 1e-6 * scale:
        raise ValueError(f"skew canonical form failed to verify (residual {check:.3e})")
    p[:2 * n_q] /= np.repeat(np.sqrt(b), 2)[:, None]   # pair j scaled by 1/sqrt(b_j)
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
    to zero, and the identity is verified against the clamped matrix.
    """
    f_v = np.asarray(f_v, dtype=complex)
    m = f_v.shape[0]
    if f_v.ndim != 2 or f_v.shape != (m, m):
        raise ValueError(f"f_v must be square, got shape {f_v.shape}")
    if m == 0:
        return ItoFactorization(np.zeros((0, 0)))
    scale = max(1.0, _maxabs(f_v))
    herm_defect = _maxabs(f_v - f_v.conj().T)
    if herm_defect > tol * scale:
        raise ValueError("f_v is not Hermitian within tolerance "
                         f"(max asymmetry {herm_defect:.3e})")
    lam, u = np.linalg.eigh((f_v + f_v.conj().T) / 2.0)
    if lam.min() < -tol * scale:
        raise ValueError(f"f_v has a negative eigenvalue ({lam.min():.6e})")
    root = np.sqrt(np.clip(lam, 0.0, None))
    w = np.empty((m, 2 * m))
    w[:, 0::2] = u.imag * root
    w[:, 1::2] = u.real * root
    # w F_w w^T = w w^T + i (w J) w^T, and w J swaps each column pair
    w_j = np.empty_like(w)
    w_j[:, 0::2] = -w[:, 1::2]
    w_j[:, 1::2] = w[:, 0::2]
    target = (u * root ** 2) @ u.conj().T
    check = _maxabs(np.hypot(w @ w.T - target.real, w_j @ w.T - target.imag))
    if check > max(tol, 1e-12) * scale:
        raise ValueError(f"Ito factor failed to verify (residual {check:.3e})")
    return ItoFactorization(w)


def _check_canonical_form(theta: np.ndarray, tol: float, name: str) -> None:
    # Both completions emit canonical J-pairs, and the dual rows in
    # pzkv_decompose pair with their basis through theta @ theta.T = I;
    # for a skew theta both need theta^2 = -I.
    dim = theta.shape[0]
    if dim % 2:
        raise ValueError(f"{name} must have even size, got {dim}")
    if _excess(_maxabs(theta @ theta + np.eye(dim)), max(tol, 1e-12), theta):
        raise ValueError(f"{name} must square to -I (canonical J blocks)")


@dataclass(frozen=True)
class SymplecticCompletion:
    """Rows n_mat extending d_q to a symplectic matrix, with the factors behind them.

    With k = d_q.shape[0], the complete QR (d_q @ theta_w).T = q @ r gives
    d_q.T = theta_w @ Q1 @ R1 for Q1 = q[:, :k] and R1 = r[:k] (theta_w is
    orthogonal and equals its own inverse transpose).  The trailing columns
    B = q[:, k:].T are an orthonormal basis of the symplectic complement,
    the congruence p from skew_canonical brings B @ theta_w @ B.T to
    diag(J), and n_mat = p @ B.  solve_d_q and solve_n_mat reuse these
    factors for the minimum-norm solves against d_q and n_mat.
    """

    n_mat: np.ndarray
    d_q: np.ndarray
    theta_w: np.ndarray
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
        x = self.theta_w @ (self.q[:, :k] @ np.linalg.solve(self.r[:k].T, c))
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
        k = self.d_q.shape[0]
        x = np.linalg.solve(self.p.T, (m_rhs @ self.q[:, k:]).T).T
        _check_consistent(x, self.n_mat, m_rhs, tol)
        return x


def _complete(rows: np.ndarray, theta: np.ndarray, tol: float) -> SymplecticCompletion:
    """Complete `rows` with canonical J-pairs spanning their symplectic complement.

    rows must satisfy rows @ theta @ rows.T = diag(J, ..., J), so they have
    full row rank k and their complement {x : rows @ theta @ x = 0} is a
    symplectic subspace of dimension dim - k.  The trailing columns of a
    complete QR of (rows @ theta).T are an orthonormal basis B of it;
    skew_canonical brings the restricted form B @ theta @ B.T to diag(J) by
    a congruence p, and p @ B are the pairs.
    """
    k = rows.shape[0]
    q, r = np.linalg.qr((rows @ theta).T, mode="complete")
    basis = q[:, k:].T
    canon = skew_canonical(basis @ theta @ basis.T, tol)
    if canon.n_c:
        raise ValueError("completion failed: the symplectic complement is "
                         "degenerate (input rows numerically rank deficient)")
    return SymplecticCompletion(canon.p @ basis, rows, theta, q, r, canon.p)


def _verify_symplectic(full: np.ndarray, theta: np.ndarray, what: str) -> None:
    excess = _excess(_maxabs(full @ theta @ full.T - theta), 1e-6, full)
    if excess:
        raise ValueError(f"{what} failed to verify ({excess}); "
                         "the input rows are numerically rank deficient")


def symplectic_complete(d_q, theta_w, tol: float = DEFAULT_TOL) -> SymplecticCompletion:
    """Complete quadrature output rows to a full symplectic transformation.

    d_q must satisfy d_q @ theta_w @ d_q.T = diag_{n_yq}(J); the returned
    n_mat stacks under d_q so that the whole matrix V satisfies
    V @ theta_w @ V.T = theta_w.  Closed form: n_mat is an orthonormal
    basis of the symplectic complement of d_q's rows, brought to canonical
    pairs by skew_canonical on the restricted form.  The identity is
    verified before returning.  The result keeps the QR factors and the
    congruence, which serve minimum-norm solves against d_q and n_mat
    (see SymplecticCompletion).
    """
    d_q = np.asarray(d_q, dtype=float)
    theta_w = np.asarray(theta_w, dtype=float)
    two_m = theta_w.shape[0]
    _check_canonical_form(theta_w, tol, "theta_w")
    if d_q.ndim != 2:
        d_q = d_q.reshape(0, two_m) if d_q.size == 0 else np.atleast_2d(d_q)
    if d_q.shape[1] != two_m or d_q.shape[0] % 2:
        raise ValueError(f"d_q must have an even row count and {two_m} columns, "
                         f"got shape {d_q.shape}")
    n_yq = d_q.shape[0] // 2
    m = two_m // 2
    if n_yq > m:
        raise ValueError(f"d_q has {n_yq} quadrature pairs but only m={m} channels")
    gram = d_q @ theta_w @ d_q.T
    excess = _excess(_maxabs(gram - diag_j(n_yq)), tol, d_q, _maxabs(theta_w) * two_m)
    if excess:
        raise ValueError(f"d_q does not satisfy the quadrature pairing precondition ({excess})")
    completion = _complete(d_q, theta_w, tol)
    _verify_symplectic(np.vstack([d_q, completion.n_mat]), theta_w, "completion")
    return completion


@dataclass(frozen=True)
class PzkvDecomposition:
    """Factorization M = P Z K V of an isotropic read-out matrix.

    p_perm is a permutation, z = (I_r ; X) up to that permutation, k_sel
    selects the odd-indexed rows of the symplectic v_sympl, and the first
    chosen basis rows of M sit verbatim at those rows of v_sympl.
    """

    p_perm: np.ndarray
    z: np.ndarray
    k_sel: np.ndarray
    v_sympl: np.ndarray
    r: int


def _pivot_rows(m_mat: np.ndarray, r: int) -> list[int]:
    """Sorted indices of r rows picked by greedy pivoted Gram-Schmidt.

    Each step takes the row with the largest norm left after projecting out
    the rows taken so far (the first on ties) and projects it out of the
    rest: the pivot order of column-pivoted QR on m_mat.T (Businger and
    Golub, Numer. Math. 1965).
    """
    resid = m_mat.copy()
    picked = []
    for _ in range(r):
        norms = np.einsum("ij,ij->i", resid, resid)
        i = int(np.argmax(norms))
        picked.append(i)
        u = resid[i] / np.sqrt(norms[i])
        resid -= np.outer(resid @ u, u)
    return sorted(picked)


def pzkv_decompose(m_mat, theta_prime, tol: float = DEFAULT_TOL) -> PzkvDecomposition:
    """Split an isotropic matrix into permutation, basis, selection and network.

    Requires m_mat @ theta_prime @ m_mat.T = 0; the rank r of m_mat can then
    not exceed half the symplectic dimension.  Basis rows L are picked by
    greedy pivoted Gram-Schmidt (see _pivot_rows) and the remaining rows are
    recovered through Z.  Closed form for v_sympl: the dual rows
    W = (L L^T)^-1 L theta_prime (a solve with the R factor of L^T)
    satisfy L theta W^T = I, and W -= (W theta W^T) L / 2 makes them
    isotropic while keeping that identity (L theta L^T = 0).  The remaining
    rows M_o = X L then give X = M_o theta W^T.  The pairs (L_i, W_i) lead
    v_sympl, with L copied verbatim, and the symplectic complement of their
    span completes it as in symplectic_complete.  Both the symplectic
    identity and the embedded basis rows are verified before returning.
    """
    m_mat = np.asarray(m_mat, dtype=float)
    theta_prime = np.asarray(theta_prime, dtype=float)
    two_mp = theta_prime.shape[0]
    _check_canonical_form(theta_prime, tol, "theta_prime")
    if m_mat.ndim != 2:
        m_mat = m_mat.reshape(0, two_mp) if m_mat.size == 0 else np.atleast_2d(m_mat)
    if m_mat.shape[1] != two_mp:
        raise ValueError(f"m_mat must have {two_mp} columns, got shape {m_mat.shape}")
    m_prime = two_mp // 2
    rows = m_mat.shape[0]
    excess = _excess(_maxabs(m_mat @ theta_prime @ m_mat.T), tol, m_mat, two_mp)
    if excess:
        raise ValueError(f"m_mat is not isotropic ({excess})")
    r = rank_tol(m_mat, tol)
    if r > m_prime:
        raise ValueError(f"rank {r} exceeds the isotropic bound m'={m_prime}")

    basis_idx = _pivot_rows(m_mat, r)
    other_idx = [i for i in range(rows) if i not in basis_idx]
    basis = m_mat[basis_idx, :]
    q, tri = np.linalg.qr(basis.T)
    dual = np.linalg.solve(tri, q.T @ theta_prime)
    dual -= 0.5 * (dual @ theta_prime @ dual.T) @ basis

    # Remaining rows in the chosen basis: theta_prime @ dual.T is a right
    # inverse of basis.  Consistency is implied by the rank computation but
    # is still verified.
    others = m_mat[other_idx, :]
    x = others @ theta_prime @ dual.T
    _check_consistent(x, basis, others, tol)
    z = np.vstack([np.eye(r), x])
    p_perm = np.zeros((rows, rows))
    for pos, orig in enumerate(basis_idx + other_idx):
        p_perm[orig, pos] = 1.0
    k_sel = np.zeros((r, two_mp))
    for i in range(r):
        k_sel[i, 2 * i] = 1.0
    lead = np.empty((2 * r, two_mp))
    lead[0::2], lead[1::2] = basis, dual
    v_sympl = np.vstack([lead, _complete(lead, theta_prime, tol).n_mat])
    _verify_symplectic(v_sympl, theta_prime, "network")
    if not np.array_equal(k_sel @ v_sympl, basis):
        raise ValueError("network does not embed the basis rows verbatim")
    return PzkvDecomposition(p_perm, z, k_sel, v_sympl, r)


def minnorm_right_solve(a, b, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Minimum-Frobenius-norm solution x of x @ a = b.

    The equation must be consistent: every row of b has to lie in the row
    space of a.  Raises with the residual norm otherwise.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"column mismatch: a has {a.shape[1]}, b has {b.shape[1]}")
    if a.shape[0] == 0 or a.shape[1] == 0:
        x = np.zeros((b.shape[0], a.shape[0]))
    else:
        x = np.linalg.lstsq(a.T, b.T, rcond=None)[0].T
    _check_consistent(x, a, b, tol)
    return x


def _check_consistent(x: np.ndarray, a: np.ndarray, b: np.ndarray, tol: float) -> None:
    residual = _maxabs(x @ a - b)
    if residual > tol * max(1.0, _maxabs(b)):
        raise ValueError("x @ a = b is inconsistent: b is not in the row "
                         f"space of a (residual {residual:.3e})")


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
    return _expm(diag_j(m) @ s)


def __getattr__(name: str):
    # perfbench/tracing.py reads and rebinds this module's `scipy` name to
    # count its `scipy.linalg.orth` calls.  Nothing here calls scipy, so it is
    # imported only when that name is read; the next change to the benchmark
    # retires this shim together with that counter.
    if name == "scipy":
        import scipy
        return scipy
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
