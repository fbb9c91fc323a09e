"""Plain-numpy references that tests compare the library against.

Each one states its quantity by the textbook formula, with no part of the
library's kernels: the library computes the same quantities another way,
or only inside its checkers, and tests/test_oracles.py ties each reference
to the library path it stands in for.
"""

import numpy as np

DEFAULT_TOL = 1e-9


def rank_tol(m_mat, tol: float = DEFAULT_TOL) -> int:
    """Numerical rank: the count of singular values above tol times the largest."""
    s = np.linalg.svd(np.asarray(m_mat, dtype=float), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def minnorm_right_solve(a, b) -> np.ndarray:
    """Minimum-Frobenius-norm least-squares solution x of x @ a = b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.linalg.lstsq(a.T, b.T, rcond=None)[0].T


def nondemolition_residual(sys) -> float:
    """Frobenius norm of B theta_w D^T + theta_n C^T; an overflow reads inf or nan."""
    st = sys.structure
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.linalg.norm(sys.b @ st.theta_w @ sys.d.T + st.theta_n @ sys.c.T))


def transfer_eval(a, b, c, d, s: complex) -> np.ndarray:
    """Transfer function C (sI - A)^-1 B + D at one complex frequency s."""
    a = np.asarray(a)
    pencil = complex(s) * np.eye(a.shape[0]) - a
    return np.asarray(c @ np.linalg.solve(pencil, np.asarray(b, dtype=complex)) + d,
                      dtype=complex)
