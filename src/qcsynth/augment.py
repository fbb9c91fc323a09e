"""Augmentation of classical variables with conjugate partners.

A realizable standard-form system embeds into a fully quantum one by
pairing each classical state variable with an auxiliary conjugate
variable.  The augmented dynamics leave the original state untouched (the
auxiliary block only listens), and the reduced read-out turns the pair
into a system that passes the fully-quantum realizability check verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matkit import DEFAULT_TOL, _check_consistent, _qr_minnorm, _require_pairing
from .sysmodel import StandardSystem, _j_times, _maxabs, _times_j

__all__ = ["AugmentedSystem", "ReducedSystem", "augment", "reduce"]


@dataclass(frozen=True)
class AugmentedSystem:
    """Block system ((A, 0), (A', A'')) driven by (B ; B') with outputs (C_q | 0), D_q.

    theta_tilde extends the state commutation matrix so that each classical
    variable and its auxiliary partner form a conjugate pair; it is skew
    and squares to -I.  The construction blocks a_prime, a_dprime, b_prime
    are kept alongside the assembled matrices because the defining
    relations are stated in terms of them.
    """

    a_tilde: np.ndarray
    b_tilde: np.ndarray
    c_tilde: np.ndarray
    d_tilde: np.ndarray
    theta_tilde: np.ndarray
    a_prime: np.ndarray
    a_dprime: np.ndarray
    b_prime: np.ndarray

    def relation_residuals(self, sys: StandardSystem) -> dict[str, float]:
        """Frobenius norms of the three defining relations against `sys`.

        output-coupling: b_prime theta_w d_q^T - c_qc^T; auxiliary-skew:
        S^T a_prime^T - a_prime S - b_prime theta_w b_prime^T; and
        auxiliary-closure: a_dprime - (a_prime theta_n - S^T A^T
        + b_prime theta_w B^T) S, with S the classical-state selector.
        A norm that overflows is returned as inf, without a warning.
        """
        st = sys.structure
        th_w = st.theta_w
        sel = _classical_selector(sys.dims.n, sys.dims.n_c)
        with np.errstate(over="ignore", invalid="ignore"):
            relations = {
                "output-coupling": self.b_prime @ th_w @ sys.d_q.T - sys.c_qc.T,
                "auxiliary-skew": (sel.T @ self.a_prime.T - self.a_prime @ sel
                                   - self.b_prime @ th_w @ self.b_prime.T),
                "auxiliary-closure": self.a_dprime - (self.a_prime @ st.theta_n
                                                      - sel.T @ sys.a.T
                                                      + self.b_prime @ th_w @ sys.b.T) @ sel,
            }
            return {name: float(np.linalg.norm(r)) for name, r in relations.items()}


@dataclass(frozen=True)
class ReducedSystem:
    """Augmented pair with the full-rank read-out c_bar = theta_w b_tilde^T theta_tilde."""

    a_tilde: np.ndarray
    b_tilde: np.ndarray
    c_bar: np.ndarray
    theta_tilde: np.ndarray


def _classical_selector(n: int, n_c: int) -> np.ndarray:
    s_sel = np.zeros((n, n_c))
    if n_c:
        s_sel[n - n_c:, :] = np.eye(n_c)
    return s_sel


def _auxiliary_input(d_q: np.ndarray, c_qc: np.ndarray, tol: float) -> np.ndarray:
    """Minimum-norm b_prime with b_prime (theta_w d_q^T) = c_qc^T.

    d_q must pass the quadrature pairing precondition, which gives it full
    row rank.  With the economy QR theta_w d_q^T = q1 r1 this is
    (q1 r1)^T b_prime^T = c_qc, solved by the formula of
    SymplecticCompletion.solve_d_q, whose QR is of (d_q theta_w)^T.
    """
    _require_pairing(d_q, tol)
    a = _j_times(d_q.T)
    # a non-finite b_prime fails the consistency check
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            b_prime = _qr_minnorm(*np.linalg.qr(a), c_qc).T
        except np.linalg.LinAlgError:    # a pairing passed at an extreme scale
            raise ValueError("augment: the solve for b_prime against theta_w d_q^T is "
                             "singular (R1 of its QR has a zero pivot)") from None
        _check_consistent(b_prime, a, c_qc.T, tol)
    return b_prime


def augment(sys: StandardSystem, tol: float = DEFAULT_TOL) -> AugmentedSystem:
    """Attach conjugate partners to the classical state variables.

    b_prime is the minimum-norm solution of b_prime (theta_w d_q^T) = c_qc^T,
    from a QR of theta_w d_q^T (see _auxiliary_input); d_q must pass the
    quadrature pairing precondition of symplectic_complete, and augment
    raises ValueError otherwise.  The auxiliary dynamics blocks are then
    forced: the classical-column block of a_prime resolves the skew
    equation a_prime_c^T - a_prime_c = b_prime theta_w b_prime^T
    symmetrically, the quantum-column block cancels the cross-commutation
    drift between x_q and the auxiliaries, and a_dprime follows from the
    closure relation, whose a_prime theta_n term has no classical columns:
    a_dprime = (b_prime theta_w B^T)[:, classical] - a_cc^T.
    """
    n, n_c = sys.dims.n, sys.dims.n_c
    b_prime = _auxiliary_input(sys.d_q, sys.c_qc, tol)
    # An overflow in the products below is raised as one error, not warned
    # about and passed on as inf or nan entries.
    with np.errstate(over="ignore", invalid="ignore"):
        b_theta = _times_j(b_prime)
        a_prime = np.hstack([_times_j(b_theta @ sys.b_q.T - sys.a_qc.T),
                             -(b_theta @ b_prime.T) / 2.0])
        a_dprime = (b_theta @ sys.b.T)[:, n - n_c:] - sys.a_cc.T
    if not (np.isfinite(a_prime).all() and np.isfinite(a_dprime).all()):
        raise ValueError("augmentation overflowed: the auxiliary dynamics blocks "
                         f"a_prime and a_dprime are not finite (max|b_prime| "
                         f"{_maxabs(b_prime):.3e})")

    size = n + n_c
    a_tilde = np.zeros((size, size))
    a_tilde[:n, :n] = sys.a
    a_tilde[n:, :n] = a_prime
    a_tilde[n:, n:] = a_dprime
    b_tilde = np.concatenate([sys.b, b_prime])
    c_tilde = np.zeros((2 * sys.dims.n_yq, size))
    c_tilde[:, :n] = sys.c_q
    d_tilde = sys.d_q.copy()
    # ((theta_n, S), (-S^T, 0)) with S the classical selector; -S^T is
    # -0.0 off its ones, as the negation of S writes it
    theta_tilde = np.zeros((size, size))
    theta_tilde[:n, :n] = sys.structure.theta_n
    theta_tilde[n:, :n] = -0.0
    pairs = np.arange(n_c)
    theta_tilde[n - n_c + pairs, n + pairs] = 1.0
    theta_tilde[n + pairs, n - n_c + pairs] = -1.0
    return AugmentedSystem(a_tilde, b_tilde, c_tilde, d_tilde, theta_tilde,
                           a_prime, a_dprime, b_prime)


def reduce(aug: AugmentedSystem, theta_w: np.ndarray) -> ReducedSystem:
    """Full-rank read-out for the augmented pair.

    With c_bar = theta_w b_tilde^T theta_tilde and identity feedthrough,
    the output-coupling condition holds identically because theta_tilde
    and theta_w both square to -I.
    """
    c_bar = theta_w @ aug.b_tilde.T @ aug.theta_tilde
    return ReducedSystem(aug.a_tilde, aug.b_tilde, c_bar, aug.theta_tilde)
