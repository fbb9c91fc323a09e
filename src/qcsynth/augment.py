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

from .matkit import DEFAULT_TOL, minnorm_right_solve
from .sysmodel import StandardSystem

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
        """
        st = sys.structure
        th_w = st.theta_w
        sel = _classical_selector(sys.dims.n, sys.dims.n_c)
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


def augment(sys: StandardSystem, tol: float = DEFAULT_TOL) -> AugmentedSystem:
    """Attach conjugate partners to the classical state variables.

    b_prime is the minimum-norm solution of b_prime (theta_w d_q^T) = c_qc^T;
    an inconsistent equation here means the input fails the quantum rows of
    the non-demolition condition and the solver raises.  The auxiliary
    dynamics blocks are then forced: the classical-column block of a_prime
    resolves the skew equation a_prime_c^T - a_prime_c = b_prime theta_w
    b_prime^T symmetrically, the quantum-column block cancels the
    cross-commutation drift between x_q and the auxiliaries, and a_dprime
    follows from the displayed closure relation.
    """
    st = sys.structure
    d = sys.dims
    n, n_c, two_nq = d.n, d.n_c, 2 * d.n_q
    th_w, th_q = st.theta_w, st.theta_nq

    b_prime = minnorm_right_solve(th_w @ sys.d_q.T, sys.c_qc.T, tol)
    k_skew = b_prime @ th_w @ b_prime.T
    a_prime_q = (b_prime @ th_w @ sys.b_q.T - sys.a_qc.T) @ th_q
    a_prime = np.hstack([a_prime_q, -k_skew / 2.0])
    s_sel = _classical_selector(n, n_c)
    a_dprime = (a_prime @ st.theta_n - s_sel.T @ sys.a.T
                + b_prime @ th_w @ sys.b.T) @ s_sel

    a_tilde = np.block([[sys.a, np.zeros((n, n_c))], [a_prime, a_dprime]])
    b_tilde = np.vstack([sys.b, b_prime])
    c_tilde = np.hstack([sys.c_q, np.zeros((2 * d.n_yq, n_c))])
    d_tilde = sys.d_q.copy()
    theta_tilde = np.block([[st.theta_n, s_sel], [-s_sel.T, np.zeros((n_c, n_c))]])
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
