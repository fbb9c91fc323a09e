"""Feedback realization of mixed quantum-classical systems.

synthesize splits a realizable standard-form model into a fully quantum
subsystem, a classical subsystem, and a static measurement network feeding
the classical side from the quantum side's auxiliary outputs.  close_loop
reassembles the interconnection; the round trip reproduces the input.
generate_realizable manufactures realizable instances for testing by
running the same construction in reverse from random ingredients.
"""

from __future__ import annotations

import numpy as np

from .matkit import _pairing, pzkv_decompose, random_symplectic, symplectic_complete
from .realizability import (DEFAULT_CHECK_TOL, ConditionResult, RealizabilityReport,
                            _make_report, _overflow_fails, check_standard)
# The realization records are defined in sysmodel, next to their shapes.
from .sysmodel import (ClassicalSubsystem, Dimensions, QuantumSubsystem, Realization,
                       StandardSystem, _j_times, _maxabs, _times_j)

__all__ = [
    "NotRealizableError",
    "QuantumSubsystem",
    "ClassicalSubsystem",
    "Realization",
    "synthesize",
    "close_loop",
    "generate_realizable",
]


class NotRealizableError(ValueError):
    """Input rejected because a realizability condition failed.

    Carries the failing report so callers can show which condition broke.
    """

    def __init__(self, message: str, report: RealizabilityReport):
        super().__init__(message)
        self.report = report


def synthesize(sys: StandardSystem, tol: float = DEFAULT_CHECK_TOL) -> Realization:
    """Split a realizable standard-form system into its feedback realization.

    Steps:

    1. complete d_q symplectically with d_q_prime, and form the paired
       auxiliary read-out c_qq_prime;
    2. solve d_q c_c_prime = c_qc (minimum norm) with the completion's QR
       factor of d_q, and peel the actuation e_mat = a_qc - b_q c_c_prime;
    3. solve for the classical couplings against d_q_prime (minimum norm)
       with the completion's orthonormal basis and congruence;
    4. decompose the stacked couplings into permutation, basis, selection
       and network factors, which yields g_mat, b_c_prime and d_c_prime;
    5. subtract the feedback-through terms from a_cc and c_cc.

    Every linear solve is consistent exactly when the input satisfies the
    block realizability constraints; inconsistency raises with a residual.
    """
    report = check_standard(sys, tol)
    if not report.verdict:
        raise NotRealizableError(
            f"input fails realizability (worst condition: {report.worst})", report)
    d = sys.dims

    # theta_w, theta_nq and theta' are diag_j(m), diag_j(n_q) and
    # diag_j(m - n_yq): their products are applied by index, bit for bit the
    # dense ones.
    completion = symplectic_complete(sys.d_q, tol)
    d_q_prime = completion.n_mat
    c_qq_prime = _times_j(_times_j(d_q_prime) @ sys.b_q.T)
    c_c_prime = completion.solve_d_q(sys.c_qc, tol)
    e_mat = sys.a_qc - sys.b_q @ c_c_prime

    # Couplings of the classical side to the auxiliary outputs: consistency
    # of both solves is exactly the cross and classical block constraints.
    coupling = completion.solve_n_mat(np.concatenate([sys.b_c, sys.d_c]), tol)

    pzkv = pzkv_decompose(coupling, tol)
    # k_sel and p_perm select rows: gathered, and + 0.0 turns -0.0 into
    # +0.0 as the dense products with them do.
    g_mat = pzkv.v_sympl[0:2 * pzkv.r:2] + 0.0
    picks = pzkv.p_perm.argmax(axis=1) if pzkv.p_perm.size else np.zeros(0, dtype=int)
    coupling_rows = pzkv.z[picks] + 0.0
    b_c_prime, d_c_prime = coupling_rows[: d.n_c], coupling_rows[d.n_c:]

    feed = g_mat @ d_q_prime @ c_c_prime
    a_cc_prime = sys.a_cc - b_c_prime @ feed
    c_cc_prime = sys.c_cc - d_c_prime @ feed

    split = 2 * d.n_w1
    g1 = QuantumSubsystem(sys.a_qq, sys.b_q, e_mat, sys.c_qq, sys.d_q,
                          c_qq_prime, d_q_prime, _j_times(-e_mat))
    g2 = ClassicalSubsystem(a_cc_prime, b_c_prime, c_cc_prime, d_c_prime,
                            c_c_prime[:split], c_c_prime[split:])
    return Realization(g1, g2, g_mat, pzkv.k_sel, pzkv.v_sympl,
                       pzkv.p_perm, pzkv.z, d)


@_overflow_fails
def _network_report(r: Realization, tol: float = DEFAULT_CHECK_TOL) -> RealizabilityReport:
    """Conditions on the measurement network that close_loop never reads.

    - symplectic: v_sympl theta' v_sympl^T = theta', as pzkv_decompose
      verifies it (max|.| against 1e-6 max|V|^2);
    - selection: g_mat = k_sel v_sympl (max|.| against tol max(1, max|V|));
    - commuting-taps: g_mat theta' g_mat^T = 0, as pzkv_decompose checks
      the isotropy of its input (max|.| against tol max(1, 2m' max|G|^2));
    - permutation: p_perm is exactly a permutation matrix.  Its residual is
      the largest distance of an entry from {0, 1} or of a row or column
      sum from 1, and its threshold is zero.

    theta' = diag_j(m') with m' = m - n_yq, the free channels.
    """
    v, g, p = r.v_sympl, r.g_mat, r.p_perm
    off_permutation = max(_maxabs(np.minimum(np.abs(p), np.abs(p - 1.0))),
                          _maxabs(p.sum(axis=0) - 1.0), _maxabs(p.sum(axis=1) - 1.0))
    return _make_report([
        ConditionResult("symplectic", *_pairing(v)),
        ConditionResult("selection", _maxabs(g - r.k_sel @ v), tol * max(1.0, _maxabs(v))),
        ConditionResult("commuting-taps", *_pairing(g, tol, paired=False)),
        ConditionResult("permutation", off_permutation, 0.0),
    ])


def _assemble(dims: Dimensions, g1: QuantumSubsystem, g2: ClassicalSubsystem,
              g_mat: np.ndarray) -> StandardSystem:
    # Interconnection: u = x_c into the quantum side, du_c = g_mat dy'_q
    # into the classical side.
    c_c_prime = g2.c_c_prime
    b_cg = g2.b_c_prime @ g_mat
    d_cg = g2.d_c_prime @ g_mat
    feed = g_mat @ g1.d_q_prime @ c_c_prime
    q, yq = 2 * dims.n_q, 2 * dims.n_yq
    a = np.empty((dims.n, dims.n))
    a[:q, :q] = g1.a_qq
    a[:q, q:] = g1.b_q @ c_c_prime + g1.e_mat
    a[q:, :q] = b_cg @ g1.c_qq_prime
    a[q:, q:] = g2.a_cc_prime + g2.b_c_prime @ feed
    b = np.concatenate([g1.b_q, b_cg @ g1.d_q_prime])
    c = np.empty((dims.n_y, dims.n))
    c[:yq, :q] = g1.c_qq
    c[:yq, q:] = g1.d_q @ c_c_prime
    c[yq:, :q] = d_cg @ g1.c_qq_prime
    c[yq:, q:] = g2.c_cc_prime + g2.d_c_prime @ feed
    d = np.concatenate([g1.d_q, d_cg @ g1.d_q_prime])
    return StandardSystem(dims, a, b, c, d)


def close_loop(r: Realization) -> StandardSystem:
    """Reassemble the interconnected system from a realization."""
    return _assemble(r.dims, r.g1, r.g2, r.g_mat)


def generate_realizable(dims: Dimensions, seed: int) -> StandardSystem:
    """Random realizable standard-form system, deterministic per seed.

    Builds realization ingredients directly: a quantum block whose drift is
    (symmetric + half the input scattering) rotated by theta_nq, output
    rows drawn from a random symplectic matrix with their completion, a
    commuting-quadrature tap for the measurement network, and free random
    classical parts.  Closing the loop over these satisfies every block
    constraint identically, so the result passes the realizability checks
    by construction rather than by tuning.
    """
    rng = np.random.default_rng(seed)
    two_nq, n_c, m, n_yq, n_yc = 2 * dims.n_q, dims.n_c, dims.m, dims.n_yq, dims.n_yc
    m_free = m - n_yq

    def draw(rows, cols, scale=0.4):
        return rng.standard_normal((rows, cols)) * scale

    b_q = draw(two_nq, 2 * m)
    sym = draw(two_nq, two_nq)
    a_qq = _times_j((sym + sym.T) / 2.0 + _times_j(0.5 * b_q) @ b_q.T)
    t_out = random_symplectic(m, rng, spread=0.25) if m else np.zeros((0, 0))
    d_q = t_out[: 2 * n_yq]
    d_q_prime = t_out[2 * n_yq:]
    c_qq = (_times_j(_j_times(b_q)) @ d_q.T).T
    c_qq_prime = _times_j(_times_j(d_q_prime) @ b_q.T)

    r = min(n_c + n_yc, m_free)
    if r:
        tap = random_symplectic(m_free, rng, spread=0.25)
        g_mat = tap[0: 2 * r: 2]
    else:
        g_mat = np.zeros((0, 2 * m_free))
    c_c_prime = draw(2 * m, n_c)
    e_mat = draw(two_nq, n_c)
    a_cc_prime = draw(n_c, n_c, 0.25)
    c_cc_prime = draw(n_yc, n_c)
    b_c_prime = draw(n_c, r)
    d_c_prime = draw(n_yc, r)
    split = 2 * dims.n_w1
    g1 = QuantumSubsystem(a_qq, b_q, e_mat, c_qq, d_q, c_qq_prime, d_q_prime, _j_times(-e_mat))
    g2 = ClassicalSubsystem(a_cc_prime, b_c_prime, c_cc_prime, d_c_prime,
                            c_c_prime[:split], c_c_prime[split:])
    return _assemble(dims, g1, g2, g_mat)
