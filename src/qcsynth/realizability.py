"""Condition checkers for physical realizability, with residual diagnostics.

Each checker evaluates its defining matrix equations, reports one named
residual per condition, and passes exactly when every residual stays below
its threshold.  Thresholds default to tol * (1 + scale), where scale sums
the norms of the terms entering the condition before cancellation, so that
systems with large entries are not penalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy  # scipy.linalg loads lazily, on its first use

from .sysmodel import (GeneralSystem, QuantumOnlySystem, StandardSystem,
                       diag_j, make_structure)

__all__ = [
    "ConditionResult",
    "RealizabilityReport",
    "check_quantum",
    "check_standard",
    "check_standard_partitioned",
    "check_general",
    "nondemolition_residual",
    "commutator_trajectory",
]

DEFAULT_CHECK_TOL = 1e-8


@dataclass(frozen=True)
class ConditionResult:
    name: str
    residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        # An overflow makes residual and threshold infinite together; inf <= inf
        # must not read as a pass.
        return (math.isfinite(self.residual) and math.isfinite(self.threshold)
                and self.residual <= self.threshold)


@dataclass(frozen=True)
class RealizabilityReport:
    verdict: bool
    conditions: tuple[ConditionResult, ...]
    worst: str

    def __getitem__(self, name: str) -> ConditionResult:
        for cond in self.conditions:
            if cond.name == name:
                return cond
        raise KeyError(name)


def _fro(a: np.ndarray) -> float:
    return float(np.linalg.norm(a)) if a.size else 0.0


def _condition(name: str, value: np.ndarray, tol: float, terms) -> ConditionResult:
    scale = sum(_fro(t) for t in terms)
    return ConditionResult(name, _fro(value), tol * (1.0 + scale))


def _make_report(conditions: list[ConditionResult]) -> RealizabilityReport:
    verdict = all(c.passed for c in conditions)
    worst = ""
    worst_ratio = -1.0
    for c in conditions:
        if not (math.isfinite(c.residual) and math.isfinite(c.threshold)):
            ratio = math.inf
        elif c.threshold > 0.0:
            ratio = c.residual / c.threshold
        else:
            ratio = math.inf if c.residual > 0.0 else 0.0
        if ratio > worst_ratio:
            worst_ratio, worst = ratio, c.name
    return RealizabilityReport(verdict, tuple(conditions), worst)


def check_quantum(sys: QuantumOnlySystem, tol: float = DEFAULT_CHECK_TOL,
                  theta: np.ndarray | None = None) -> RealizabilityReport:
    """Realizability of a fully quantum system.

    Conditions: preservation of the state commutations, coupling of the
    output rows to the dynamics, and the structural form of the
    feedthrough (identity, possibly padded with zero columns; checked with
    zero tolerance).  `theta` overrides the canonical commutation matrix,
    which lets reduced systems be verified in their native block order.
    """
    a, b, c, d = sys.a, sys.b, sys.c, sys.d
    if theta is None:
        theta = diag_j(sys.n_q)
    theta_w = diag_j(sys.m)
    # the coupling condition pairs outputs against their own commutation
    # blocks, which match theta_w only when the feedthrough is square
    t_state = [a @ theta, theta @ a.T, b @ theta_w @ b.T]
    t_out = [b @ d.T, theta @ c.T @ diag_j(sys.n_z)]
    expected_d = np.zeros_like(d)
    k = min(d.shape)
    expected_d[:, :k] = np.eye(d.shape[0], k)
    form_defect = 0.0 if d.shape[0] <= d.shape[1] else np.inf
    if np.isfinite(form_defect) and d.size:
        form_defect = float(np.max(np.abs(d - expected_d)))
    conditions = [
        _condition("state-commutation", sum(t_state), tol, t_state),
        _condition("output-coupling", t_out[0] - t_out[1], tol, t_out),
        ConditionResult("output-form", form_defect, 0.0),
    ]
    return _make_report(conditions)


def check_standard(sys: StandardSystem, tol: float = DEFAULT_CHECK_TOL) -> RealizabilityReport:
    """The three standard-form realizability conditions."""
    st = sys.structure
    a, b, c, d = sys.a, sys.b, sys.c, sys.d
    t1 = [a @ st.theta_n, st.theta_n @ a.T, b @ st.theta_w @ b.T]
    t2 = [b @ st.theta_w @ d.T, st.theta_n @ c.T]
    t3 = [d @ st.theta_w @ d.T, st.theta_y_target]
    conditions = [
        _condition("state-commutation", sum(t1), tol, t1),
        _condition("non-demolition", t2[0] + t2[1], tol, t2),
        _condition("output-ito", t3[0] - t3[1], tol, t3),
    ]
    return _make_report(conditions)


def check_standard_partitioned(sys: StandardSystem,
                               tol: float = DEFAULT_CHECK_TOL) -> RealizabilityReport:
    """The ten block constraints equivalent to the standard conditions.

    The verdict agrees with check_standard: the ten equations are exactly
    the nonredundant blocks of the three whole-matrix conditions under the
    quantum-first partitioning.
    """
    st = sys.structure
    th_q = st.theta_nq
    th_w = st.theta_w
    th_yq = st.theta_yq
    a_qq, a_cq = sys.a_qq, sys.a_cq
    b_q, b_c = sys.b_q, sys.b_c
    c_qq, c_cq = sys.c_qq, sys.c_cq
    d_q, d_c = sys.d_q, sys.d_c

    def cond(name, terms, signs):
        value = sum(s * t for s, t in zip(signs, terms))
        return _condition(name, value, tol, terms)

    conditions = [
        cond("qq-state", [a_qq @ th_q, th_q @ a_qq.T, b_q @ th_w @ b_q.T], (1, 1, 1)),
        cond("cq-coupling", [a_cq @ th_q, b_c @ th_w @ b_q.T], (1, 1)),
        cond("bc-classical", [b_c @ th_w @ b_c.T], (1,)),
        cond("bc-dq-cross", [b_c @ th_w @ d_q.T], (1,)),
        cond("q-nondemolition", [b_q @ th_w @ d_q.T, th_q @ c_qq.T], (1, 1)),
        cond("bc-dc-cross", [b_c @ th_w @ d_c.T], (1,)),
        cond("c-nondemolition", [b_q @ th_w @ d_c.T, th_q @ c_cq.T], (1, 1)),
        cond("dq-ito", [d_q @ th_w @ d_q.T, th_yq], (1, -1)),
        cond("dq-dc-cross", [d_q @ th_w @ d_c.T], (1,)),
        cond("dc-classical", [d_c @ th_w @ d_c.T], (1,)),
    ]
    return _make_report(conditions)


def check_general(sys: GeneralSystem, tol: float = DEFAULT_CHECK_TOL) -> RealizabilityReport:
    """Realizability of a general-form system via the skew Ito parts."""
    theta = sys.big_theta_n
    theta_v = sys.theta_v
    theta_y = sys.theta_y
    a, b, c, d = sys.a_g, sys.b_g, sys.c_g, sys.d_g
    t1 = [a @ theta, theta @ a.T, b @ theta_v @ b.T]
    t2 = [b @ theta_v @ d.T, theta @ c.T]
    t3 = [d @ theta_v @ d.T, theta_y]
    conditions = [
        _condition("state-commutation", sum(t1), tol, t1),
        _condition("non-demolition", t2[0] + t2[1], tol, t2),
        _condition("output-ito", t3[0] - t3[1], tol, t3),
    ]
    return _make_report(conditions)


def nondemolition_residual(sys: StandardSystem) -> float:
    """Frobenius norm of B theta_w D^T + theta_n C^T."""
    st = sys.structure
    return _fro(sys.b @ st.theta_w @ sys.d.T + st.theta_n @ sys.c.T)


def commutator_trajectory(sys: StandardSystem, times) -> list[np.ndarray]:
    """State/output commutator evolution at the requested times.

    Returns g(t)/2i = (integral_0^t exp(A u) du) (theta_n C^T + B theta_w D^T)
    for each t; the result is identically zero exactly when the
    non-demolition condition holds.  The integral is the top-right block of
    expm([[A, I], [0, 0]] t) (Van Loan, IEEE TAC 1978), which holds for
    every A, singular or not; all positive times share one batched
    exponential.
    """
    times = [float(t) for t in times]
    if (any(not 0.0 <= t < math.inf for t in times)
            or any(t2 < t1 for t1, t2 in zip(times, times[1:]))):
        raise ValueError("times must be sorted, nonnegative and finite")
    st = sys.structure
    a = sys.a
    drive = st.theta_n @ sys.c.T + sys.b @ st.theta_w @ sys.d.T
    n = a.shape[0]
    positive = [t for t in times if t > 0.0]   # sorted, so these come last
    out = [np.zeros_like(drive) for _ in range(len(times) - len(positive))]
    if positive:
        block = np.zeros((2 * n, 2 * n))
        block[:n, :n] = a
        block[:n, n:] = np.eye(n)
        exps = scipy.linalg.expm(np.multiply.outer(positive, block))
        out += [e[:n, n:] @ drive for e in exps]
    return out
